// The engine's chase decision loop keeps one witness index for the whole
// decision and, after a failed search, lets a semi-naive pre-check decide
// whether the next level's new facts can complete a witness at all. This
// suite checks it differentially against a reference loop that copies the
// alive prefix and runs a full FindHomomorphism at every level, the way the
// loop worked before the index existed: every report field, witness and
// certificate must come out the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "core/certificate.h"
#include "core/containment.h"
#include "core/homomorphism.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/sigma_class.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

// --- the reference -----------------------------------------------------------

// The deepening loop with a full search over a fresh copy of the alive prefix
// at every level. `last_chance`, when given, is set when the witness came
// from the search made after a budget trip.
Result<ContainmentReport> ReferenceLoop(Chase& chase,
                                        const ConjunctiveQuery& q_prime,
                                        const DependencySet& deps,
                                        const SigmaAnalysis& analysis,
                                        const ContainmentOptions& options,
                                        bool* last_chance = nullptr) {
  ContainmentReport report;
  report.level_bound = Theorem2LevelBound(q_prime.conjuncts().size(),
                                          deps.size(), analysis.max_ind_width);
  uint64_t bound = report.level_bound;
  const bool bound_is_complete = analysis.decidable;
  if (analysis.sigma_class == SigmaClass::kAcyclicInd &&
      analysis.acyclic_ind_depth.has_value()) {
    bound = *analysis.acyclic_ind_depth;
    report.level_bound = bound;
  }
  auto search_witness = [&]() {
    if (q_prime.is_empty_query()) return false;
    std::vector<const ChaseConjunct*> alive = chase.AliveConjuncts();
    std::vector<Fact> facts;
    for (const ChaseConjunct* c : alive) facts.push_back(c->fact);
    std::optional<Homomorphism> hom =
        FindHomomorphism(q_prime, facts, chase.summary());
    if (!hom.has_value()) return false;
    report.chase_conjuncts = alive.size();
    report.chase_levels = chase.MaxAliveLevel();
    report.contained = true;
    report.witness_max_level = 0;
    for (size_t fi : hom->conjunct_images) {
      report.witness_max_level =
          std::max(report.witness_max_level, alive[fi]->level);
    }
    report.witness = std::move(hom);
    return true;
  };
  uint32_t level = 0;
  while (true) {
    Result<ChaseOutcome> expanded = chase.ExpandToLevel(level);
    if (!expanded.ok()) {
      if (expanded.status().code() == StatusCode::kResourceExhausted &&
          search_witness()) {
        if (last_chance != nullptr) *last_chance = true;
        return report;
      }
      return expanded.status();
    }
    report.chase_outcome = *expanded;
    report.chase_conjuncts = chase.AliveConjuncts().size();
    report.chase_levels = chase.MaxAliveLevel();
    if (*expanded == ChaseOutcome::kEmptyQuery) {
      report.contained = true;
      return report;
    }
    if (search_witness()) return report;
    if (*expanded == ChaseOutcome::kSaturated) return report;
    if (bound_is_complete && level >= bound) return report;
    if (level >= options.limits.max_level) {
      return Status::ResourceExhausted(StrCat(
          "containment undecided at chase level ", level, " (bound ", bound,
          ", max_level ", options.limits.max_level, ")"));
    }
    uint32_t next = level + options.level_stride;
    level = std::min<uint64_t>(
        std::min<uint64_t>(next, options.limits.max_level),
        bound_is_complete ? std::max<uint64_t>(bound, 1) : next);
  }
}

// --- rendering up to a renaming of chase NDVs --------------------------------

// Two chases of the same Q mint the same NDVs under different ids (each
// leases its own id block), so terms are rendered with chase NDVs numbered
// by first appearance. A witness from a chase that is gone is still safe to
// render: only the id is read.
class Renderer {
 public:
  std::string Term(cqchase::Term t) {
    if (!SymbolTable::IsChaseRegionNdv(t)) {
      return StrCat(static_cast<int>(t.kind()), ":", t.id());
    }
    auto [it, inserted] = ndvs_.emplace(t.id(), ndvs_.size());
    return StrCat("N", it->second);
  }
  std::string Fact(const cqchase::Fact& f) {
    std::string out = StrCat("R", f.relation, "(");
    for (cqchase::Term t : f.terms) out += Term(t) + ",";
    return out + ")";
  }

 private:
  std::map<uint32_t, size_t> ndvs_;
};

std::string RenderWitness(const ConjunctiveQuery& q_prime,
                          const Homomorphism& h) {
  Renderer r;
  std::string out = "images:";
  for (size_t fi : h.conjunct_images) out += StrCat(fi, ",");
  out += " mapping:";
  // Q' variables in order of first appearance, so both sides number the
  // NDV images identically.
  std::vector<Term> vars = q_prime.summary();
  for (const Fact& f : q_prime.conjuncts()) {
    vars.insert(vars.end(), f.terms.begin(), f.terms.end());
  }
  std::set<Term> distinct;
  for (Term v : vars) {
    if (v.is_constant()) continue;
    out += r.Term(v) + "->" + r.Term(h.Apply(v)) + ";";
    distinct.insert(v);
  }
  // The rendering covers the whole mapping.
  EXPECT_EQ(h.mapping.size(), distinct.size());
  return out;
}

std::string RenderCertificate(const ConjunctiveQuery& q_prime,
                              const ContainmentCertificate& cert) {
  Renderer r;
  std::string out = StrCat("empty:", cert.q_is_empty, " roots:");
  for (const Fact& f : cert.roots) out += r.Fact(f);
  out += " summary:";
  for (Term t : cert.summary) out += r.Term(t) + ",";
  out += " steps:";
  for (const DerivationStep& s : cert.steps) {
    out += StrCat("i", s.ind_index, "p", s.parent, r.Fact(s.fact), ";");
  }
  out += " images:";
  for (size_t fi : cert.conjunct_images) out += StrCat(fi, ",");
  out += " mapping:";
  std::vector<Term> vars = q_prime.summary();
  for (const Fact& f : q_prime.conjuncts()) {
    vars.insert(vars.end(), f.terms.begin(), f.terms.end());
  }
  for (Term v : vars) {
    if (v.is_constant()) continue;
    auto it = cert.mapping.find(v);
    out += r.Term(v) + "->" +
           (it == cert.mapping.end() ? "?" : r.Term(it->second)) + ";";
  }
  out += " provenance:";
  std::vector<std::pair<std::string, std::string>> provenance;
  for (const auto& [t, p] : cert.ndv_provenance) {
    provenance.emplace_back(r.Term(t),
                            StrCat(p.attribute_index, "/", p.source_conjunct,
                                   "/", p.ind_index, "/", p.level));
  }
  std::sort(provenance.begin(), provenance.end());
  for (const auto& [t, p] : provenance) out += t + "=" + p + ";";
  return out;
}

std::string RenderReport(const ConjunctiveQuery& q_prime,
                         const ContainmentReport& report) {
  return StrCat("contained:", report.contained,
                " wml:", report.witness_max_level,
                " bound:", report.level_bound,
                " conjuncts:", report.chase_conjuncts,
                " levels:", report.chase_levels,
                " outcome:", static_cast<int>(report.chase_outcome),
                " witness:",
                report.witness.has_value()
                    ? RenderWitness(q_prime, *report.witness)
                    : std::string("none"));
}

std::string RenderResult(const ConjunctiveQuery& q_prime,
                         const Result<ContainmentReport>& r) {
  if (!r.ok()) return StrCat("error:", r.status().ToString());
  return RenderReport(q_prime, *r);
}

// --- workloads -----------------------------------------------------------------

struct SigmaCase {
  SigmaClass sigma_class;
  const char* text;
};

// One Σ per SigmaClass over R(a,b), S(x,y), T(p,q,r). The FD+IND mixes let
// FD merges fire between levels (T: 1 -> 2 against IND-created T facts),
// under both chase variants.
const SigmaCase kSigmas[] = {
    {SigmaClass::kEmpty, ""},
    {SigmaClass::kFdOnly, "R: 1 -> 2\nT: 1 -> 2"},
    {SigmaClass::kIndOnlyW1, "R[2] <= S[1]\nS[2] <= R[1]\nT[3] <= R[1]"},
    {SigmaClass::kIndOnly, "R[1,2] <= T[1,2]\nT[2,3] <= R[1,2]\nS[2] <= T[1]"},
    {SigmaClass::kKeyBased,
     "S: 1 -> 2\nT: 1 -> 2\nT: 1 -> 3\nR[2] <= S[1]\nS[2] <= T[1]\n"
     "T[3] <= S[1]"},
    {SigmaClass::kAcyclicInd, "R[1,2] <= T[1,2]\nT: 1 -> 2\nS[2] <= R[1]"},
    {SigmaClass::kGeneral,
     "R[2] <= S[1]\nS[2] <= R[1]\nR[1,2] <= T[1,2]\nT: 1 -> 2\nS: 2 -> 1"},
};

// Which plan the engine's chase runs on: a private plan with every cache
// off, or the Σ record's plan with the caches on.
enum class ChaseHolding { kCacheOff, kCacheOn };

class WitnessSearchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("S", {"x", "y"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("T", {"p", "q", "r"}).ok());
  }

  DependencySet Sigma(const SigmaCase& sc) {
    Result<DependencySet> deps = ParseDependencies(catalog_, sc.text);
    EXPECT_TRUE(deps.ok()) << deps.status();
    EXPECT_EQ(AnalyzeSigma(*deps, catalog_).sigma_class, sc.sigma_class)
        << sc.text;
    return *std::move(deps);
  }

  // Random Qs, each with Q's: half planted inside a chase prefix of Q (so
  // witnesses sit at levels >= 1), half random.
  struct Task {
    size_t q_index;
    ConjunctiveQuery q_prime;
  };
  void MakeWorkload(uint64_t seed, const DependencySet& deps,
                    std::vector<ConjunctiveQuery>* qs,
                    std::vector<Task>* tasks) {
    Rng rng(seed);
    for (size_t i = 0; i < 4; ++i) {
      RandomQueryParams qp;
      qp.num_conjuncts = 2 + rng.Index(3);
      qp.num_vars = 3 + rng.Index(3);
      qp.constant_prob = 0.15;
      qp.constant_pool = 2;
      qp.name_prefix = StrCat("s", seed, "q", i, "_");
      qs->push_back(RandomQuery(rng, catalog_, symbols_, qp));
    }
    for (size_t k = 0; k < 16; ++k) {
      const size_t qi = rng.Index(qs->size());
      std::optional<ConjunctiveQuery> q_prime;
      if (k % 2 == 0) {
        Result<ConjunctiveQuery> planted = PlantedSuperQuery(
            rng, (*qs)[qi], deps, symbols_, /*extra_conjuncts=*/1 + rng.Index(2),
            /*chase_depth=*/1 + static_cast<uint32_t>(rng.Index(3)));
        if (planted.ok()) q_prime.emplace(*std::move(planted));
      }
      if (!q_prime.has_value()) {
        RandomQueryParams qp;
        qp.num_conjuncts = 1 + rng.Index(3);
        qp.num_vars = 2 + rng.Index(3);
        qp.constant_prob = 0.1;
        qp.constant_pool = 2;
        qp.name_prefix = StrCat("s", seed, "p", k, "_");
        q_prime.emplace(RandomQuery(rng, catalog_, symbols_, qp));
      }
      tasks->push_back(Task{qi, *std::move(q_prime)});
    }
  }

  // Asks every task of one Σ under one engine configuration and compares
  // each chase-decided answer with the reference; `stats` receives the
  // engine's counters.
  void RunCase(const SigmaCase& sc, ChaseVariant variant, uint32_t stride,
               ChaseHolding holding, size_t max_conjuncts, uint64_t seed,
               EngineStats* stats) {
    const DependencySet deps = Sigma(sc);
    const SigmaAnalysis analysis = AnalyzeSigma(deps, catalog_);
    const bool certify = CertifiableSigma(deps, catalog_);
    EngineConfig config;
    config.containment.variant = variant;
    config.containment.level_stride = stride;
    config.containment.allow_semidecision = true;
    // Small budgets: some decisions trip them, which exercises the
    // last-chance search.
    config.containment.limits.max_level = 6;
    config.containment.limits.max_conjuncts = max_conjuncts;
    config.route_streaming_single_conjunct = false;
    config.executor_threads = 1;
    if (holding == ChaseHolding::kCacheOff) config.enable_cache = false;
    ContainmentEngine engine(&catalog_, &symbols_, config);

    std::vector<ConjunctiveQuery> qs;
    std::vector<Task> tasks;
    MakeWorkload(seed, deps, &qs, &tasks);
    for (size_t k = 0; k < tasks.size(); ++k) {
      const ConjunctiveQuery& q = qs[tasks[k].q_index];
      const ConjunctiveQuery& q_prime = tasks[k].q_prime;
      SCOPED_TRACE(StrCat("task ", k, " q#", tasks[k].q_index));

      Result<ContainmentReport> got = Status::Internal("not asked");
      std::optional<ContainmentCertificate> got_cert;
      if (certify) {
        // A certificate request always decides on the chase and bypasses
        // the verdict tiers.
        RequestOptions options;
        options.want_certificate = true;
        Result<EngineOutcome> outcome =
            engine
                .Submit(ContainmentRequest::Borrow(q, q_prime, deps, options))
                .Get();
        if (outcome.ok()) {
          got = outcome->verdict.report;
          got_cert = outcome->certificate;
          ASSERT_NE(outcome->verdict.strategy, DecisionStrategy::kHomomorphism);
          ASSERT_NE(outcome->verdict.strategy,
                    DecisionStrategy::kStreamingFrontier);
        } else {
          got = outcome.status();
        }
      } else {
        Result<EngineVerdict> verdict = engine.Check(q, q_prime, deps);
        if (verdict.ok()) {
          // A verdict-tier hit ran no chase: nothing to compare.
          if (verdict->cache_hit) continue;
          got = verdict->report;
        } else {
          got = verdict.status();
        }
      }

      Chase chase(&catalog_, &symbols_, &deps, variant,
                  config.containment.limits);
      ASSERT_TRUE(chase.Init(q).ok());
      bool last_chance = false;
      Result<ContainmentReport> want =
          ReferenceLoop(chase, q_prime, deps, analysis, config.containment,
                        &last_chance);
      if (last_chance) ++last_chance_witnesses_;
      ASSERT_EQ(RenderResult(q_prime, got), RenderResult(q_prime, want));
      ++compared_;
      if (!want.ok()) ++errors_;
      if (want.ok() && want->contained) ++contained_;

      if (certify && want.ok() && want->contained) {
        ContainmentCertificate cert;
        if (chase.is_empty_query()) {
          cert.q_is_empty = true;
        } else {
          ASSERT_TRUE(want->witness.has_value());
          cert = ExtractCertificateFromChase(chase, *want->witness);
        }
        ASSERT_TRUE(got_cert.has_value());
        EXPECT_EQ(RenderCertificate(q_prime, *got_cert),
                  RenderCertificate(q_prime, cert));
        ++certificates_;
      }
    }
    *stats = engine.stats();
  }

  Catalog catalog_;
  SymbolTable symbols_;
  size_t compared_ = 0;
  size_t contained_ = 0;
  size_t certificates_ = 0;
  size_t errors_ = 0;
  size_t last_chance_witnesses_ = 0;
};

TEST_F(WitnessSearchDifferentialTest, MatchesFullSearchAtEveryLevel) {
  uint64_t searches = 0;
  uint64_t skipped = 0;
  uint64_t seed = 1;
  for (const SigmaCase& sc : kSigmas) {
    for (ChaseVariant variant :
         {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
      for (uint32_t stride : {1u, 2u}) {
        for (ChaseHolding holding :
             {ChaseHolding::kCacheOff, ChaseHolding::kCacheOn}) {
          for (size_t max_conjuncts : {120u, 16u}) {
            SCOPED_TRACE(StrCat(
                "sigma class ", static_cast<int>(sc.sigma_class), " variant ",
                static_cast<int>(variant), " stride ", stride, " holding ",
                static_cast<int>(holding), " max_conjuncts ", max_conjuncts,
                " seed ", seed));
            EngineStats stats;
            RunCase(sc, variant, stride, holding, max_conjuncts, seed++,
                    &stats);
            searches += stats.witness_searches;
            skipped += stats.witness_searches_skipped;
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // The workload reaches both answers, certificates, and the pre-check.
  EXPECT_GT(compared_, 1000u);
  EXPECT_GT(contained_, 200u);
  EXPECT_GT(certificates_, 100u);
  EXPECT_GT(errors_, 0u);  // budget trips
  EXPECT_GT(last_chance_witnesses_, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_LT(skipped, searches);
}

// An FD merge between levels that rewrites a fact an earlier level's search
// already indexed: T: 1 -> 2 merges w into '7' once level 1 adds
// T(u, '7', n), so the level-0 fact T(u, w, z) becomes T(u, '7', z). The
// witness must land on the rewritten level-0 fact, which a stale index
// would still hold as T(u, w, z).
TEST_F(WitnessSearchDifferentialTest, MergeBetweenLevelsRewritesIndexedFact) {
  const DependencySet deps =
      *ParseDependencies(catalog_, "R[1,2] <= T[1,2]\nT: 1 -> 2");
  const ConjunctiveQuery q =
      *ParseQuery(catalog_, symbols_, "ans(u) :- R(u, '7'), T(u, w, z)");
  const ConjunctiveQuery q_prime =
      *ParseQuery(catalog_, symbols_, "ans(x) :- T(x, '7', y), R(x, '7')");
  for (ChaseVariant variant :
       {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
    EngineConfig config;
    config.containment.variant = variant;
    config.enable_cache = false;
    ContainmentEngine engine(&catalog_, &symbols_, config);
    Result<EngineVerdict> got = engine.Check(q, q_prime, deps);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->report.contained);
    Chase chase(&catalog_, &symbols_, &deps, variant,
                config.containment.limits);
    ASSERT_TRUE(chase.Init(q).ok());
    Result<ContainmentReport> want =
        ReferenceLoop(chase, q_prime, deps, AnalyzeSigma(deps, catalog_),
                      config.containment);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(RenderReport(q_prime, got->report),
              RenderReport(q_prime, *want));
    // The witness uses the rewritten level-0 fact.
    EXPECT_EQ(want->witness_max_level, 0u);
    EXPECT_EQ(engine.stats().witness_searches, 2u);
  }
}

// Minimize and IsNonMinimal probe containment through one-shot chases;
// their answers must match probes decided by the reference loop.
TEST_F(WitnessSearchDifferentialTest, MinimizeProbesMatchReference) {
  for (const SigmaCase& sc : kSigmas) {
    if (sc.sigma_class == SigmaClass::kGeneral) continue;  // undecidable
    const DependencySet deps = Sigma(sc);
    const SigmaAnalysis analysis = AnalyzeSigma(deps, catalog_);
    EngineConfig config;
    config.containment.limits.max_level = 6;
    config.containment.limits.max_conjuncts = 400;
    config.route_streaming_single_conjunct = false;
    ContainmentEngine engine(&catalog_, &symbols_, config);
    // Reference containment of candidate in q, on a fresh chase.
    auto contained = [&](const ConjunctiveQuery& candidate,
                         const ConjunctiveQuery& q) -> Result<bool> {
      Chase chase(&catalog_, &symbols_, &deps, config.containment.variant,
                  config.containment.limits);
      CQCHASE_RETURN_IF_ERROR(chase.Init(candidate));
      CQCHASE_ASSIGN_OR_RETURN(
          ContainmentReport r,
          ReferenceLoop(chase, q, deps, analysis, config.containment));
      return r.contained;
    };
    auto without = [&](const ConjunctiveQuery& q, size_t skip) {
      ConjunctiveQuery out(&catalog_, &symbols_);
      for (size_t i = 0; i < q.conjuncts().size(); ++i) {
        if (i != skip) out.AddConjunct(q.conjuncts()[i]);
      }
      out.SetSummary(q.summary());
      return out;
    };
    auto keeps_safety = [](const ConjunctiveQuery& q, size_t skip) {
      for (Term t : q.summary()) {
        if (!t.is_dist_var()) continue;
        bool occurs = false;
        for (size_t i = 0; i < q.conjuncts().size(); ++i) {
          if (i == skip) continue;
          for (Term u : q.conjuncts()[i].terms) occurs = occurs || u == t;
        }
        if (!occurs) return false;
      }
      return true;
    };
    Rng rng(77 + static_cast<uint64_t>(sc.sigma_class));
    for (size_t n = 0; n < 6; ++n) {
      RandomQueryParams qp;
      qp.num_conjuncts = 3 + rng.Index(3);
      qp.num_vars = 3 + rng.Index(2);
      qp.name_prefix = StrCat("m", static_cast<int>(sc.sigma_class), "_", n,
                              "_");
      const ConjunctiveQuery q = RandomQuery(rng, catalog_, symbols_, qp);
      SCOPED_TRACE(StrCat("sigma class ", static_cast<int>(sc.sigma_class),
                          " query ", n));
      const uint64_t searches_before = engine.stats().witness_searches;

      // Greedy minimization, decided by the reference.
      ConjunctiveQuery want = q;
      bool want_ok = true;
      bool changed = true;
      while (changed && want_ok && !want.conjuncts().empty()) {
        changed = false;
        for (size_t i = 0; i < want.conjuncts().size(); ++i) {
          if (!keeps_safety(want, i)) continue;
          ConjunctiveQuery candidate = without(want, i);
          Result<bool> c = contained(candidate, want);
          if (!c.ok()) {
            want_ok = false;
            break;
          }
          if (*c) {
            want = std::move(candidate);
            changed = true;
            break;
          }
        }
      }
      Result<MinimizeReport> got = engine.Minimize(q, deps);
      ASSERT_EQ(got.ok(), want_ok) << (got.ok() ? "" : got.status().ToString());
      if (want_ok) {
        EXPECT_EQ(got->query.conjuncts(), want.conjuncts());
      }

      bool want_non_minimal = false;
      bool non_minimal_ok = true;
      for (size_t i = 0; i < q.conjuncts().size() && !want_non_minimal; ++i) {
        if (!keeps_safety(q, i)) continue;
        Result<bool> c = contained(without(q, i), q);
        if (!c.ok()) {
          non_minimal_ok = false;
          break;
        }
        want_non_minimal = *c;
      }
      Result<bool> got_non_minimal = engine.IsNonMinimal(q, deps);
      ASSERT_EQ(got_non_minimal.ok(), non_minimal_ok);
      if (non_minimal_ok) {
        EXPECT_EQ(*got_non_minimal, want_non_minimal);
      }
      if (sc.sigma_class != SigmaClass::kEmpty) {
        // The probes ran the chase loop (the empty Σ routes to the bare
        // homomorphism instead).
        EXPECT_GT(engine.stats().witness_searches, searches_before);
      }
    }
  }
}

}  // namespace
}  // namespace cqchase
