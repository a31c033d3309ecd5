#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "base/rng.h"
#include "base/string_util.h"
#include "core/certificate.h"
#include "cq/cq_parser.h"
#include "engine/sigma_class.h"
#include "gen/generators.h"

namespace perfbench {

using cqchase::Fact;
using cqchase::FunctionalDependency;
using cqchase::InclusionDependency;
using cqchase::RelationId;
using cqchase::Rng;
using cqchase::SigmaClass;
using cqchase::StrCat;

namespace {

std::shared_ptr<const ConjunctiveQuery> Share(ConjunctiveQuery q) {
  return std::make_shared<const ConjunctiveQuery>(std::move(q));
}

ConjunctiveQuery Parse(Universe& u, const std::string& text) {
  cqchase::Result<ConjunctiveQuery> q =
      cqchase::ParseQuery(*u.catalog, *u.symbols, text);
  if (!q.ok()) {
    std::fprintf(stderr, "perfbench: bad generated query %s: %s\n",
                 text.c_str(), q.status().ToString().c_str());
    std::abort();
  }
  return *std::move(q);
}

// Q' cut down to one conjunct that still holds every summary variable (the
// first conjunct PlantedSuperQuery emits covers the summary by
// construction). Dropping conjuncts of a contained Q' keeps it contained.
std::optional<ConjunctiveQuery> SingleConjunct(const ConjunctiveQuery& qp) {
  for (const Fact& f : qp.conjuncts()) {
    bool covers = true;
    for (cqchase::Term t : qp.summary()) {
      if (t.is_variable() &&
          std::find(f.terms.begin(), f.terms.end(), t) == f.terms.end()) {
        covers = false;
      }
    }
    if (!covers) continue;
    ConjunctiveQuery out(&qp.catalog(), &qp.symbols());
    out.AddConjunct(f);
    out.SetSummary(qp.summary());
    if (out.Validate().ok()) return out;
  }
  return std::nullopt;
}

}  // namespace

// --- warm_wide / schema_evolve -----------------------------------------------

ChainInputs MakeChainInputs(uint64_t seed, size_t chains) {
  ChainInputs in;
  Rng rng(seed);
  // Relation ids follow a seed-chosen creation order, so a different seed
  // renders different canonical keys for the same chain structure.
  std::vector<size_t> slots(3 * chains);
  std::iota(slots.begin(), slots.end(), 0);
  std::shuffle(slots.begin(), slots.end(), rng.engine());
  std::vector<RelationId> rel(3 * chains);
  const char* role = "ABC";
  for (size_t slot : slots) {
    rel[slot] = *in.u.catalog->AddRelation(
        StrCat(std::string(1, role[slot % 3]), slot / 3), {"x", "y"});
  }
  std::vector<InclusionDependency> all;
  for (size_t c = 0; c < chains; ++c) {
    const RelationId a = rel[3 * c];
    const RelationId b = rel[3 * c + 1];
    const RelationId cc = rel[3 * c + 2];
    all.push_back(InclusionDependency{a, {0}, b, {0}});
    in.bc.push_back(InclusionDependency{b, {0}, cc, {0}});
    all.push_back(in.bc.back());
  }
  std::shuffle(all.begin(), all.end(), rng.engine());
  DependencySet full;
  for (InclusionDependency& ind : all) (void)full.AddInd(*in.u.catalog, ind);
  in.full = std::make_shared<const DependencySet>(std::move(full));

  for (size_t c = 0; c < chains; ++c) {
    // Two conjuncts keep both tasks off the single-conjunct streaming route.
    Task yes;
    yes.id = static_cast<uint32_t>(2 * c);
    yes.q = Share(Parse(in.u, StrCat("ans(x) :- A", c, "(x, y)")));
    yes.q_prime = Share(Parse(in.u, StrCat("ans(x) :- C", c, "(x, z)")));
    yes.deps = in.full;
    yes.expected = 1;
    in.tasks.push_back(yes);
    Task no = yes;
    no.id = static_cast<uint32_t>(2 * c + 1);
    no.q = Share(Parse(in.u, StrCat("ans(x) :- C", c, "(x, y)")));
    no.q_prime = Share(Parse(in.u, StrCat("ans(x) :- A", c, "(x, z)")));
    no.expected = 0;
    in.tasks.push_back(no);
  }
  return in;
}

DependencySet WithoutBc(const ChainInputs& in, size_t chain) {
  const InclusionDependency& drop = in.bc[chain];
  DependencySet out;
  for (const FunctionalDependency& fd : in.full->fds()) {
    (void)out.AddFd(*in.u.catalog, fd);
  }
  for (const InclusionDependency& ind : in.full->inds()) {
    if (ind.lhs_relation == drop.lhs_relation &&
        ind.rhs_relation == drop.rhs_relation &&
        ind.lhs_columns == drop.lhs_columns &&
        ind.rhs_columns == drop.rhs_columns) {
      continue;
    }
    (void)out.AddInd(*in.u.catalog, ind);
  }
  return out;
}

// --- cold_mixed ----------------------------------------------------------------

namespace {

constexpr SigmaClass kColdClasses[] = {
    SigmaClass::kEmpty, SigmaClass::kFdOnly, SigmaClass::kIndOnlyW1,
    SigmaClass::kKeyBased, SigmaClass::kAcyclicInd};
constexpr size_t kTasksPerSigma = 8;
constexpr size_t kMaxSigmaSize = 8;

// Fixed small schema R(a,b), S(a,b,c), T(a,b), U(a,b,c): a key-based Σ (one
// key FD per non-key column) stays within kMaxSigmaSize.
void AddColdSchema(Catalog& catalog) {
  (void)catalog.AddRelation("R", {"a", "b"});
  (void)catalog.AddRelation("S", {"a", "b", "c"});
  (void)catalog.AddRelation("T", {"a", "b"});
  (void)catalog.AddRelation("U", {"a", "b", "c"});
}

// Width-1 INDs with pairwise distinct left-hand relations: every chase fact
// has at most one IND to fire, so a cyclic Σ grows the chase by at most |Q|
// conjuncts per level instead of exponentially.
DependencySet OneOutIndSet(Rng& rng, const Catalog& catalog, size_t count) {
  std::vector<RelationId> lhs(catalog.num_relations());
  std::iota(lhs.begin(), lhs.end(), 0);
  std::shuffle(lhs.begin(), lhs.end(), rng.engine());
  lhs.resize(std::min(count, lhs.size()));
  DependencySet deps;
  for (RelationId l : lhs) {
    InclusionDependency ind;
    ind.lhs_relation = l;
    ind.rhs_relation = static_cast<RelationId>(rng.Index(catalog.num_relations()));
    ind.lhs_columns = {static_cast<uint32_t>(rng.Index(catalog.arity(l)))};
    ind.rhs_columns = {
        static_cast<uint32_t>(rng.Index(catalog.arity(ind.rhs_relation)))};
    if (ind.lhs_relation == ind.rhs_relation &&
        ind.lhs_columns == ind.rhs_columns) {
      continue;  // trivial
    }
    (void)deps.AddInd(catalog, ind);
  }
  return deps;
}

// True when no relation is the left-hand side of two INDs.
bool OneOut(const DependencySet& deps) {
  std::vector<RelationId> lhs;
  for (const InclusionDependency& ind : deps.inds()) lhs.push_back(ind.lhs_relation);
  std::sort(lhs.begin(), lhs.end());
  return std::adjacent_find(lhs.begin(), lhs.end()) == lhs.end();
}

FunctionalDependency RandomFd(Rng& rng, const Catalog& catalog) {
  FunctionalDependency fd;
  fd.relation = static_cast<RelationId>(rng.Index(catalog.num_relations()));
  const size_t arity = catalog.arity(fd.relation);
  const uint32_t lhs = static_cast<uint32_t>(rng.Index(arity));
  uint32_t rhs = static_cast<uint32_t>(rng.Index(arity - 1));
  if (rhs >= lhs) ++rhs;
  fd.lhs = {lhs};
  fd.rhs = rhs;
  fd.Normalize();
  return fd;
}

// FD+IND mix whose IND reliance graph is acyclic: width-1 INDs only from a
// lower to a higher relation id, plus FDs that are not keys.
DependencySet AcyclicMix(Rng& rng, const Catalog& catalog) {
  DependencySet deps;
  const size_t n = catalog.num_relations();
  const size_t inds = 2 + rng.Index(2);
  for (size_t i = 0; i < inds; ++i) {
    const RelationId lo = static_cast<RelationId>(rng.Index(n - 1));
    const RelationId hi =
        static_cast<RelationId>(lo + 1 + rng.Index(n - 1 - lo));
    InclusionDependency ind{
        lo, {static_cast<uint32_t>(rng.Index(catalog.arity(lo)))},
        hi, {static_cast<uint32_t>(rng.Index(catalog.arity(hi)))}};
    (void)deps.AddInd(catalog, ind);
  }
  const size_t fds = 1 + rng.Index(2);
  for (size_t i = 0; i < fds; ++i) (void)deps.AddFd(catalog, RandomFd(rng, catalog));
  return deps;
}

DependencySet SigmaOfClass(Rng& rng, const Catalog& catalog, SigmaClass want) {
  for (;;) {
    DependencySet deps;
    switch (want) {
      case SigmaClass::kEmpty:
        return deps;
      case SigmaClass::kFdOnly: {
        const size_t fds = 1 + rng.Index(3);
        for (size_t i = 0; i < fds; ++i) (void)deps.AddFd(catalog, RandomFd(rng, catalog));
        break;
      }
      case SigmaClass::kIndOnlyW1:
        deps = OneOutIndSet(rng, catalog, 2 + rng.Index(3));
        break;
      case SigmaClass::kKeyBased: {
        cqchase::RandomKeyBasedParams p;
        p.key_size = 1;
        p.num_inds = 1 + rng.Index(2);
        deps = cqchase::RandomKeyBasedDeps(rng, catalog, p);
        break;
      }
      default:
        deps = AcyclicMix(rng, catalog);
        break;
    }
    // Every class keeps at most one IND leaving each relation (see
    // OneOutIndSet), so no draw makes the chase grow exponentially.
    if (deps.size() <= kMaxSigmaSize && OneOut(deps) &&
        cqchase::AnalyzeSigma(deps, catalog).sigma_class == want) {
      return deps;
    }
  }
}

// Generates `count` tasks into `out`, drawing Σ round-robin over the classes.
void GenerateCold(Rng& rng, Universe& u, size_t count, const char* prefix,
                  size_t* certified_counter, std::vector<Task>& out) {
  std::shared_ptr<const DependencySet> deps;
  SigmaClass cls = SigmaClass::kEmpty;
  for (size_t i = 0; i < count; ++i) {
    if (i % kTasksPerSigma == 0) {
      cls = kColdClasses[(i / kTasksPerSigma) % std::size(kColdClasses)];
      deps = std::make_shared<const DependencySet>(
          SigmaOfClass(rng, *u.catalog, cls));
    }
    Task t;
    t.id = static_cast<uint32_t>(out.size());
    t.deps = deps;
    cqchase::RandomQueryParams qp;
    qp.num_conjuncts = 4;
    qp.num_vars = 4;
    qp.name_prefix = StrCat(prefix, i, "q");
    ConjunctiveQuery q = cqchase::RandomQuery(rng, *u.catalog, *u.symbols, qp);
    const bool single = cls == SigmaClass::kIndOnlyW1 && (i / 2) % 2 == 0;
    std::optional<ConjunctiveQuery> q_prime;
    if (i % 2 == 0) {
      cqchase::Result<ConjunctiveQuery> planted = cqchase::PlantedSuperQuery(
          rng, q, *deps, *u.symbols, /*extra_conjuncts=*/2, /*chase_depth=*/2);
      if (planted.ok()) {
        q_prime = single ? SingleConjunct(*planted) : std::move(*planted);
        if (q_prime.has_value()) t.expected = 1;
      }
    }
    if (!q_prime.has_value()) {
      cqchase::RandomQueryParams rp;
      rp.num_conjuncts = single ? 1 : 2;
      rp.num_vars = 3;
      rp.name_prefix = StrCat(prefix, i, "p");
      q_prime = cqchase::RandomQuery(rng, *u.catalog, *u.symbols, rp);
    }
    t.q = Share(std::move(q));
    t.q_prime = Share(*std::move(q_prime));
    if (cqchase::CertifiableSigma(*deps, *u.catalog) &&
        ++*certified_counter % 13 == 0) {
      t.want_certificate = true;  // 4 of 5 classes certify: ~1 in 16 overall
    }
    out.push_back(std::move(t));
  }
}

}  // namespace

PoolInputs MakeColdMixedInputs(uint64_t seed, size_t tasks, size_t warmup) {
  PoolInputs in;
  AddColdSchema(*in.u.catalog);
  size_t certified = 0;
  Rng rng(seed);
  GenerateCold(rng, in.u, tasks, "c", &certified, in.tasks);
  Rng warm_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  size_t warm_certified = 0;
  GenerateCold(warm_rng, in.u, warmup, "w", &warm_certified, in.warmup);
  return in;
}

// --- fleet_rw ------------------------------------------------------------------

namespace {

void GenerateFleet(Rng& rng, Universe& u,
                   const std::shared_ptr<const DependencySet>& deps,
                   size_t count, const char* prefix, std::vector<Task>& out) {
  for (size_t i = 0; i < count; ++i) {
    Task t;
    t.id = static_cast<uint32_t>(i);
    t.deps = deps;
    cqchase::RandomQueryParams qp;
    qp.num_conjuncts = 5;
    qp.num_vars = 6;
    qp.name_prefix = StrCat(prefix, i, "q");
    ConjunctiveQuery q = cqchase::RandomQuery(rng, *u.catalog, *u.symbols, qp);
    std::optional<ConjunctiveQuery> q_prime;
    if (i % 2 == 1) {
      cqchase::Result<ConjunctiveQuery> planted = cqchase::PlantedSuperQuery(
          rng, q, *deps, *u.symbols, /*extra_conjuncts=*/2, /*chase_depth=*/2);
      if (planted.ok()) {
        q_prime = *std::move(planted);
        t.expected = 1;
      }
    }
    if (!q_prime.has_value()) {
      cqchase::RandomQueryParams rp;
      rp.num_conjuncts = 2;
      rp.num_vars = 4;
      rp.name_prefix = StrCat(prefix, i, "p");
      q_prime = cqchase::RandomQuery(rng, *u.catalog, *u.symbols, rp);
    }
    t.q = Share(std::move(q));
    t.q_prime = Share(*std::move(q_prime));
    out.push_back(std::move(t));
  }
}

}  // namespace

FleetInputs MakeFleetInputs(uint64_t seed, size_t local, size_t peer,
                            size_t fresh) {
  FleetInputs in;
  Rng rng(seed);
  // One fixed Σ, so every seed costs the same per decision: the width-1 IND
  // chain R -> S -> T -> U. Its chase saturates within three levels, so a
  // fresh decision stays cheap next to the tier and network work this
  // workload is about.
  AddColdSchema(*in.u.catalog);
  DependencySet deps;
  const InclusionDependency chain[] = {
      {0, {0}, 1, {0}}, {1, {1}, 2, {0}}, {2, {1}, 3, {0}}};
  for (const InclusionDependency& ind : chain) (void)deps.AddInd(*in.u.catalog, ind);
  in.deps = std::make_shared<const DependencySet>(std::move(deps));
  GenerateFleet(rng, in.u, in.deps, local, "l", in.local);
  GenerateFleet(rng, in.u, in.deps, peer, "p", in.peer);
  GenerateFleet(rng, in.u, in.deps, fresh, "f", in.fresh);
  return in;
}

}  // namespace perfbench
