#include "replay.h"

#include <algorithm>
#include <utility>

#include "analysis/delta.h"
#include "core/certificate.h"
#include "core/homomorphism.h"
#include "core/pspace.h"
#include "engine/canonical.h"
#include "engine/lineage.h"

namespace perfbench {

using cqchase::ChaseOutcome;
using cqchase::ConjunctiveQuery;
using cqchase::ContainmentReport;
using cqchase::DependencySet;
using cqchase::Status;
using cqchase::StatusCode;

namespace {

const char* LookupSpan(TierSpec::Kind kind) {
  switch (kind) {
    case TierSpec::Kind::kLru: return "tier.lru_lookup";
    case TierSpec::Kind::kLocalStore: return "store.lookup";
    case TierSpec::Kind::kRemote: return "remote.lookup";
  }
  return "?";
}

const char* PublishSpan(TierSpec::Kind kind) {
  switch (kind) {
    case TierSpec::Kind::kLru: return "tier.lru_publish";
    case TierSpec::Kind::kLocalStore: return "store.publish";
    case TierSpec::Kind::kRemote: return "remote.publish";
  }
  return "?";
}

const char* FlushSpan(TierSpec::Kind kind) {
  return kind == TierSpec::Kind::kRemote ? "remote.flush" : "store.flush";
}

const char* ApplyDeltaSpan(TierSpec::Kind kind) {
  switch (kind) {
    case TierSpec::Kind::kLru: return "lineage.apply_delta.lru";
    case TierSpec::Kind::kLocalStore: return "lineage.apply_delta.store";
    case TierSpec::Kind::kRemote: return "lineage.apply_delta.remote";
  }
  return "?";
}

HitKind HitOf(TierSpec::Kind kind) {
  switch (kind) {
    case TierSpec::Kind::kLru: return HitKind::kLru;
    case TierSpec::Kind::kLocalStore: return HitKind::kStore;
    case TierSpec::Kind::kRemote: return HitKind::kRemote;
  }
  return HitKind::kNone;
}

uint32_t WitnessMaxLevel(const cqchase::Homomorphism& hom,
                         const std::vector<const cqchase::ChaseConjunct*>& alive) {
  uint32_t max_level = 0;
  for (size_t fi : hom.conjunct_images) {
    if (fi < alive.size()) max_level = std::max(max_level, alive[fi]->level);
  }
  return max_level;
}

}  // namespace

Replica::Replica(const cqchase::Catalog* catalog,
                 cqchase::SymbolTable* symbols,
                 cqchase::ContainmentOptions options, bool route_streaming,
                 std::vector<ReplicaTier> tiers)
    : catalog_(catalog),
      symbols_(symbols),
      options_(std::move(options)),
      route_streaming_(route_streaming),
      tiers_(std::move(tiers)) {}

ReplayResult Replica::Replay(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             const DependencySet& deps,
                             bool want_certificate) {
  ReplayResult out;
  {
    ScopedSpan span(recorder_, "validate");
    out.status = q.Validate();
    if (out.status.ok()) out.status = q_prime.Validate();
    if (out.status.ok() && q.summary().size() != q_prime.summary().size()) {
      out.status = Status::InvalidArgument("output arity mismatch");
    }
  }
  if (!out.status.ok()) return out;

  cqchase::SigmaAnalysis analysis;
  {
    std::string sigma_key;
    {
      ScopedSpan span(recorder_, "canonical.sigma_key");
      sigma_key = cqchase::CanonicalSigmaKey(deps);
    }
    auto it = sigma_memo_.find(sigma_key);
    if (it != sigma_memo_.end()) {
      analysis = it->second;
    } else {
      ScopedSpan span(recorder_, "sigma.analyze");
      analysis = cqchase::AnalyzeSigma(deps, *catalog_);
      sigma_memo_.emplace(std::move(sigma_key), analysis);
    }
  }

  std::string key;
  {
    ScopedSpan span(recorder_, "canonical.task_key");
    key = cqchase::CanonicalTaskKey(q, q_prime, deps, options_.variant);
  }
  out.key_bytes = key.size();

  if (!want_certificate) {
    for (size_t a = 0; a < tiers_.size(); ++a) {
      std::optional<cqchase::StoredVerdict> hit;
      {
        ScopedSpan span(recorder_, LookupSpan(tiers_[a].kind));
        hit = tiers_[a].tier->Lookup(key);
        if (tiers_[a].kind == TierSpec::Kind::kRemote) {
          span.Rename(hit.has_value() ? "remote.hit" : "remote.miss");
        }
      }
      if (!hit.has_value()) continue;
      // Promotion into every cheaper tier, as TierStack::Lookup does.
      for (size_t b = 0; b < a; ++b) {
        ScopedSpan span(recorder_, PublishSpan(tiers_[b].kind));
        tiers_[b].tier->Publish(key, *hit);
      }
      out.hit = HitOf(tiers_[a].kind);
      out.contained = hit->contained;
      out.strategy = static_cast<DecisionStrategy>(hit->strategy);
      return out;
    }
  }

  // DecideUncached's routing.
  std::optional<DecisionStrategy> strategy = cqchase::ChooseStrategy(
      analysis, q_prime, options_.allow_semidecision, route_streaming_);
  if (!strategy.has_value()) {
    out.status = Status::Unimplemented("general Σ without semi-decision");
    return out;
  }
  if (*strategy == DecisionStrategy::kStreamingFrontier && q.is_empty_query()) {
    strategy = DecisionStrategy::kIterativeDeepening;
  }
  if (want_certificate && (*strategy == DecisionStrategy::kHomomorphism ||
                           *strategy == DecisionStrategy::kStreamingFrontier)) {
    strategy = DecisionStrategy::kIterativeDeepening;
  }
  out.strategy = *strategy;

  ContainmentReport report;
  if (*strategy == DecisionStrategy::kHomomorphism && !q.is_empty_query()) {
    ScopedSpan span(recorder_, "core.homomorphism");
    report.chase_conjuncts = q.conjuncts().size();
    report.chase_outcome = ChaseOutcome::kSaturated;
    if (!q_prime.is_empty_query()) {
      report.contained = cqchase::FindHomomorphism(q_prime, q.conjuncts(),
                                                   q.summary())
                             .has_value();
    }
  } else if (*strategy == DecisionStrategy::kStreamingFrontier) {
    cqchase::StreamingContainmentOptions sopt;
    sopt.max_level = options_.limits.max_level;
    sopt.max_frontier = options_.limits.max_conjuncts;
    cqchase::Result<cqchase::StreamingContainmentReport> streamed =
        Status::Internal("unset");
    {
      ScopedSpan span(recorder_, "core.pspace");
      streamed = cqchase::StreamingSingleConjunctContainment(
          q, q_prime, deps, *symbols_, sopt);
    }
    if (streamed.ok()) {
      report.contained = streamed->contained;
      report.level_bound = cqchase::Theorem2LevelBound(
          q_prime.conjuncts().size(), deps.size(), deps.MaxIndWidth());
      report.chase_conjuncts = streamed->conjuncts_streamed;
      report.chase_levels = streamed->decided_at_level;
    } else if (streamed.status().code() == StatusCode::kResourceExhausted) {
      out.strategy = DecisionStrategy::kIterativeDeepening;
      cqchase::Result<ContainmentReport> r =
          DecideByChase(q, q_prime, deps, analysis, want_certificate, out);
      if (!r.ok()) {
        out.status = r.status();
        return out;
      }
      report = *std::move(r);
    } else {
      out.status = streamed.status();
      return out;
    }
  } else {
    cqchase::Result<ContainmentReport> r =
        DecideByChase(q, q_prime, deps, analysis, want_certificate, out);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    report = *std::move(r);
  }
  out.contained = report.contained;

  // Execute's publish: the stored verdict, tagged with Σ's fingerprint and
  // (for chase strategies, captured in DecideByChase) the used-dependency
  // lineage.
  cqchase::StoredVerdict stored;
  stored.contained = report.contained;
  stored.chase_outcome = static_cast<uint8_t>(report.chase_outcome);
  stored.sigma_class = static_cast<uint8_t>(analysis.sigma_class);
  stored.strategy = static_cast<uint8_t>(out.strategy);
  stored.witness_max_level = report.witness_max_level;
  stored.chase_levels = report.chase_levels;
  stored.level_bound = report.level_bound;
  stored.chase_conjuncts = report.chase_conjuncts;
  stored.certified = want_certificate && report.contained;
  stored.certificate_depth = stored.certified ? report.witness_max_level : 0;
  {
    ScopedSpan span(recorder_, "delta.fingerprint");
    stored.sigma_fp = cqchase::SigmaFingerprint(deps);
  }
  if (out.chased) {
    stored.lineage_known = true;
    stored.used_fps = std::move(lineage_fps_);
  }
  for (ReplicaTier& t : tiers_) {
    ScopedSpan span(recorder_, PublishSpan(t.kind));
    t.tier->Publish(key, stored);
  }
  return out;
}

cqchase::Result<ContainmentReport> Replica::DecideByChase(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const cqchase::SigmaAnalysis& analysis,
    bool want_certificate, ReplayResult& out) {
  // The engine keys its shared chase prefix by Σ's canonical key (a third
  // render per miss) and chases a private copy of Σ.
  {
    ScopedSpan span(recorder_, "canonical.sigma_key");
    (void)cqchase::CanonicalSigmaKey(deps);
  }
  std::unique_ptr<DependencySet> owned;
  std::optional<cqchase::Chase> chase;
  {
    ScopedSpan span(recorder_, "chase.init");
    owned = std::make_unique<DependencySet>(deps);
    chase.emplace(&q.catalog(), symbols_, owned.get(), options_.variant,
                  options_.limits);
    Status init = chase->Init(q);
    if (!init.ok()) return init;
  }
  out.chased = true;

  ContainmentReport report;
  report.level_bound = cqchase::Theorem2LevelBound(
      q_prime.conjuncts().size(), deps.size(), deps.MaxIndWidth());
  uint64_t bound = report.level_bound;
  const bool bound_is_complete = analysis.decidable;
  if (analysis.sigma_class == cqchase::SigmaClass::kAcyclicInd &&
      analysis.acyclic_ind_depth.has_value()) {
    bound = *analysis.acyclic_ind_depth;
    report.level_bound = bound;
  }

  std::optional<cqchase::Homomorphism> witness;
  auto search_witness = [&]() {
    if (q_prime.is_empty_query()) return false;
    ScopedSpan span(recorder_, "core.homomorphism");
    std::vector<const cqchase::ChaseConjunct*> alive = chase->AliveConjuncts();
    std::vector<cqchase::Fact> facts;
    facts.reserve(alive.size());
    for (const cqchase::ChaseConjunct* c : alive) facts.push_back(c->fact);
    witness = cqchase::FindHomomorphism(q_prime, facts, chase->summary());
    if (!witness.has_value()) return false;
    report.chase_conjuncts = alive.size();
    report.chase_levels = chase->MaxAliveLevel();
    report.contained = true;
    report.witness_max_level = WitnessMaxLevel(*witness, alive);
    return true;
  };

  cqchase::Result<ContainmentReport> result = [&]() -> cqchase::Result<ContainmentReport> {
    uint32_t level = 0;
    while (true) {
      cqchase::Result<ChaseOutcome> expanded = Status::Internal("unset");
      {
        ScopedSpan span(recorder_, "chase.expand");
        expanded = chase->ExpandToLevel(level);
      }
      if (!expanded.ok()) {
        if (expanded.status().code() == StatusCode::kResourceExhausted &&
            search_witness()) {
          return report;
        }
        return expanded.status();
      }
      report.chase_outcome = *expanded;
      report.chase_conjuncts = chase->AliveConjuncts().size();
      report.chase_levels = chase->MaxAliveLevel();
      if (*expanded == ChaseOutcome::kEmptyQuery) {
        report.contained = true;
        return report;
      }
      if (search_witness()) return report;
      if (*expanded == ChaseOutcome::kSaturated) return report;
      if (bound_is_complete && level >= bound) return report;
      if (level >= options_.limits.max_level) {
        return Status::ResourceExhausted("undecided at max_level");
      }
      const uint32_t next = level + options_.level_stride;
      level = static_cast<uint32_t>(std::min<uint64_t>(
          std::min<uint64_t>(next, options_.limits.max_level),
          bound_is_complete ? std::max<uint64_t>(bound, 1) : next));
    }
  }();

  if (want_certificate && result.ok() && result->contained &&
      !chase->is_empty_query() && witness.has_value()) {
    ScopedSpan span(recorder_, "core.certificate");
    (void)cqchase::ExtractCertificateFromChase(*chase, *witness);
  }
  out.chase_stats = chase->chase_stats();
  out.chase_levels = chase->MaxAliveLevel();
  if (result.ok()) {
    ScopedSpan span(recorder_, "delta.fingerprint");
    lineage_fps_ = cqchase::UsedDependencyFingerprints(
        deps, chase->used_inds(), chase->used_fds());
  }
  return result;
}

void Replica::FlushPending() {
  for (ReplicaTier& t : tiers_) {
    if (!t.tier->HasPendingWrites()) continue;
    ScopedSpan span(recorder_, FlushSpan(t.kind));
    (void)t.tier->Flush();
  }
}

cqchase::DeltaReceipt Replica::Evolve(const DependencySet& old_deps,
                                      const DependencySet& new_deps) {
  cqchase::DeltaReceipt receipt;
  cqchase::LineageDelta ld;
  {
    ScopedSpan span(recorder_, "delta.compute");
    ld = cqchase::MakeLineageDelta(old_deps, new_deps);
  }
  if (ld.empty()) return receipt;
  sigma_memo_.clear();
  for (ReplicaTier& t : tiers_) {
    ScopedSpan span(recorder_, ApplyDeltaSpan(t.kind));
    receipt.Add(t.tier->ApplyDelta(ld));
  }
  return receipt;
}

void Replica::CompactStore() {
  for (ReplicaTier& t : tiers_) {
    if (t.kind != TierSpec::Kind::kLocalStore) continue;
    auto* store_tier = static_cast<cqchase::LocalStoreTier*>(t.tier.get());
    ScopedSpan span(recorder_, "store.compact");
    (void)store_tier->store()->Compact();
  }
}

}  // namespace perfbench
