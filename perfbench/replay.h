// The traced run's replay: each request the engine answered is run again,
// on the client thread, through the same public entry points in the order
// ContainmentEngine::Execute calls them, with a span around every call.
// The replay runs on replica state — its own verdict tiers (own store
// directory, own authority) fed the same set-up — so it should take the
// branch the engine reported; the caller counts the requests where it does
// not.
//
// Tiers are driven one by one rather than through TierStack, replicating
// its probe/promote/fan-out order, so each tier gets its own span.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/containment.h"
#include "engine/remote_tier.h"
#include "engine/sigma_class.h"
#include "engine/tier.h"
#include "harness.h"

namespace perfbench {

using cqchase::DecisionStrategy;
using cqchase::TierSpec;

// Which tier served a verdict, or kNone for a fresh decision.
enum class HitKind { kNone, kLru, kStore, kRemote };

// Decorates a transport with a "net.rtt" span around every round trip.
class TimedTransport final : public cqchase::VerdictTransport {
 public:
  explicit TimedTransport(std::shared_ptr<cqchase::VerdictTransport> inner)
      : inner_(std::move(inner)) {}
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  cqchase::Status RoundTrip(const std::string& request,
                            std::string* response) override {
    ScopedSpan span(recorder_, "net.rtt");
    return inner_->RoundTrip(request, response);
  }
  std::string_view Peer() const override { return inner_->Peer(); }

 private:
  std::shared_ptr<cqchase::VerdictTransport> inner_;
  SpanRecorder* recorder_ = nullptr;
};

struct ReplicaTier {
  TierSpec::Kind kind;
  std::unique_ptr<cqchase::VerdictTier> tier;
};

struct ReplayResult {
  cqchase::Status status;
  bool contained = false;
  HitKind hit = HitKind::kNone;
  DecisionStrategy strategy = DecisionStrategy::kHomomorphism;
  size_t key_bytes = 0;
  bool chased = false;
  uint32_t chase_levels = 0;
  cqchase::ChaseStats chase_stats;
};

class Replica {
 public:
  Replica(const cqchase::Catalog* catalog, cqchase::SymbolTable* symbols,
          cqchase::ContainmentOptions options, bool route_streaming,
          std::vector<ReplicaTier> tiers);

  // Spans go to `recorder` (null: replay without recording).
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  ReplayResult Replay(const cqchase::ConjunctiveQuery& q,
                      const cqchase::ConjunctiveQuery& q_prime,
                      const cqchase::DependencySet& deps,
                      bool want_certificate);

  // The engine's write-behind flush, run inline: one span per tier that
  // holds buffered writes.
  void FlushPending();

  // EvolveSigma's work: the lineage delta, then every tier's ApplyDelta.
  cqchase::DeltaReceipt Evolve(const cqchase::DependencySet& old_deps,
                               const cqchase::DependencySet& new_deps);

  // Compacts the local-store tier, if any (what closing the store does).
  void CompactStore();

 private:
  cqchase::Result<cqchase::ContainmentReport> DecideByChase(
      const cqchase::ConjunctiveQuery& q,
      const cqchase::ConjunctiveQuery& q_prime,
      const cqchase::DependencySet& deps,
      const cqchase::SigmaAnalysis& analysis, bool want_certificate,
      ReplayResult& out);

  const cqchase::Catalog* catalog_;
  cqchase::SymbolTable* symbols_;
  const cqchase::ContainmentOptions options_;
  const bool route_streaming_;
  std::vector<ReplicaTier> tiers_;
  SpanRecorder* recorder_ = nullptr;
  std::unordered_map<std::string, cqchase::SigmaAnalysis> sigma_memo_;
  // Used-dependency fingerprints of the last chase, for its publish.
  std::vector<uint64_t> lineage_fps_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
