#include "engine/tier.h"

#include <unordered_set>
#include <utility>

#include "base/string_util.h"
#include "engine/remote_tier.h"

namespace cqchase {

// --- LruTier -----------------------------------------------------------------

std::optional<StoredVerdict> LruTier::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  if (StoredVerdict* hit = cache_.Get(key)) {
    ++hits_;
    return *hit;
  }
  return std::nullopt;
}

bool LruTier::Publish(const std::string& key, const StoredVerdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.capacity() == 0) return false;  // knob-off tier accepts nothing
  // The interface contract counts *new* entries only (an overwrite of a
  // resident key is a re-statement: refresh recency, report nothing), so
  // per-tier publish counters mean the same thing across backends.
  const bool is_new = cache_.Get(key) == nullptr;
  cache_.Put(key, verdict);
  if (is_new) ++publishes_;
  return is_new;
}

VerdictTierStats LruTier::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerdictTierStats s;
  s.name = "lru";
  s.entries = cache_.size();
  s.lookups = lookups_;
  s.hits = hits_;
  s.publishes = publishes_;
  return s;
}

DeltaReceipt LruTier::ApplyDelta(const LineageDelta& ld) {
  DeltaReceipt receipt;
  if (ld.empty()) return receipt;
  std::lock_guard<std::mutex> lock(mu_);
  // Drain, retag, and re-insert survivors back-to-front: Put makes each key
  // most-recent, so walking the drained list from its LRU end reconstructs
  // the original recency order exactly — a migration must not reshuffle
  // which entries the next eviction picks.
  auto drained = cache_.Drain();
  for (auto it = drained.rbegin(); it != drained.rend(); ++it) {
    auto& [key, verdict] = *it;
    std::string rekeyed;
    const RetagDecision decision = ApplyVerdictDelta(ld, key, verdict, &rekeyed);
    receipt.Count(decision);
    switch (decision) {
      case RetagDecision::kUntouched:
        cache_.Put(key, std::move(verdict));
        break;
      case RetagDecision::kKeepExact:
      case RetagDecision::kKeepMonotone:
        // A survivor never displaces an entry already re-inserted at its
        // rekeyed slot — that can only be a direct new-Σ incumbent, which
        // is at least as precise. (The reverse order is handled by Put's
        // overwrite: an untouched incumbent drained *after* the survivor
        // replaces it.)
        if (!cache_.Contains(rekeyed)) cache_.Put(rekeyed, std::move(verdict));
        break;
      case RetagDecision::kDrop:
        break;
    }
  }
  return receipt;
}

void LruTier::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
}

// --- LocalStoreTier ----------------------------------------------------------

LocalStoreTier::LocalStoreTier(std::unique_ptr<VerdictStore> store)
    : store_(std::move(store)), name_(StrCat("store:", store_->dir())) {}

std::optional<StoredVerdict> LocalStoreTier::Lookup(const std::string& key) {
  std::optional<StoredVerdict> hit = store_->Lookup(key);
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  if (hit.has_value()) ++hits_;
  return hit;
}

bool LocalStoreTier::Publish(const std::string& key,
                             const StoredVerdict& verdict) {
  // Insert-if-absent: a verdict is a pure function of its key, so a repeat
  // publish (a promotion from a remote hit, a certificate re-decide) must
  // not append a duplicate log frame.
  if (!store_->PutIfAbsent(key, verdict)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ++publishes_;
  return true;
}

Status LocalStoreTier::Flush() {
  const bool had_pending = store_->has_pending();
  Status status = store_->Flush();
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    ++flush_failures_;
  } else if (had_pending) {
    ++flushes_;
  }
  return status;
}

VerdictTierStats LocalStoreTier::Stats() const {
  const VerdictStoreStats store_stats = store_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  VerdictTierStats s;
  s.name = name_;
  s.entries = store_stats.entries;
  s.lookups = lookups_;
  s.hits = hits_;
  s.publishes = publishes_;
  s.flushes = flushes_;
  s.flush_failures = flush_failures_;
  return s;
}

// --- TierStack ---------------------------------------------------------------

namespace {

// Builds the backend a spec describes; Assemble quarantines the tier on any
// error.
Result<std::unique_ptr<VerdictTier>> BuildTier(const TierSpec& spec) {
  switch (spec.kind) {
    case TierSpec::Kind::kLru:
      return std::unique_ptr<VerdictTier>(
          std::make_unique<LruTier>(spec.capacity));
    case TierSpec::Kind::kLocalStore: {
      if (spec.path.empty()) {
        return Status::InvalidArgument("local-store tier has an empty path");
      }
      VerdictStoreOptions options;
      options.max_entries = spec.store_max_entries;
      CQCHASE_ASSIGN_OR_RETURN(std::unique_ptr<VerdictStore> store,
                               VerdictStore::Open(spec.path, options));
      return std::unique_ptr<VerdictTier>(
          std::make_unique<LocalStoreTier>(std::move(store)));
    }
    case TierSpec::Kind::kRemote: {
      if (spec.transport == nullptr) {
        return Status::InvalidArgument("remote tier has a null transport");
      }
      RemoteTierOptions options;
      options.negative_ttl = spec.remote_negative_ttl;
      CQCHASE_ASSIGN_OR_RETURN(
          std::unique_ptr<RemoteTier> tier,
          RemoteTier::Connect(spec.transport, options));
      return std::unique_ptr<VerdictTier>(std::move(tier));
    }
  }
  return Status::InvalidArgument("unknown tier kind");
}

std::string SpecName(const TierSpec& spec) {
  switch (spec.kind) {
    case TierSpec::Kind::kLru:
      return "lru";
    case TierSpec::Kind::kLocalStore:
      return StrCat("store:", spec.path);
    case TierSpec::Kind::kRemote:
      return spec.transport == nullptr
                 ? std::string("remote:<null>")
                 : StrCat("remote:", std::string(spec.transport->Peer()));
  }
  return "unknown";
}

}  // namespace

std::unique_ptr<TierStack> TierStack::Assemble(
    const std::vector<TierSpec>& specs) {
  std::unique_ptr<TierStack> stack(new TierStack());
  stack->descriptors_.reserve(specs.size());
  for (const TierSpec& spec : specs) {
    TierDescriptor desc;
    desc.kind = spec.kind;
    desc.name = SpecName(spec);

    Result<std::unique_ptr<VerdictTier>> built = BuildTier(spec);
    Status problem = built.ok() ? Status::OK() : built.status();
    if (problem.ok()) {
      // The handshake proper: a tier whose fingerprint disagrees with this
      // build speaks a different canonical-key scheme or entry layout, and
      // serving it would let keys of *different* tasks collide. Quarantine
      // it — never serve.
      const uint64_t theirs = (*built)->Fingerprint();
      const uint64_t ours = StoreSchemaFingerprint();
      if (theirs != ours) {
        problem = Status::FailedPrecondition(StrCat(
            "tier ", desc.name, " schema fingerprint ", theirs,
            " does not match this build's ", ours,
            " (canonical-key scheme or verdict layout drift); tier disabled"));
      }
    }
    if (!problem.ok()) {
      desc.active = false;
      desc.status = problem;
      stack->descriptors_.push_back(std::move(desc));
      continue;
    }
    desc.active = true;
    stack->actives_.emplace_back(*std::move(built), stack->descriptors_.size());
    stack->descriptors_.push_back(std::move(desc));
  }
  while (stack->local_tiers_ < stack->actives_.size() &&
         stack->descriptors_[stack->actives_[stack->local_tiers_].second]
                 .kind != TierSpec::Kind::kRemote) {
    ++stack->local_tiers_;
  }
  return stack;
}

std::optional<TierStack::LookupResult> TierStack::Lookup(const std::string& key,
                                                         Probe probe) {
  const size_t begin = probe == Probe::kRest ? local_tiers_ : 0;
  const size_t end = probe == Probe::kLocal ? local_tiers_ : actives_.size();
  for (size_t a = begin; a < end; ++a) {
    const size_t di = actives_[a].second;
    std::optional<StoredVerdict> hit = actives_[a].first->Lookup(key);
    if (!hit.has_value()) continue;

    LookupResult result;
    result.verdict = *hit;
    result.tier_index = di;
    result.kind = descriptors_[di].kind;
    // Promote into every cheaper tier so the next asker stops earlier.
    // Durable tiers buffer the promotion; the caller schedules the
    // write-behind flush when we report buffered bytes.
    for (size_t b = 0; b < a; ++b) {
      if (actives_[b].first->Publish(key, *hit) &&
          actives_[b].first->HasPendingWrites()) {
        result.buffered_writes = true;
      }
    }
    return result;
  }
  return std::nullopt;
}

TierStack::PrefetchReceipt TierStack::Prefetch(
    const std::vector<std::string>& keys) {
  PrefetchReceipt receipt;
  // Deduplicate while preserving first-seen order: a SubmitAll burst of
  // isomorphic tasks collapses onto few canonical keys, and the authority
  // should be asked each one once.
  std::vector<std::string> remaining;
  remaining.reserve(keys.size());
  {
    std::unordered_set<std::string> seen;
    seen.reserve(keys.size());
    for (const auto& key : keys) {
      if (seen.insert(key).second) remaining.push_back(key);
    }
  }
  receipt.keys = remaining.size();

  for (size_t a = 0; a < actives_.size() && !remaining.empty(); ++a) {
    std::vector<std::optional<StoredVerdict>> answers =
        actives_[a].first->LookupMany(remaining);
    std::vector<std::string> still_cold;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (i >= answers.size() || !answers[i].has_value()) {
        still_cold.push_back(std::move(remaining[i]));
        continue;
      }
      ++receipt.resolved;
      // Same promotion as Lookup's: the hit lands in every cheaper tier,
      // so the burst's actual Lookups stop at the LRU.
      for (size_t b = 0; b < a; ++b) {
        if (actives_[b].first->Publish(remaining[i], *answers[i]) &&
            actives_[b].first->HasPendingWrites()) {
          receipt.buffered_writes = true;
        }
      }
    }
    remaining = std::move(still_cold);
  }
  return receipt;
}

TierStack::PublishReceipt TierStack::Publish(const std::string& key,
                                             const StoredVerdict& verdict) {
  PublishReceipt receipt;
  for (auto& [tier, di] : actives_) {
    (void)di;
    if (tier->Publish(key, verdict)) {
      ++receipt.accepted;
      if (tier->HasPendingWrites()) receipt.buffered_writes = true;
    }
  }
  return receipt;
}

DeltaReceipt TierStack::ApplyDelta(const LineageDelta& ld) {
  DeltaReceipt total;
  if (ld.empty()) return total;
  for (auto& [tier, di] : actives_) {
    (void)di;
    total.Add(tier->ApplyDelta(ld));
  }
  return total;
}

Status TierStack::Flush() {
  Status first_failure;
  for (auto& [tier, di] : actives_) {
    (void)di;
    Status s = tier->Flush();
    if (!s.ok() && first_failure.ok()) first_failure = s;
  }
  return first_failure;
}

void TierStack::Clear() {
  for (auto& [tier, di] : actives_) {
    (void)di;
    tier->Clear();
  }
}

std::vector<VerdictTierStats> TierStack::Stats() const {
  std::vector<VerdictTierStats> out;
  out.reserve(actives_.size());
  for (const auto& [tier, di] : actives_) {
    (void)di;
    out.push_back(tier->Stats());
  }
  return out;
}

VerdictStore* TierStack::local_store() const {
  for (const auto& [tier, di] : actives_) {
    if (descriptors_[di].kind == TierSpec::Kind::kLocalStore) {
      return static_cast<LocalStoreTier*>(tier.get())->store();
    }
  }
  return nullptr;
}

size_t TierStack::lru_entries() const {
  for (const auto& [tier, di] : actives_) {
    if (descriptors_[di].kind == TierSpec::Kind::kLru) {
      return tier->Stats().entries;
    }
  }
  return 0;
}

bool TierStack::HasPendingWrites() const {
  for (const auto& [tier, di] : actives_) {
    (void)di;
    if (tier->HasPendingWrites()) return true;
  }
  return false;
}

}  // namespace cqchase
