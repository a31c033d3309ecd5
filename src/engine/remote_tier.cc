#include "engine/remote_tier.h"

#include <algorithm>

#include "base/string_util.h"
#include "engine/lineage.h"

namespace cqchase {

// --- protocol helpers --------------------------------------------------------

std::string FrameTierMessage(const std::string& payload) {
  std::string out;
  wire::PutFramed(out, payload);
  return out;
}

Status UnframeTierMessage(const std::string& message, std::string* payload) {
  wire::ByteReader reader(message);
  CQCHASE_RETURN_IF_ERROR(wire::ReadFramed(reader, payload));
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after protocol message");
  }
  return Status::OK();
}

std::string BuildTierHello() {
  std::string hello;
  wire::PutU8(hello, kTierOpHello);
  wire::PutU32(hello, kTierProtocolVersion);
  return FrameTierMessage(hello);
}

Status ParseTierHelloResponse(const std::string& framed_response,
                              std::string_view peer,
                              uint64_t* peer_fingerprint) {
  std::string payload;
  CQCHASE_RETURN_IF_ERROR(UnframeTierMessage(framed_response, &payload));
  wire::ByteReader reader(payload);
  uint8_t op = 0;
  uint32_t peer_version = 0;
  if (!reader.ReadU8(&op) || op != kTierOpHello ||
      !reader.ReadU32(&peer_version) || !reader.ReadU64(peer_fingerprint) ||
      reader.remaining() != 0) {
    return Status::InvalidArgument(
        StrCat("peer ", std::string(peer), " sent a malformed hello response"));
  }
  if (peer_version != kTierProtocolVersion) {
    return Status::FailedPrecondition(
        StrCat("peer ", std::string(peer), " speaks tier protocol v",
               peer_version, "; this build speaks only v",
               kTierProtocolVersion));
  }
  return Status::OK();
}

namespace {

// Short aliases inside this translation unit.
std::string Frame(const std::string& payload) {
  return FrameTierMessage(payload);
}
Status Unframe(const std::string& message, std::string* payload) {
  return UnframeTierMessage(message, payload);
}

}  // namespace

// --- VerdictAuthority --------------------------------------------------------

VerdictAuthority::Options::Options() : fingerprint(StoreSchemaFingerprint()) {}

VerdictAuthority::VerdictAuthority(Options options)
    : options_(std::move(options)) {}

Status VerdictAuthority::Handle(const std::string& request,
                                std::string* response) {
  std::string payload;
  CQCHASE_RETURN_IF_ERROR(Unframe(request, &payload));
  wire::ByteReader reader(payload);
  uint8_t op = 0;
  if (!reader.ReadU8(&op)) {
    return Status::InvalidArgument("empty protocol message");
  }
  std::string reply;
  switch (op) {
    case kTierOpHello: {
      uint32_t version = 0;
      if (!reader.ReadU32(&version) || reader.remaining() != 0) {
        return Status::InvalidArgument("malformed hello");
      }
      // Always answer with our identity, even to a version we do not speak:
      // the client needs the numbers to report a useful mismatch, and it is
      // the client that refuses.
      wire::PutU8(reply, kTierOpHello);
      wire::PutU32(reply, kTierProtocolVersion);
      wire::PutU64(reply, options_.fingerprint);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hellos;
      break;
    }
    case kTierOpFetch: {
      std::string key;
      if (!reader.ReadString(&key) || reader.remaining() != 0) {
        return Status::InvalidArgument("malformed fetch");
      }
      wire::PutU8(reply, kTierOpFetch);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.fetches;
      auto it = map_.find(key);
      if (it == map_.end()) {
        wire::PutU8(reply, 0);
      } else {
        ++stats_.fetch_hits;
        wire::PutU8(reply, 1);
        EncodeVerdictEntry(it->first, it->second, reply);
      }
      break;
    }
    case kTierOpFetchMany: {
      uint32_t count = 0;
      if (!reader.ReadU32(&count)) {
        return Status::InvalidArgument("malformed fetch-many");
      }
      // The count is peer data: bound the reserve by what the payload could
      // possibly hold (a key string costs at least its 4-byte length prefix)
      // before trusting it; a lying count then fails the decode loop.
      std::vector<std::string> keys;
      keys.reserve(std::min<size_t>(count, reader.remaining() / 4));
      for (uint32_t i = 0; i < count; ++i) {
        std::string key;
        if (!reader.ReadString(&key)) {
          return Status::InvalidArgument("malformed fetch-many key");
        }
        keys.push_back(std::move(key));
      }
      if (reader.remaining() != 0) {
        return Status::InvalidArgument("trailing bytes after fetch-many");
      }
      // Response: the request's keys in order, each either the full verdict
      // entry (found=1; the entry carries the key, which the client
      // re-verifies) or the key echoed back (found=0 — the echo lets the
      // client bind each miss to its question even on a reordered/confused
      // peer).
      wire::PutU8(reply, kTierOpFetchMany);
      wire::PutU32(reply, static_cast<uint32_t>(keys.size()));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.fetch_many_requests;
      stats_.fetch_many_keys += keys.size();
      for (const auto& key : keys) {
        auto it = map_.find(key);
        if (it == map_.end()) {
          wire::PutU8(reply, 0);
          wire::PutString(reply, key);
        } else {
          ++stats_.fetch_many_hits;
          wire::PutU8(reply, 1);
          EncodeVerdictEntry(it->first, it->second, reply);
        }
      }
      break;
    }
    case kTierOpPublish: {
      uint32_t count = 0;
      if (!reader.ReadU32(&count)) {
        return Status::InvalidArgument("malformed publish");
      }
      // Decode the whole batch before touching the map: a frame that turns
      // out malformed at entry N must not have half-applied entries 1..N-1
      // (the client treats the error as "nothing landed" and requeues the
      // batch — the authority's state and stats must agree with that).
      // The count is peer data: bound the reserve by what the payload could
      // possibly hold (an entry is at least 37 bytes — same guard as the
      // snapshot loader) so a hostile count cannot become an allocation
      // blow-up; a lying count then simply fails the decode loop.
      std::vector<std::pair<std::string, StoredVerdict>> batch;
      batch.reserve(std::min<size_t>(count, reader.remaining() / 37));
      for (uint32_t i = 0; i < count; ++i) {
        std::string key;
        StoredVerdict verdict;
        CQCHASE_RETURN_IF_ERROR(DecodeVerdictEntry(reader, &key, &verdict));
        batch.emplace_back(std::move(key), verdict);
      }
      if (reader.remaining() != 0) {
        return Status::InvalidArgument("trailing bytes after publish batch");
      }
      uint64_t accepted = 0;
      // Indexes of batch entries that landed, remembered so the publish
      // sink (the daemon's store hook) runs *outside* mu_: the sink may do
      // I/O and must not serialize every concurrent fetch behind it.
      std::vector<size_t> landed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < batch.size(); ++i) {
          auto& [key, verdict] = batch[i];
          ++stats_.publishes;
          if (options_.max_entries > 0 &&
              map_.size() >= options_.max_entries &&
              map_.find(key) == map_.end()) {
            continue;  // refused at the cap; the accepted count tells the peer
          }
          if (map_.emplace(key, verdict).second) {
            ++accepted;
            if (options_.publish_sink) landed.push_back(i);
          }
        }
        stats_.publishes_accepted += accepted;
      }
      for (size_t i : landed) {
        options_.publish_sink(batch[i].first, batch[i].second);
      }
      wire::PutU8(reply, kTierOpPublish);
      wire::PutU64(reply, accepted);
      break;
    }
    case kTierOpApplyDelta: {
      LineageDelta ld;
      CQCHASE_RETURN_IF_ERROR(DecodeLineageDelta(reader, &ld));
      if (reader.remaining() != 0) {
        return Status::InvalidArgument("trailing bytes after apply-delta");
      }
      const DeltaReceipt receipt = ApplyDelta(ld);
      wire::PutU8(reply, kTierOpApplyDelta);
      wire::PutU64(reply, receipt.examined);
      wire::PutU64(reply, receipt.kept_exact);
      wire::PutU64(reply, receipt.kept_monotone);
      wire::PutU64(reply, receipt.dropped);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrCat("unknown protocol opcode ", int{op}));
  }
  *response = Frame(reply);
  return Status::OK();
}

DeltaReceipt VerdictAuthority::ApplyDelta(const LineageDelta& ld) {
  DeltaReceipt receipt;
  if (ld.empty()) return receipt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Untouched entries first, survivors second, so an entry computed
    // directly under the new Σ always keeps the rekeyed slot (it is at
    // least as precise) — regardless of map iteration order.
    std::unordered_map<std::string, StoredVerdict> next;
    next.reserve(map_.size());
    std::vector<std::pair<std::string, StoredVerdict>> survivors;
    for (auto& [key, verdict] : map_) {
      std::string rekeyed;
      const RetagDecision decision =
          ApplyVerdictDelta(ld, key, verdict, &rekeyed);
      receipt.Count(decision);
      switch (decision) {
        case RetagDecision::kUntouched:
          next.emplace(key, std::move(verdict));
          break;
        case RetagDecision::kKeepExact:
        case RetagDecision::kKeepMonotone:
          survivors.emplace_back(std::move(rekeyed), std::move(verdict));
          break;
        case RetagDecision::kDrop:
          break;
      }
    }
    for (auto& [key, verdict] : survivors) {
      next.emplace(std::move(key), std::move(verdict));
    }
    map_ = std::move(next);
    ++stats_.apply_deltas;
    stats_.delta_retagged += receipt.retagged();
    stats_.delta_dropped += receipt.dropped;
  }
  // Outside mu_ like publish_sink: the daemon's store migration does I/O
  // and must not serialize every concurrent fetch behind it.
  if (options_.apply_delta_sink) options_.apply_delta_sink(ld);
  return receipt;
}

void VerdictAuthority::Put(const std::string& key,
                           const StoredVerdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  map_[key] = verdict;
}

std::optional<StoredVerdict> VerdictAuthority::Lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

size_t VerdictAuthority::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

VerdictAuthority::Stats VerdictAuthority::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- RemoteTier --------------------------------------------------------------

RemoteTier::RemoteTier(std::shared_ptr<VerdictTransport> transport,
                       RemoteTierOptions options, uint64_t peer_fingerprint)
    : transport_(std::move(transport)),
      options_(options),
      peer_fingerprint_(peer_fingerprint),
      name_(StrCat("remote:", std::string(transport_->Peer()))) {
  stats_.name = name_;
}

Result<std::unique_ptr<RemoteTier>> RemoteTier::Connect(
    std::shared_ptr<VerdictTransport> transport, RemoteTierOptions options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("RemoteTier::Connect: null transport");
  }
  std::string response;
  CQCHASE_RETURN_IF_ERROR(transport->RoundTrip(BuildTierHello(), &response));
  uint64_t peer_fingerprint = 0;
  CQCHASE_RETURN_IF_ERROR(
      ParseTierHelloResponse(response, transport->Peer(), &peer_fingerprint));
  // Fingerprint mismatch is NOT an error here: the tier reports the peer's
  // value and TierStack assembly applies the spec's refuse/quarantine
  // policy — one place owns that decision.
  return std::unique_ptr<RemoteTier>(
      new RemoteTier(std::move(transport), options, peer_fingerprint));
}

RemoteTier::~RemoteTier() {
  // Best effort, mirroring VerdictStore's close-time flush: whatever the
  // write-behind task had not shipped yet gets one last chance.
  Flush();
}

void RemoteTier::RememberNegativeLocked(const std::string& key) {
  if (options_.negative_ttl.count() <= 0) return;
  const auto expiry = std::chrono::steady_clock::now() + options_.negative_ttl;
  if (negative_.emplace(key, expiry).second) {
    negative_order_.push_back(key);
    // Bound on the *deque*, not the map: keys leave negative_ early (TTL
    // expiry, Publish of a decided key) while their shed-order entry stays
    // behind, so bounding on negative_.size() would let the deque grow
    // without limit. Shedding a stale entry is a harmless no-op erase; a
    // refreshed key may be shed early — conservative, never wrong.
    while (negative_order_.size() > options_.negative_capacity) {
      negative_.erase(negative_order_.front());
      negative_order_.pop_front();
    }
  } else {
    negative_[key] = expiry;
  }
}

std::optional<StoredVerdict> RemoteTier::Lookup(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.lookups;
    // A verdict this tier buffered but has not shipped yet (peer down,
    // flush pending) is still this tier's to serve — exactly like the local
    // store's pending entries, and much cheaper than the recompute a
    // transport miss would trigger.
    auto pit = pending_.find(key);
    if (pit != pending_.end()) {
      ++stats_.hits;
      return pit->second;
    }
    auto it = negative_.find(key);
    if (it != negative_.end()) {
      if (std::chrono::steady_clock::now() < it->second) {
        // Known-unknown, still fresh: spare the transport. The TTL bounds how
        // long this answer can lag the authority learning the verdict.
        ++stats_.negative_hits;
        return std::nullopt;
      }
      negative_.erase(it);
      ++stats_.negatives_expired;
    }
  }
  // The round trip runs outside mu_: a slow peer must not serialize every
  // other lookup (or the flush) behind this one.
  std::string request_payload;
  wire::PutU8(request_payload, kTierOpFetch);
  wire::PutString(request_payload, key);
  std::string response;
  Status sent = transport_->RoundTrip(Frame(request_payload), &response);

  std::string payload;
  uint8_t op = 0;
  uint8_t found = 0;
  std::string peer_key;
  StoredVerdict verdict;
  bool hit = false;
  bool malformed = false;
  if (sent.ok()) {
    if (!Unframe(response, &payload).ok()) {
      malformed = true;
    } else {
      wire::ByteReader r(payload);
      if (!r.ReadU8(&op) || op != kTierOpFetch || !r.ReadU8(&found) ||
          found > 1) {
        malformed = true;
      } else if (found == 1) {
        // The entry decode range-validates every enum; additionally the key
        // must be the one we asked about — a confused peer's answer for a
        // different key would be a *wrong* verdict, the one failure a cache
        // may never have.
        if (!DecodeVerdictEntry(r, &peer_key, &verdict).ok() ||
            r.remaining() != 0 || peer_key != key) {
          malformed = true;
        } else {
          hit = true;
        }
      } else if (r.remaining() != 0) {
        malformed = true;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  if (!sent.ok() || malformed) {
    // Unreachable or confused peer: degrade to a miss and back off via the
    // negative cache — cold, never wrong, and not hammering a dead link.
    ++stats_.transport_errors;
    RememberNegativeLocked(key);
    return std::nullopt;
  }
  if (!hit) {
    RememberNegativeLocked(key);
    return std::nullopt;
  }
  ++stats_.hits;
  return verdict;
}

std::vector<std::optional<StoredVerdict>> RemoteTier::LookupMany(
    const std::vector<std::string>& keys) {
  std::vector<std::optional<StoredVerdict>> out(keys.size());
  // Indexes that must go over the wire; everything else is answered locally
  // (pending publishes are hits, fresh negative entries are misses — the
  // stampede guard: a burst of known-unknown keys costs zero round trips).
  std::vector<size_t> need;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.lookups += keys.size();
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& key = keys[i];
      auto pit = pending_.find(key);
      if (pit != pending_.end()) {
        ++stats_.hits;
        out[i] = pit->second;
        continue;
      }
      auto it = negative_.find(key);
      if (it != negative_.end()) {
        if (now < it->second) {
          ++stats_.negative_hits;
          continue;  // fresh known-unknown: stays a miss, spares the wire
        }
        negative_.erase(it);
        ++stats_.negatives_expired;
      }
      need.push_back(i);
    }
  }
  if (need.empty()) return out;

  const size_t cap =
      options_.max_batch_keys > 0 ? options_.max_batch_keys : need.size();
  for (size_t pos = 0; pos < need.size();) {
    const size_t chunk = std::min(cap, need.size() - pos);
    std::string payload;
    wire::PutU8(payload, kTierOpFetchMany);
    wire::PutU32(payload, static_cast<uint32_t>(chunk));
    for (size_t j = 0; j < chunk; ++j) {
      wire::PutString(payload, keys[need[pos + j]]);
    }
    std::string response;
    Status sent = transport_->RoundTrip(Frame(payload), &response);

    // Decode the whole chunk before accepting any of it: a frame that turns
    // malformed at entry N poisons the entries before it too (a confused
    // peer's "hits" are not trustworthy), so the chunk degrades to misses
    // wholesale.
    std::vector<std::optional<StoredVerdict>> got(chunk);
    bool malformed = false;
    if (sent.ok()) {
      std::string reply;
      if (!Unframe(response, &reply).ok()) {
        malformed = true;
      } else {
        wire::ByteReader r(reply);
        uint8_t op = 0;
        uint32_t count = 0;
        if (!r.ReadU8(&op) || op != kTierOpFetchMany || !r.ReadU32(&count) ||
            count != chunk) {
          malformed = true;
        } else {
          for (size_t j = 0; j < chunk; ++j) {
            // Every answer must bind to the key we asked at this position:
            // a hit carries the key inside its entry, a miss echoes it. A
            // swapped or invented key would be a *wrong* verdict — the one
            // failure a cache may never have.
            const std::string& want = keys[need[pos + j]];
            uint8_t found = 0;
            if (!r.ReadU8(&found) || found > 1) {
              malformed = true;
              break;
            }
            if (found == 1) {
              std::string peer_key;
              StoredVerdict verdict;
              if (!DecodeVerdictEntry(r, &peer_key, &verdict).ok() ||
                  peer_key != want) {
                malformed = true;
                break;
              }
              got[j] = verdict;
            } else {
              std::string echo;
              if (!r.ReadString(&echo) || echo != want) {
                malformed = true;
                break;
              }
            }
          }
          if (!malformed && r.remaining() != 0) malformed = true;
        }
      }
    }

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fetches;
    ++stats_.batched_fetches;
    stats_.batched_keys += chunk;
    if (!sent.ok() || malformed) {
      // Unreachable or confused peer: the whole chunk degrades to misses
      // and enters the negative cache, so the burst (and its retries) backs
      // off instead of stampeding a dead or hostile authority.
      ++stats_.transport_errors;
      for (size_t j = 0; j < chunk; ++j) {
        RememberNegativeLocked(keys[need[pos + j]]);
      }
    } else {
      for (size_t j = 0; j < chunk; ++j) {
        if (got[j].has_value()) {
          ++stats_.hits;
          out[need[pos + j]] = std::move(got[j]);
        } else {
          RememberNegativeLocked(keys[need[pos + j]]);
        }
      }
    }
    pos += chunk;
  }
  return out;
}

bool RemoteTier::Publish(const std::string& key, const StoredVerdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  // The key is decided now; a stale "unknown" must not outlive that.
  auto neg = negative_.find(key);
  if (neg != negative_.end()) negative_.erase(neg);
  if (pending_.size() >= options_.max_pending) {
    ++stats_.publishes_dropped;
    return false;
  }
  if (!pending_.emplace(key, verdict).second) return false;
  ++stats_.publishes;
  return true;
}

Status RemoteTier::Flush() {
  std::vector<std::pair<std::string, StoredVerdict>> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    batch.reserve(pending_.size());
    for (auto& [key, verdict] : pending_) batch.emplace_back(key, verdict);
    pending_.clear();
  }

  std::string payload;
  wire::PutU8(payload, kTierOpPublish);
  wire::PutU32(payload, static_cast<uint32_t>(batch.size()));
  for (const auto& [key, verdict] : batch) {
    EncodeVerdictEntry(key, verdict, payload);
  }
  std::string response;
  Status sent = transport_->RoundTrip(Frame(payload), &response);
  std::string reply;
  uint8_t op = 0;
  uint64_t accepted = 0;
  if (sent.ok()) {
    Status unframed = Unframe(response, &reply);
    if (unframed.ok()) {
      wire::ByteReader r(reply);
      if (!r.ReadU8(&op) || op != kTierOpPublish || !r.ReadU64(&accepted) ||
          r.remaining() != 0) {
        sent = Status::InvalidArgument("malformed publish response");
      }
    } else {
      sent = unframed;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!sent.ok()) {
    ++stats_.flush_failures;
    ++stats_.transport_errors;
    // Requeue for a later flush — but inside the max_pending bound:
    // publishers may have refilled the buffer while the round trip failed,
    // and the cap is a memory contract, not a best wish. Entries that no
    // longer fit are shed (counted; a remote tier is a cache, not a
    // ledger); entries published meanwhile win the emplace (they are
    // identical by the purity argument anyway).
    for (auto& [key, verdict] : batch) {
      if (pending_.size() >= options_.max_pending &&
          pending_.find(key) == pending_.end()) {
        ++stats_.publishes_dropped;
        continue;
      }
      pending_.emplace(key, verdict);
    }
    return sent;
  }
  ++stats_.flushes;
  return Status::OK();
}

VerdictTierStats RemoteTier::Stats() const {
  // Transport counters first (its own lock) — never nested under mu_.
  const VerdictTransportStats transport = transport_->TransportStats();
  std::lock_guard<std::mutex> lock(mu_);
  VerdictTierStats s = stats_;
  s.entries = pending_.size();  // locally resident = awaiting ship-out
  s.reconnects = transport.reconnects;
  return s;
}

DeltaReceipt RemoteTier::ApplyDelta(const LineageDelta& ld) {
  DeltaReceipt receipt;
  if (ld.empty()) return receipt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The negative cache goes wholesale, not per-key: a remembered
    // "authority does not know this key" is a pre-edit observation, and the
    // migration it races (this one, or another engine's) may teach the
    // authority exactly the keys we remembered as unknown. Before this,
    // a Σ edit-and-revert could pin a stale known-miss until its TTL.
    negative_.clear();
    negative_order_.clear();
    // Migrate the pending publish buffer locally — these entries are this
    // tier's resident state (they serve Lookup) and would otherwise ship
    // old-Σ keys to the authority on the next Flush. Untouched entries
    // first, survivors second: a pending entry computed directly under the
    // new Σ keeps the rekeyed slot whatever the iteration order.
    std::unordered_map<std::string, StoredVerdict> keep;
    keep.reserve(pending_.size());
    std::vector<std::pair<std::string, StoredVerdict>> survivors;
    for (auto& [key, verdict] : pending_) {
      std::string rekeyed;
      const RetagDecision decision =
          ApplyVerdictDelta(ld, key, verdict, &rekeyed);
      receipt.Count(decision);
      switch (decision) {
        case RetagDecision::kUntouched:
          keep.emplace(key, std::move(verdict));
          break;
        case RetagDecision::kKeepExact:
        case RetagDecision::kKeepMonotone:
          survivors.emplace_back(std::move(rekeyed), std::move(verdict));
          break;
        case RetagDecision::kDrop:
          break;
      }
    }
    for (auto& [key, verdict] : survivors) {
      keep.emplace(std::move(key), std::move(verdict));
    }
    pending_ = std::move(keep);
  }

  std::string payload;
  wire::PutU8(payload, kTierOpApplyDelta);
  EncodeLineageDelta(ld, payload);
  std::string response;
  Status sent = transport_->RoundTrip(Frame(payload), &response);
  DeltaReceipt remote;
  bool malformed = false;
  if (sent.ok()) {
    std::string reply;
    if (!Unframe(response, &reply).ok()) {
      malformed = true;
    } else {
      wire::ByteReader r(reply);
      uint8_t op = 0;
      if (!r.ReadU8(&op) || op != kTierOpApplyDelta ||
          !r.ReadU64(&remote.examined) || !r.ReadU64(&remote.kept_exact) ||
          !r.ReadU64(&remote.kept_monotone) || !r.ReadU64(&remote.dropped) ||
          r.remaining() != 0) {
        malformed = true;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!sent.ok() || malformed) {
    // Unreachable or confused peer: the authority keeps (unreachable) old-Σ
    // entries — stale bytes, never wrong answers here — and a future
    // session's delta can still migrate them.
    ++stats_.transport_errors;
    return receipt;
  }
  receipt.Add(remote);
  return receipt;
}

void RemoteTier::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  negative_.clear();
  negative_order_.clear();
}

bool RemoteTier::HasPendingWrites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty();
}

}  // namespace cqchase
