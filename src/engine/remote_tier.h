// RemoteTier: a verdict tier whose backing map lives on another party — "the
// log, shipped" (ROADMAP). Canonical task keys are location-independent and
// StoredVerdict is already a versioned wire format, so sharing verdicts
// between engines is a small fetch/publish protocol, not a new subsystem.
//
// The pieces:
//
//   VerdictTransport   — one round trip of length-prefixed bytes. The
//                        protocol lives entirely above this seam, so a TCP
//                        (or UDS, or RDMA) transport is a drop-in: implement
//                        RoundTrip, keep everything else.
//   InProcessTransport — the loopback shipped today: calls a
//                        VerdictAuthority in the same process directly. Two
//                        engines in one process (or one test) share a
//                        verdict authority with zero sockets.
//   VerdictAuthority   — the server half: an in-memory canonical-key →
//                        verdict map answering hello/fetch/publish. Its
//                        fingerprint is configurable so tests can exercise
//                        the mismatch path.
//   RemoteTier         — the client half, implementing VerdictTier:
//                        Lookup fetches over the transport, Publish buffers
//                        and Flush ships the batch (write-behind, like the
//                        local store's append log).
//
// Protocol: every message is one wire::PutFramed record (u32 length + u64
// FNV-1a checksum + payload); the payload starts with a u8 opcode. A hello
// exchange runs at connect: the peer reports its protocol version and its
// StoreSchemaFingerprint, and TierStack assembly refuses or quarantines the
// tier on mismatch (engine/tier.h) — verdicts never flow between parties
// that disagree on the key scheme.
//
// One version: the client states kTierProtocolVersion in the hello, the peer
// answers with its own, and any other number than ours is refused at
// Connect. Every opcode below is spoken by every peer that gets past hello.
//
// Negative entries: a fetch miss ("authority does not know this key") is
// remembered locally for RemoteTierOptions::negative_ttl, so a hot unknown
// key does not hammer the transport — but only for the TTL, so a peer can
// never pin "unknown" forever once the authority learns the verdict.
// Transport errors degrade to misses the same way: a tier that cannot
// answer is cold, never wrong.
#ifndef CQCHASE_ENGINE_REMOTE_TIER_H_
#define CQCHASE_ENGINE_REMOTE_TIER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "engine/serialize.h"
#include "engine/tier.h"

namespace cqchase {

// Version of the fetch/publish message layer. Bump on any change to the
// opcodes or their bodies; a peer stating any other version is refused at
// hello. History (only the current version is spoken):
//   1 — hello / fetch / publish
//   2 — kTierOpFetchMany batched fetch
//   3 — kTierOpApplyDelta schema-delta migration
inline constexpr uint32_t kTierProtocolVersion = 3;

// Opcodes (first payload byte; responses echo their request's opcode).
inline constexpr uint8_t kTierOpHello = 1;
inline constexpr uint8_t kTierOpFetch = 2;
inline constexpr uint8_t kTierOpPublish = 3;
inline constexpr uint8_t kTierOpFetchMany = 4;
inline constexpr uint8_t kTierOpApplyDelta = 5;

// Upper bound on one protocol message (framed). Shared by every transport
// and the authority server: a length prefix past this is a confused or
// hostile peer, rejected before any allocation. Generous for the real
// payloads: a verdict entry is dominated by its canonical key, which embeds
// the Σ key, so it runs from ~230 bytes on a 3-IND Σ to ~5.4 KB on a
// 300-IND one; a 16 MiB frame holds ~3k entries of the latter.
inline constexpr size_t kTierMaxFrameBytes = 16u << 20;

// Monotone transport-level counters, surfaced through RemoteTier::Stats so
// bench records capture wire behavior (reconnect churn, dead-peer errors)
// per tier. In-process transports keep the all-zero default.
struct VerdictTransportStats {
  uint64_t round_trips = 0;  // RoundTrip calls that reached the wire
  uint64_t errors = 0;       // failed round trips (incl. backoff fast-fails)
  uint64_t connects = 0;     // successful connection + handshake sequences
  uint64_t reconnects = 0;   // connects after the first (link was lost)
};

// One request/response round trip of framed bytes. Implementations must be
// thread-safe (lookups and the write-behind flush run on different executor
// workers) and must either deliver the peer's complete response or return a
// non-OK status — a short read is an error, never a truncated answer.
class VerdictTransport {
 public:
  virtual ~VerdictTransport() = default;

  // Sends one framed message, receives one framed reply into `*response`
  // (overwritten, not appended).
  virtual Status RoundTrip(const std::string& request,
                           std::string* response) = 0;

  // Stable label for tier names and diagnostics ("loopback", "tcp:host").
  virtual std::string_view Peer() const = 0;

  // Wire-level counters; the default (all zero) suits in-process transports.
  virtual VerdictTransportStats TransportStats() const { return {}; }
};

// --- protocol helpers (shared by the tier, the TCP transport and the
// --- authority server) -------------------------------------------------------

// Frames one payload as a complete protocol message.
std::string FrameTierMessage(const std::string& payload);

// Unframes one message; the protocol is one frame per message, so trailing
// bytes mean a confused peer and the message is rejected wholesale.
Status UnframeTierMessage(const std::string& message, std::string* payload);

// The framed hello request this build sends (opcode + kTierProtocolVersion).
std::string BuildTierHello();

// Parses a framed hello response; `peer` labels the error message. Refuses
// malformed payloads and any version other than kTierProtocolVersion (the
// error names both numbers); fingerprint judgment is the caller's (TierStack
// assembly owns that policy).
Status ParseTierHelloResponse(const std::string& framed_response,
                              std::string_view peer,
                              uint64_t* peer_fingerprint);

// The authority half of the protocol: holds the shared verdict map and
// answers hello/fetch/publish. Thread-safe; one authority typically serves
// many transports/engines.
class VerdictAuthority {
 public:
  struct Options {
    // Reported at hello. Overridable so tests can stand in for a peer built
    // against a different canonical-key scheme; production authorities keep
    // the default (this build's fingerprint).
    uint64_t fingerprint;
    // Map bound; publishes past it are refused (accepted count in the
    // response says how many landed). 0 = unbounded.
    uint64_t max_entries = 0;
    // Called once per *accepted* publish entry, outside the authority's
    // lock — the hook a daemon uses to back the map with a VerdictStore.
    // Must be thread-safe; must outlive every Handle call.
    std::function<void(const std::string& key, const StoredVerdict& verdict)>
        publish_sink;
    // Called once per applied schema delta, outside the authority's lock and
    // after the in-memory map is migrated — the hook a daemon uses to drive
    // the same delta through its backing VerdictStore. Same lifetime and
    // thread-safety contract as publish_sink.
    std::function<void(const LineageDelta& ld)> apply_delta_sink;
    Options();
  };

  explicit VerdictAuthority(Options options = Options());

  // Decodes one framed request, dispatches, encodes the framed response.
  // Non-OK only for bytes that do not decode as a protocol message — a
  // well-formed fetch of an unknown key is a successful "not found".
  Status Handle(const std::string& request, std::string* response);

  // Direct server-side access (seeding, inspection; bypasses the protocol).
  void Put(const std::string& key, const StoredVerdict& verdict);
  std::optional<StoredVerdict> Lookup(const std::string& key) const;
  size_t size() const;

  // Migrates the authority's map per the survival rules (engine/lineage.h):
  // what kTierOpApplyDelta dispatches to, also callable directly by a
  // colocated owner. Runs apply_delta_sink (if set) after the map flips.
  DeltaReceipt ApplyDelta(const LineageDelta& ld);

  struct Stats {
    uint64_t hellos = 0;
    uint64_t fetches = 0;            // single-key fetch requests
    uint64_t fetch_hits = 0;
    uint64_t fetch_many_requests = 0;  // batched fetch round trips served
    uint64_t fetch_many_keys = 0;      // keys asked across those batches
    uint64_t fetch_many_hits = 0;
    uint64_t publishes = 0;          // entries offered by publish requests
    uint64_t publishes_accepted = 0; // newly inserted (dedup + cap refusals
                                     // excluded)
    uint64_t apply_deltas = 0;       // schema deltas applied to the map
    uint64_t delta_retagged = 0;     // entries that survived a delta
    uint64_t delta_dropped = 0;      // entries a delta invalidated
  };
  Stats stats() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, StoredVerdict> map_;
  Stats stats_;
};

// The loopback transport: RoundTrip calls the authority synchronously in
// this process. What a TCP transport will do with a socket, this does with
// a function call — the tier above cannot tell the difference.
class InProcessTransport final : public VerdictTransport {
 public:
  explicit InProcessTransport(std::shared_ptr<VerdictAuthority> authority)
      : authority_(std::move(authority)) {}

  Status RoundTrip(const std::string& request, std::string* response) override {
    return authority_->Handle(request, response);
  }
  std::string_view Peer() const override { return "loopback"; }

 private:
  std::shared_ptr<VerdictAuthority> authority_;
};

struct RemoteTierOptions {
  // How long a fetch miss (or transport error) is served from the local
  // negative cache before the key is fetched again. 0 = every lookup goes to
  // the transport.
  std::chrono::milliseconds negative_ttl{250};
  // Bound on remembered negative entries (oldest shed first).
  size_t negative_capacity = 4096;
  // Bound on buffered publishes awaiting Flush (newest refused past it,
  // counted in publishes_dropped — the authority just misses those entries;
  // a remote tier is a cache, not a ledger).
  size_t max_pending = 1 << 16;
  // Bound on keys per kTierOpFetchMany round trip; a LookupMany past it
  // splits into multiple batches. Keeps one burst's frame well under
  // kTierMaxFrameBytes with room for large canonical keys.
  size_t max_batch_keys = 512;
};

class RemoteTier final : public VerdictTier {
 public:
  // Runs the hello handshake on `transport`. Fails on transport errors and
  // on a peer that states any protocol version but kTierProtocolVersion; a
  // *fingerprint* mismatch succeeds here and is judged at TierStack
  // assembly (Fingerprint() reports what the peer said), so the stack's
  // refuse/quarantine policy owns that decision.
  static Result<std::unique_ptr<RemoteTier>> Connect(
      std::shared_ptr<VerdictTransport> transport,
      RemoteTierOptions options = {});

  // Best-effort final flush (matches the local store's close behavior).
  ~RemoteTier() override;

  std::string_view Name() const override { return name_; }
  std::optional<StoredVerdict> Lookup(const std::string& key) override;
  // Batched lookup: pending/negative-cached keys are answered locally, the
  // rest go over the wire in kTierOpFetchMany chunks of at most
  // options_.max_batch_keys.
  // Missed keys — including whole chunks lost to transport errors — enter
  // the negative cache, so a burst can't stampede the authority.
  std::vector<std::optional<StoredVerdict>> LookupMany(
      const std::vector<std::string>& keys) override;
  bool Publish(const std::string& key, const StoredVerdict& verdict) override;
  Status Flush() override;
  VerdictTierStats Stats() const override;
  uint64_t Fingerprint() const override { return peer_fingerprint_; }
  // Always clears the negative cache (a remembered "authority does not know
  // this key" predates the edit and must not outlive it) and migrates the
  // pending publish buffer locally, then ships the delta to the peer
  // (kTierOpApplyDelta). An unreachable peer keeps its old-Σ entries, which
  // simply become unreachable under new-Σ keys — stale bytes, never wrong
  // answers.
  DeltaReceipt ApplyDelta(const LineageDelta& ld) override;
  void Clear() override;  // forgets negative entries; pending publishes stay
  bool HasPendingWrites() const override;

 private:
  RemoteTier(std::shared_ptr<VerdictTransport> transport,
             RemoteTierOptions options, uint64_t peer_fingerprint);

  // Inserts `key` into the negative cache (expiry now + TTL), shedding the
  // oldest entry past the capacity bound. Caller holds mu_.
  void RememberNegativeLocked(const std::string& key);

  const std::shared_ptr<VerdictTransport> transport_;
  const RemoteTierOptions options_;
  const uint64_t peer_fingerprint_;
  const std::string name_;

  mutable std::mutex mu_;
  // key → expiry. negative_order_ is the shed order (insertion FIFO; a
  // refreshed key may be shed early — conservative, never wrong).
  std::unordered_map<std::string, std::chrono::steady_clock::time_point>
      negative_;
  std::deque<std::string> negative_order_;
  // Publishes buffered for the next Flush, deduplicated by key.
  std::unordered_map<std::string, StoredVerdict> pending_;
  VerdictTierStats stats_;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_REMOTE_TIER_H_
