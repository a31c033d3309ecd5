// TcpTransport: the production VerdictTransport — the tier protocol over a
// real TCP connection to a VerdictAuthorityServer (net/authority_server.h)
// or any peer speaking the same frames.
//
// Connection discipline:
//
//   * Lazy connect: the socket is dialed on the first RoundTrip (and after
//     any loss), inside the caller's call — RemoteTier::Connect's hello is
//     simply the first round trip.
//   * Transport-level hello: every (re)connect runs its own hello exchange
//     before serving traffic (refusing any protocol version but ours), and
//     pins the peer's fingerprint at the first successful connect. A
//     reconnect that reaches a *different* authority (address reused by
//     another service, fingerprint drift after a peer upgrade) fails the
//     round trip instead of silently serving a map with a different key
//     scheme — the one failure a cache may never have. The tier above sees
//     an error and degrades to a miss.
//   * Reconnect with capped exponential backoff + deterministic jitter:
//     after a failure the next dial waits backoff (doubling up to the cap,
//     jittered so a fleet of clients does not thundering-herd a restarted
//     authority). Round trips attempted during the wait fail fast without
//     touching the wire; RemoteTier turns each into a negative-cached miss.
//   * Deadlines: connect_timeout bounds the dial + hello; rtt_timeout
//     bounds each round trip (send + full response frame).
//
// One round trip at a time (an internal mutex serializes callers): the
// protocol is strictly request/response per connection, and the batched
// kTierOpFetchMany opcode is the intended cure for per-key latency, not
// connection-level pipelining.
#ifndef CQCHASE_NET_TCP_TRANSPORT_H_
#define CQCHASE_NET_TCP_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "base/rng.h"
#include "base/status.h"
#include "engine/remote_tier.h"
#include "net/socket.h"

namespace cqchase {
namespace net {

struct TcpTransportOptions {
  // Bounds one dial + transport-level hello (distinct from rtt_timeout: a
  // black-holed SYN and a slow response are different faults with different
  // sensible budgets).
  std::chrono::milliseconds connect_timeout{1000};
  // Bounds each RoundTrip: send + complete response frame.
  std::chrono::milliseconds rtt_timeout{2000};
  // Reconnect backoff: first wait, doubling per consecutive failure up to
  // the cap, reset by a successful connect. Jitter multiplies each wait by
  // [1.0, 1.5) drawn from a deterministic Rng(jitter_seed).
  std::chrono::milliseconds backoff_initial{100};
  std::chrono::milliseconds backoff_max{5000};
  uint64_t jitter_seed = 1;
  // Inbound frame bound, matching the protocol-wide limit.
  size_t max_frame_bytes = kTierMaxFrameBytes;
};

class TcpTransport final : public VerdictTransport {
 public:
  TcpTransport(std::string host, uint16_t port,
               TcpTransportOptions options = {});

  Status RoundTrip(const std::string& request, std::string* response) override;
  std::string_view Peer() const override { return peer_; }
  VerdictTransportStats TransportStats() const override;

  // The fingerprint pinned at the first successful connect (0 before it).
  // Exposed for tests and diagnostics; RemoteTier learns the same value
  // from its own hello through this transport.
  uint64_t pinned_fingerprint() const;

 private:
  // Dials + runs the transport-level hello if the link is down. Fails fast
  // (no wire traffic) while inside the backoff window. Caller holds mu_.
  Status EnsureConnectedLocked();
  // Drops the connection and schedules the next dial attempt. Caller holds
  // mu_.
  void DisconnectAndBackoffLocked();

  const std::string host_;
  const uint16_t port_;
  const TcpTransportOptions options_;
  const std::string peer_;

  mutable std::mutex mu_;
  UniqueFd fd_;
  Rng jitter_;
  std::chrono::milliseconds backoff_;
  std::chrono::steady_clock::time_point next_attempt_{};  // epoch = dial now
  bool identity_pinned_ = false;
  uint64_t pinned_fingerprint_ = 0;
  VerdictTransportStats stats_;
};

}  // namespace net
}  // namespace cqchase

#endif  // CQCHASE_NET_TCP_TRANSPORT_H_
