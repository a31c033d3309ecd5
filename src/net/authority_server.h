// VerdictAuthorityServer: the listener half of the networked verdict
// authority — accepts TCP clients and serves each one's framed tier-protocol
// requests against a shared VerdictAuthority (engine/remote_tier.h).
//
// Model: thread-per-connection. The protocol is strictly request/response
// and a verdict fleet's client count is engines, not browsers, so a blocking
// handler thread per client is the simple shape that is also fast enough;
// the authority map itself is the shared state and already thread-safe.
//
// Handshake enforcement: the first frame on every connection MUST be a
// hello. A client that leads with anything else (port scanner, confused
// peer, wrong protocol) is counted in handshake_failures and disconnected
// before any verdict flows. Every inbound frame is bounds-checked against
// kTierMaxFrameBytes before allocation, and any undecodable request drops
// the connection (counted in protocol_errors) — a confused peer is cut off,
// never answered with garbage.
//
// Shutdown: Stop() closes the listener, signals every handler, and joins
// them. A handler mid-request finishes serving that request first (graceful
// drain); handlers waiting for a next frame notice within one poll tick.
#ifndef CQCHASE_NET_AUTHORITY_SERVER_H_
#define CQCHASE_NET_AUTHORITY_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "engine/remote_tier.h"
#include "engine/store.h"
#include "net/socket.h"

namespace cqchase {
namespace net {

struct AuthorityServerOptions {
  // Listen address. Port 0 = ephemeral (read the real one from port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Budget for one frame's worth of socket I/O once bytes start flowing
  // (a stalled half-sent frame is a dead client, not a patient one).
  std::chrono::milliseconds io_timeout{5000};
  // Poll tick for "waiting for the next request" and the accept loop: the
  // latency bound on noticing Stop().
  std::chrono::milliseconds poll_tick{100};
  // Inbound frame bound, matching the protocol-wide limit.
  size_t max_frame_bytes = kTierMaxFrameBytes;
  // How many closed-connection rows connections() keeps (oldest dropped
  // first). Aggregate counters in stats() are unaffected; this only bounds
  // the per-connection detail so a daemon with churn does not grow without
  // bound.
  size_t max_closed_connection_rows = 64;
};

// Aggregate server counters (per-connection detail via connections()).
struct AuthorityServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;   // gauge
  uint64_t handshake_failures = 0; // first frame was not a valid hello
  uint64_t protocol_errors = 0;    // undecodable request mid-session
  uint64_t requests_served = 0;    // frames answered successfully
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

struct AuthorityConnectionStats {
  std::string peer;        // "ip:port" of the client
  uint64_t requests = 0;   // frames answered on this connection
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  bool handshaken = false; // the first frame was a valid hello
  bool open = false;       // still serving (gauge)
};

class VerdictAuthorityServer {
 public:
  // The authority outlives the server (Stop() joins every handler before
  // the destructor returns, so handlers never outlive either).
  explicit VerdictAuthorityServer(std::shared_ptr<VerdictAuthority> authority,
                                  AuthorityServerOptions options = {});
  ~VerdictAuthorityServer();

  VerdictAuthorityServer(const VerdictAuthorityServer&) = delete;
  VerdictAuthorityServer& operator=(const VerdictAuthorityServer&) = delete;

  // Binds, listens, starts the accept loop. Fails without side effects (no
  // thread) when the bind fails.
  Status Start();

  // Graceful drain: stops accepting, lets in-flight requests finish, joins
  // every handler. Idempotent.
  void Stop();

  // The bound port (the real one when options asked for 0). 0 before Start.
  uint16_t port() const { return port_; }
  std::string address() const;  // "host:port" of the bound listener

  AuthorityServerStats stats() const;
  // Recently closed connections (up to max_closed_connection_rows, oldest
  // dropped first) followed by the currently open ones, accept order within
  // each group. A daemon exposes counts, tests read the rows.
  std::vector<AuthorityConnectionStats> connections() const;

 private:
  struct Connection {
    UniqueFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
    mutable std::mutex mu;  // guards stats below
    AuthorityConnectionStats stats;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  // Joins finished handler threads and retires their Connection records
  // into closed_rows_ (accept-loop housekeeping, so a daemon with
  // connection churn accumulates neither joinable threads nor records).
  void ReapFinishedLocked();

  const std::shared_ptr<VerdictAuthority> authority_;
  const AuthorityServerOptions options_;

  UniqueFd listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;  // open / not yet reaped
  // Rows of reaped connections, bounded by max_closed_connection_rows.
  std::deque<AuthorityConnectionStats> closed_rows_;
  AuthorityServerStats totals_;  // closed-connection rollup + server counters
};

// A VerdictStore-backed authority: the serving map is seeded from the store
// at open, and every accepted publish is written through to it (the store's
// own write-behind log makes it durable on Flush/close). The daemon's
// persistence recipe in one call.
struct StoreBackedAuthority {
  // Declaration order is the safety contract: authority (and its
  // publish_sink pointing at the store) is destroyed before the store.
  // Callers must Stop() any server serving this authority first.
  std::unique_ptr<VerdictStore> store;
  std::shared_ptr<VerdictAuthority> authority;
};

Result<StoreBackedAuthority> MakeStoreBackedAuthority(
    const std::string& store_dir,
    VerdictAuthority::Options options = VerdictAuthority::Options());

}  // namespace net
}  // namespace cqchase

#endif  // CQCHASE_NET_AUTHORITY_SERVER_H_
