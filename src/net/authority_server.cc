#include "net/authority_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>

#include <utility>

#include "base/string_util.h"

namespace cqchase {
namespace net {

namespace {

// "ip:port" of the connected peer, best effort ("?" when the kernel will
// not say — the connection still serves).
std::string PeerName(int fd) {
  struct sockaddr_storage addr;
  socklen_t len = sizeof(addr);
  if (getpeername(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return "?";
  }
  char buf[INET6_ADDRSTRLEN] = {0};
  uint16_t port = 0;
  if (addr.ss_family == AF_INET) {
    auto* in4 = reinterpret_cast<struct sockaddr_in*>(&addr);
    inet_ntop(AF_INET, &in4->sin_addr, buf, sizeof(buf));
    port = ntohs(in4->sin_port);
  } else if (addr.ss_family == AF_INET6) {
    auto* in6 = reinterpret_cast<struct sockaddr_in6*>(&addr);
    inet_ntop(AF_INET6, &in6->sin6_addr, buf, sizeof(buf));
    port = ntohs(in6->sin6_port);
  } else {
    return "?";
  }
  return StrCat(buf, ":", int{port});
}

// True when `framed` decodes as a protocol message whose opcode is hello —
// the only first message a client is allowed.
bool IsHelloFrame(const std::string& framed) {
  std::string payload;
  if (!UnframeTierMessage(framed, &payload).ok()) return false;
  return !payload.empty() &&
         static_cast<uint8_t>(payload[0]) == kTierOpHello;
}

}  // namespace

VerdictAuthorityServer::VerdictAuthorityServer(
    std::shared_ptr<VerdictAuthority> authority, AuthorityServerOptions options)
    : authority_(std::move(authority)), options_(std::move(options)) {}

VerdictAuthorityServer::~VerdictAuthorityServer() { Stop(); }

Status VerdictAuthorityServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  CQCHASE_ASSIGN_OR_RETURN(auto bound, ListenTcp(options_.host, options_.port));
  listener_ = std::move(bound.first);
  port_ = bound.second;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void VerdictAuthorityServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  // Wake handlers parked between requests: SHUT_RD turns their next read
  // into a clean EOF while letting an in-flight response finish sending —
  // the graceful half of the drain.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->fd.ok()) shutdown(conn->fd.get(), SHUT_RD);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Reset();
  // Join handlers WITHOUT holding conns_mu_: a handler takes that lock on
  // its way out (counter updates, fd release), so joining under it would
  // deadlock against any connection still mid-request. The accept thread is
  // already joined, so nothing mutates conns_ while we drain the snapshot.
  std::vector<Connection*> handlers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    handlers.reserve(conns_.size());
    for (auto& conn : conns_) handlers.push_back(conn.get());
  }
  for (Connection* conn : handlers) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  started_ = false;
}

std::string VerdictAuthorityServer::address() const {
  return StrCat(options_.host, ":", int{port_});
}

void VerdictAuthorityServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!WaitReadable(listener_.get(), options_.poll_tick)) continue;
    if (stop_.load(std::memory_order_acquire)) break;
    for (;;) {
      const int raw = accept(listener_.get(), nullptr, nullptr);
      if (raw < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained this readiness; anything else: next poll
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = UniqueFd(raw);
      // Accepted fds do not inherit the listener's O_NONBLOCK on Linux, and
      // SendAll/RecvExact only enforce their deadlines through the
      // EAGAIN→poll path — a blocking fd would make io_timeout a no-op and
      // let a stalled peer pin this handler forever.
      if (!SetNonBlocking(raw).ok()) continue;  // fd closes with `conn`
      const int one = 1;
      // Best effort, mirroring DialTcp: one response frame per write should
      // not wait for Nagle.
      (void)setsockopt(raw, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conn->stats.peer = PeerName(raw);
      conn->stats.open = true;
      Connection* raw_conn = conn.get();
      std::lock_guard<std::mutex> lock(conns_mu_);
      ReapFinishedLocked();
      ++totals_.connections_accepted;
      conn->thread = std::thread([this, raw_conn] {
        ServeConnection(raw_conn);
      });
      conns_.push_back(std::move(conn));
    }
  }
}

void VerdictAuthorityServer::ServeConnection(Connection* conn) {
  const int fd = conn->fd.get();
  bool handshaken = false;
  while (!stop_.load(std::memory_order_acquire)) {
    // Park in short ticks so Stop() is honored promptly; the io_timeout
    // clock only starts once a frame's bytes begin arriving.
    if (!WaitReadable(fd, options_.poll_tick)) continue;
    std::string framed;
    Status read = ReadFrame(fd, options_.max_frame_bytes, &framed,
                            DeadlineAfter(options_.io_timeout));
    if (!read.ok()) {
      // Clean hangup between requests is a normal goodbye; everything else
      // (torn frame, oversized frame, timeout mid-frame) is a confused or
      // dead peer.
      if (read.code() != StatusCode::kNotFound) {
        std::lock_guard<std::mutex> lock(conns_mu_);
        ++totals_.protocol_errors;
      }
      break;
    }
    if (!handshaken) {
      if (!IsHelloFrame(framed)) {
        // First message was not a hello: refuse before any verdict flows.
        std::lock_guard<std::mutex> lock(conns_mu_);
        ++totals_.handshake_failures;
        break;
      }
      handshaken = true;
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->stats.handshaken = true;
    }
    std::string response;
    Status handled = authority_->Handle(framed, &response);
    if (!handled.ok()) {
      // Undecodable request mid-session: disconnect rather than guess what
      // the peer meant. (A well-formed fetch of an unknown key is a
      // successful "not found", not this path.)
      std::lock_guard<std::mutex> lock(conns_mu_);
      ++totals_.protocol_errors;
      break;
    }
    Status sent = SendAll(fd, response, DeadlineAfter(options_.io_timeout));
    if (!sent.ok()) break;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      ++conn->stats.requests;
      conn->stats.bytes_in += framed.size();
      conn->stats.bytes_out += response.size();
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    ++totals_.requests_served;
    totals_.bytes_in += framed.size();
    totals_.bytes_out += response.size();
  }
  // One conns_mu_ section closes the connection in every respect at once:
  // Stop()'s shutdown sweep reads this fd under the same lock (a close
  // racing that sweep could hand the descriptor number to an unrelated
  // file), and stats() reads `open` under it — so whoever sees
  // connections_open drop also sees `done`, and the next accept's
  // ReapFinishedLocked retires this row.
  std::lock_guard<std::mutex> lock(conns_mu_);
  {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    conn->stats.open = false;
  }
  conn->fd.Reset();
  conn->done.store(true, std::memory_order_release);
}

void VerdictAuthorityServer::ReapFinishedLocked() {
  auto it = conns_.begin();
  while (it != conns_.end()) {
    Connection* conn = it->get();
    if (!conn->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    // The handler stores `done` in its last conns_mu_ section, which it has
    // left if we see it here; it takes no further locks, so joining under
    // conns_mu_ cannot deadlock.
    if (conn->thread.joinable()) conn->thread.join();
    closed_rows_.push_back(conn->stats);
    it = conns_.erase(it);
  }
  while (closed_rows_.size() > options_.max_closed_connection_rows) {
    closed_rows_.pop_front();
  }
}

AuthorityServerStats VerdictAuthorityServer::stats() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  AuthorityServerStats out = totals_;
  for (const auto& conn : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (conn->stats.open) ++out.connections_open;
  }
  return out;
}

std::vector<AuthorityConnectionStats> VerdictAuthorityServer::connections()
    const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<AuthorityConnectionStats> out;
  out.reserve(closed_rows_.size() + conns_.size());
  out.insert(out.end(), closed_rows_.begin(), closed_rows_.end());
  for (const auto& conn : conns_) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    out.push_back(conn->stats);
  }
  return out;
}

Result<StoreBackedAuthority> MakeStoreBackedAuthority(
    const std::string& store_dir, VerdictAuthority::Options options) {
  CQCHASE_ASSIGN_OR_RETURN(std::unique_ptr<VerdictStore> store,
                           VerdictStore::Open(store_dir));
  // The sink holds a raw pointer; StoreBackedAuthority's member order (and
  // its contract that servers stop first) keeps the store alive longer than
  // any Handle call that could fire it.
  VerdictStore* store_ptr = store.get();
  options.publish_sink = [store_ptr](const std::string& key,
                                     const StoredVerdict& verdict) {
    store_ptr->PutIfAbsent(key, verdict);
  };
  StoreBackedAuthority out;
  out.store = std::move(store);
  out.authority = std::make_shared<VerdictAuthority>(std::move(options));
  for (const auto& [key, verdict] : out.store->Entries()) {
    out.authority->Put(key, verdict);
  }
  return out;
}

}  // namespace net
}  // namespace cqchase
