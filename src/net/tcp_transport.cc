#include "net/tcp_transport.h"

#include <algorithm>

#include "base/string_util.h"

namespace cqchase {
namespace net {

TcpTransport::TcpTransport(std::string host, uint16_t port,
                           TcpTransportOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      peer_(StrCat("tcp:", host_, ":", int{port_})),
      jitter_(options.jitter_seed),
      backoff_(options.backoff_initial) {}

Status TcpTransport::EnsureConnectedLocked() {
  if (fd_.ok()) return Status::OK();
  const auto now = std::chrono::steady_clock::now();
  if (now < next_attempt_) {
    // Inside the backoff window: fail fast with zero wire traffic. The
    // window is NOT extended — only a real failed dial doubles the wait —
    // so a burst of lookups against a dead peer degrades to cheap local
    // misses without pushing recovery further away.
    ++stats_.errors;
    return Status::FailedPrecondition(
        StrCat(peer_, " backing off after connection failure"));
  }

  Result<UniqueFd> dialed = DialTcp(host_, port_, options_.connect_timeout);
  if (!dialed.ok()) {
    DisconnectAndBackoffLocked();
    return dialed.status();
  }
  fd_ = *std::move(dialed);

  // Transport-level hello: prove the peer speaks the protocol and is the
  // *same* authority before any cached answer can flow.
  const SocketDeadline deadline = DeadlineAfter(options_.connect_timeout);
  std::string framed_response;
  Status hello = SendAll(fd_.get(), BuildTierHello(), deadline);
  if (hello.ok()) {
    hello = ReadFrame(fd_.get(), options_.max_frame_bytes, &framed_response,
                      deadline);
  }
  uint64_t fingerprint = 0;
  if (hello.ok()) {
    hello = ParseTierHelloResponse(framed_response, peer_, &fingerprint);
  }
  if (hello.ok() && identity_pinned_ && fingerprint != pinned_fingerprint_) {
    // The address now answers as somebody else (service churn, upgraded
    // peer with a new key scheme). Serving it would mix verdict spaces;
    // the tier degrades to misses instead.
    hello = Status::FailedPrecondition(
        StrCat(peer_, " identity changed across reconnect: fingerprint ",
               fingerprint, " vs pinned ", pinned_fingerprint_));
  }
  if (!hello.ok()) {
    DisconnectAndBackoffLocked();
    return hello;
  }
  if (!identity_pinned_) {
    identity_pinned_ = true;
    pinned_fingerprint_ = fingerprint;
  }
  ++stats_.connects;
  if (stats_.connects > 1) ++stats_.reconnects;
  backoff_ = options_.backoff_initial;
  return Status::OK();
}

void TcpTransport::DisconnectAndBackoffLocked() {
  fd_.Reset();
  // Deterministic jitter in [1.0, 1.5): a restarted authority sees its
  // clients return spread out, not as one synchronized herd.
  const double factor = 1.0 + 0.5 * jitter_.UniformDouble();
  const auto wait = std::chrono::milliseconds(
      static_cast<int64_t>(static_cast<double>(backoff_.count()) * factor));
  next_attempt_ = std::chrono::steady_clock::now() + wait;
  backoff_ = std::min(backoff_ * 2, options_.backoff_max);
}

Status TcpTransport::RoundTrip(const std::string& request,
                               std::string* response) {
  std::lock_guard<std::mutex> lock(mu_);
  CQCHASE_RETURN_IF_ERROR(EnsureConnectedLocked());
  const SocketDeadline deadline = DeadlineAfter(options_.rtt_timeout);
  Status status = SendAll(fd_.get(), request, deadline);
  if (status.ok()) {
    status = ReadFrame(fd_.get(), options_.max_frame_bytes, response,
                       deadline);
  }
  if (!status.ok()) {
    // Any mid-round-trip failure poisons the stream (a late response to
    // *this* request must never be read as the answer to the next one):
    // drop the connection, redial after backoff.
    ++stats_.errors;
    DisconnectAndBackoffLocked();
    return status;
  }
  ++stats_.round_trips;
  return Status::OK();
}

VerdictTransportStats TcpTransport::TransportStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t TcpTransport::pinned_fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_fingerprint_;
}

}  // namespace net
}  // namespace cqchase
