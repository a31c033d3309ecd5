// Thin POSIX socket helpers shared by the TCP transport (client side) and
// the authority server. Everything here is deadline-driven and EINTR-proof;
// nothing here knows the tier protocol beyond its framing shape (u32 length
// + u64 checksum + payload), which ReadFrame needs to reassemble a complete
// message from a byte stream without trusting the peer's length prefix.
//
// Error vocabulary (the consumers' degrade-to-miss logic depends on it):
//   kDeadlineExceeded — the deadline passed mid-operation.
//   kNotFound         — clean EOF before any byte of the current read (the
//                       peer hung up between messages; reconnectable).
//   kInvalidArgument  — a torn read (EOF mid-message) or a frame whose
//                       length prefix exceeds the caller's bound: a confused
//                       peer, not a transient fault.
//   kUnavailable-shaped failures map to kInternal with errno text.
#ifndef CQCHASE_NET_SOCKET_H_
#define CQCHASE_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "base/status.h"

namespace cqchase {
namespace net {

// RAII fd. Movable, not copyable; closes on destruction (EINTR-proof).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

using SocketDeadline = std::chrono::steady_clock::time_point;

// Deadline from a relative timeout (never in the past).
SocketDeadline DeadlineAfter(std::chrono::milliseconds timeout);

// Splits "host:port"; refuses a missing/empty/non-numeric port and a host
// holding a comma or whitespace (one endpoint, not a list). Host may be
// empty ("0.0.0.0" semantics are the caller's choice).
Status SplitHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

// Connects a TCP socket to host:port within `timeout` (non-blocking connect
// + poll, so a black-holed peer costs the timeout, not the kernel's
// minutes-long default). The returned fd is non-blocking with TCP_NODELAY
// set — one protocol frame per write should not wait for Nagle.
Result<UniqueFd> DialTcp(const std::string& host, uint16_t port,
                         std::chrono::milliseconds timeout);

// Binds + listens on host:port (port 0 = ephemeral) with SO_REUSEADDR.
// Returns the listening fd (non-blocking) and the actually-bound port.
Result<std::pair<UniqueFd, uint16_t>> ListenTcp(const std::string& host,
                                                uint16_t port);

// Sets O_NONBLOCK on `fd`. Every deadline helper below assumes a
// non-blocking fd — on a blocking one the EAGAIN→poll path never runs and
// the deadlines are unenforced. Accepted fds do NOT inherit the listener's
// O_NONBLOCK on Linux, so accept loops must call this per connection.
Status SetNonBlocking(int fd);

// Polls `fd` for readability for up to `tick`. Returns true when readable;
// false on timeout (errors surface as readable and are caught by the
// subsequent read). Accept loops poll in short ticks so a stop flag is
// honored within one tick.
bool WaitReadable(int fd, std::chrono::milliseconds tick);

// Writes all of `bytes` before `deadline` (poll + send loop on the
// non-blocking fd). EPIPE/reset surface as kInternal.
Status SendAll(int fd, const std::string& bytes, SocketDeadline deadline);

// Reads exactly `n` bytes into `*out` (appended) before `deadline`.
// Clean EOF before the first byte → kNotFound; EOF mid-read → torn →
// kInvalidArgument.
Status RecvExact(int fd, size_t n, std::string* out, SocketDeadline deadline);

// Reads one complete protocol frame (u32 length + u64 checksum + payload)
// into `*out_framed` — the full framed bytes, checksum NOT verified here
// (UnframeTierMessage owns that). A length prefix beyond `max_frame_bytes`
// is rejected before any payload allocation.
Status ReadFrame(int fd, size_t max_frame_bytes, std::string* out_framed,
                 SocketDeadline deadline);

}  // namespace net
}  // namespace cqchase

#endif  // CQCHASE_NET_SOCKET_H_
