#include "net/socket.h"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "base/string_util.h"

namespace cqchase {
namespace net {

namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::Internal(StrCat(what, ": ", strerror(err)));
}

// Milliseconds until `deadline`, clamped to [0, tick]. poll() takes an int;
// short ticks also keep EINTR recovery cheap.
int PollTimeoutMs(SocketDeadline deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return static_cast<int>(std::min<long long>(ms, 100));
}

// Waits for `events` on `fd` until `deadline`. Returns OK when the fd is
// ready (including error-ready: the caller's next syscall reports the real
// errno), kDeadlineExceeded otherwise.
Status PollFor(int fd, short events, SocketDeadline deadline) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, PollTimeoutMs(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll", errno);
    }
    if (rc > 0) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("socket operation timed out");
    }
  }
}

}  // namespace

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)", errno);
  }
  return Status::OK();
}

SocketDeadline DeadlineAfter(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() +
         std::max(timeout, std::chrono::milliseconds(0));
}

Status SplitHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon + 1 == address.size()) {
    return Status::InvalidArgument(
        StrCat("address \"", address, "\" is not host:port"));
  }
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = strtoul(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || value > 65535) {
    return Status::InvalidArgument(
        StrCat("address \"", address, "\" has a bad port"));
  }
  // One endpoint only: a comma list or stray whitespace would otherwise
  // reach getaddrinfo as a host name and fail late, as a lookup error.
  const std::string host_str = address.substr(0, colon);
  if (host_str.find_first_of(", \t\n\r\v\f") != std::string::npos) {
    return Status::InvalidArgument(
        StrCat("address \"", address, "\" has a bad host"));
  }
  *host = host_str;
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

Result<UniqueFd> DialTcp(const std::string& host, uint16_t port,
                         std::chrono::milliseconds timeout) {
  const SocketDeadline deadline = DeadlineAfter(timeout);
  struct addrinfo hints;
  memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const std::string port_str = StrCat(int{port});
  const int rc =
      getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(), port_str.c_str(),
                  &hints, &addrs);
  if (rc != 0) {
    return Status::Internal(
        StrCat("getaddrinfo(", host, "): ", gai_strerror(rc)));
  }
  Status last = Status::Internal(StrCat("no addresses for ", host));
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    UniqueFd fd(socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.ok()) {
      last = ErrnoStatus("socket", errno);
      continue;
    }
    Status nb = SetNonBlocking(fd.get());
    if (!nb.ok()) {
      last = nb;
      continue;
    }
    if (connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      if (errno != EINPROGRESS) {
        last = ErrnoStatus("connect", errno);
        continue;
      }
      // Non-blocking connect in flight: writable (or error-ready) when the
      // handshake resolves. This is what makes the connect timeout *ours*
      // instead of the kernel's minutes-long default.
      Status ready = PollFor(fd.get(), POLLOUT, deadline);
      if (!ready.ok()) {
        last = ready.code() == StatusCode::kDeadlineExceeded
                   ? Status::DeadlineExceeded(
                         StrCat("connect to ", host, ":", int{port},
                                " timed out"))
                   : ready;
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
        last = ErrnoStatus("getsockopt(SO_ERROR)", errno);
        continue;
      }
      if (err != 0) {
        last = ErrnoStatus("connect", err);
        continue;
      }
    }
    const int one = 1;
    // Best effort: a transport that cannot disable Nagle still works, just
    // with worse per-frame latency.
    (void)setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    freeaddrinfo(addrs);
    return fd;
  }
  freeaddrinfo(addrs);
  return last;
}

Result<std::pair<UniqueFd, uint16_t>> ListenTcp(const std::string& host,
                                                uint16_t port) {
  struct addrinfo hints;
  memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const std::string port_str = StrCat(int{port});
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(),
                             port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::Internal(
        StrCat("getaddrinfo(", host, "): ", gai_strerror(rc)));
  }
  Status last = Status::Internal(StrCat("no addresses for ", host));
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    UniqueFd fd(socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.ok()) {
      last = ErrnoStatus("socket", errno);
      continue;
    }
    const int one = 1;
    // Restart without waiting out TIME_WAIT (the CI daemon restarts on the
    // same ephemeral port within seconds).
    (void)setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last = ErrnoStatus("bind", errno);
      continue;
    }
    if (listen(fd.get(), 128) != 0) {
      last = ErrnoStatus("listen", errno);
      continue;
    }
    Status nb = SetNonBlocking(fd.get());
    if (!nb.ok()) {
      last = nb;
      continue;
    }
    struct sockaddr_storage bound;
    socklen_t len = sizeof(bound);
    if (getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&bound),
                    &len) != 0) {
      last = ErrnoStatus("getsockname", errno);
      continue;
    }
    uint16_t bound_port = 0;
    if (bound.ss_family == AF_INET) {
      bound_port =
          ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      bound_port =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
    }
    freeaddrinfo(addrs);
    return std::make_pair(std::move(fd), bound_port);
  }
  freeaddrinfo(addrs);
  return last;
}

bool WaitReadable(int fd, std::chrono::milliseconds tick) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = poll(&pfd, 1, static_cast<int>(tick.count()));
  return rc > 0;  // error-ready counts: the next read reports the real errno
}

Status SendAll(int fd, const std::string& bytes, SocketDeadline deadline) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE here, not as
    // a process-killing SIGPIPE.
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      CQCHASE_RETURN_IF_ERROR(PollFor(fd, POLLOUT, deadline));
      continue;
    }
    return ErrnoStatus("send", errno);
  }
  return Status::OK();
}

Status RecvExact(int fd, size_t n, std::string* out, SocketDeadline deadline) {
  size_t got = 0;
  char buf[4096];
  while (got < n) {
    const size_t want = std::min(n - got, sizeof(buf));
    const ssize_t r = recv(fd, buf, want, 0);
    if (r > 0) {
      out->append(buf, static_cast<size_t>(r));
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      // Clean EOF between messages is a reconnectable hangup; EOF mid-read
      // is a torn message from a dying or confused peer.
      return got == 0 ? Status::NotFound("peer closed the connection")
                      : Status::InvalidArgument(
                            "peer closed mid-message (torn read)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      CQCHASE_RETURN_IF_ERROR(PollFor(fd, POLLIN, deadline));
      continue;
    }
    return ErrnoStatus("recv", errno);
  }
  return Status::OK();
}

Status ReadFrame(int fd, size_t max_frame_bytes, std::string* out_framed,
                 SocketDeadline deadline) {
  out_framed->clear();
  // u32 payload length first; judged against the bound *before* any payload
  // allocation — the length prefix is peer data.
  CQCHASE_RETURN_IF_ERROR(RecvExact(fd, 4, out_framed, deadline));
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(
                       static_cast<unsigned char>((*out_framed)[i]))
                   << (8 * i);
  }
  const size_t total = 4 + 8 + static_cast<size_t>(payload_len);
  if (total > max_frame_bytes) {
    return Status::InvalidArgument(
        StrCat("frame of ", payload_len, " payload bytes exceeds the ",
               max_frame_bytes, "-byte bound"));
  }
  // u64 checksum + payload; verification is UnframeTierMessage's job — this
  // layer only reassembles the complete framed bytes.
  return RecvExact(fd, total - 4, out_framed, deadline);
}

}  // namespace net
}  // namespace cqchase
