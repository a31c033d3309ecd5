// verdict_authorityd: the verdict authority as a standalone daemon.
//
//   verdict_authorityd --listen 127.0.0.1:7450 --store-path /var/cq/verdicts
//
// Serves the tier fetch/publish protocol (engine/remote_tier.h) over TCP to
// any number of engine clients. With --store-path the serving map is seeded
// from a VerdictStore at startup and every accepted publish is written
// through to it (flushed periodically and on shutdown), so the authority's
// knowledge survives restarts; without it the map is memory-only.
//
// Prints "listening HOST:PORT" on stdout once the socket is bound (the CI
// gate scrapes this to find an ephemeral port). SIGINT/SIGTERM drain
// gracefully: stop accepting, finish in-flight requests, flush the store,
// print a stats summary, exit 0.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "engine/remote_tier.h"
#include "net/authority_server.h"
#include "net/socket.h"

namespace {

volatile sig_atomic_t g_stop = 0;

void HandleSignal(int /*sig*/) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen HOST:PORT] [--store-path DIR]\n"
               "  --listen      address to serve on (default 127.0.0.1:0 = "
               "ephemeral port)\n"
               "  --store-path  back the authority with a VerdictStore at "
               "DIR (persistent)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using cqchase::Status;
  using cqchase::VerdictAuthority;

  std::string listen = "127.0.0.1:0";
  std::string store_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      listen = argv[++i];
    } else if (arg == "--store-path" && i + 1 < argc) {
      store_dir = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  std::string host;
  uint16_t port = 0;
  Status split = cqchase::net::SplitHostPort(listen, &host, &port);
  if (!split.ok()) {
    std::fprintf(stderr, "bad --listen: %s\n",
                 std::string(split.message()).c_str());
    return 2;
  }

  // Build the authority: store-backed when asked, memory-only otherwise.
  cqchase::net::StoreBackedAuthority backed;
  std::shared_ptr<VerdictAuthority> authority;
  if (!store_dir.empty()) {
    auto made = cqchase::net::MakeStoreBackedAuthority(store_dir);
    if (!made.ok()) {
      std::fprintf(stderr, "store open failed: %s\n",
                   std::string(made.status().message()).c_str());
      return 1;
    }
    backed = *std::move(made);
    authority = backed.authority;
    std::printf("store %s seeded %zu entries\n", store_dir.c_str(),
                authority->size());
  } else {
    authority = std::make_shared<VerdictAuthority>();
  }

  cqchase::net::AuthorityServerOptions server_options;
  server_options.host = host;
  server_options.port = port;
  cqchase::net::VerdictAuthorityServer server(authority, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 std::string(started.message()).c_str());
    return 1;
  }
  std::printf("listening %s:%u\n", host.c_str(), unsigned{server.port()});
  std::fflush(stdout);

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  // Main loop: nothing to do but keep the store durable on a cadence; the
  // server's own threads do the serving.
  auto last_flush = std::chrono::steady_clock::now();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (backed.store != nullptr) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_flush >= std::chrono::seconds(1)) {
        (void)backed.store->Flush();  // failures retry next cadence
        last_flush = now;
      }
    }
  }

  // Graceful drain: stop the server (joins every handler — no Handle call
  // can touch the publish sink after this), then make the store durable.
  server.Stop();
  if (backed.store != nullptr) {
    Status flushed = backed.store->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "final flush failed: %s\n",
                   std::string(flushed.message()).c_str());
    }
  }
  const cqchase::net::AuthorityServerStats stats = server.stats();
  const VerdictAuthority::Stats astats = authority->stats();
  std::printf(
      "shutdown: connections=%llu requests=%llu hellos=%llu fetches=%llu "
      "fetch_many=%llu publishes_accepted=%llu entries=%zu "
      "handshake_failures=%llu protocol_errors=%llu\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.requests_served),
      static_cast<unsigned long long>(astats.hellos),
      static_cast<unsigned long long>(astats.fetches),
      static_cast<unsigned long long>(astats.fetch_many_requests),
      static_cast<unsigned long long>(astats.publishes_accepted),
      authority->size(),
      static_cast<unsigned long long>(stats.handshake_failures),
      static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}
