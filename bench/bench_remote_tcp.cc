// E-REMOTE-TCP — the verdict authority over real sockets: the tier-stack
// contract of bench_tier_stack re-proven with the production TCP transport
// (net/tcp_transport.h) instead of the in-process loopback, plus the
// batched-fetch discipline. Engine A decides a deterministic workload cold
// and publishes every verdict over TCP; engine B — cold LRU, its own TCP
// connection — answers the whole workload over the wire.
//
// Enforced gates (exit non-zero on violation, wired into ci.sh):
//   * verdict parity: A and B agree with a tier-less oracle task by task;
//   * chases_built == 0 for engine B — every answer arrived over TCP;
//   * remote_hits > 0 for engine B;
//   * strictly fewer remote round trips than tasks: the 64-task burst must
//     ride kTierOpFetchMany (batched_fetches >= 1), not 64 per-key fetches.
//
// By default the bench starts its own VerdictAuthorityServer on an
// ephemeral 127.0.0.1 port — self-contained, no daemon required. With
//   --connect HOST:PORT
// it targets a running verdict_authorityd instead, which is how the CI gate
// exercises the standalone daemon end to end.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "net/authority_server.h"
#include "net/socket.h"
#include "net/tcp_transport.h"

namespace cqchase {
namespace {

// A fresh TCP connection per engine — engine A and engine B must not share
// a socket, or "engine B went over the wire" would be untestable.
EngineConfig TcpConfig(const std::string& host, uint16_t port) {
  EngineConfig config;
  config.tiers = {TierSpec::Lru(1 << 16),
                  TierSpec::Remote(
                      std::make_shared<net::TcpTransport>(host, port))};
  return config;
}

// The remote tier's stats row (kind token "remote" before the colon).
const VerdictTierStats* FindRemoteTier(
    const std::vector<VerdictTierStats>& tiers) {
  for (const VerdictTierStats& t : tiers) {
    if (t.name.rfind("remote", 0) == 0) return &t;
  }
  return nullptr;
}

}  // namespace
}  // namespace cqchase

int main(int argc, char** argv) {
  using namespace cqchase;

  std::string host;
  uint16_t port = 0;
  bool external = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // One authority only: SplitHostPort refuses a comma list.
    if (arg == "--connect" && i + 1 < argc && !external) {
      Status split = net::SplitHostPort(argv[++i], &host, &port);
      if (!split.ok()) {
        std::fprintf(stderr, "bad --connect endpoint '%s': %s\n", argv[i],
                     std::string(split.message()).c_str());
        return 2;
      }
      external = true;
    } else {
      std::fprintf(stderr, "usage: %s [--connect HOST:PORT]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader(
      "E-REMOTE-TCP / verdict sharing over the TCP authority",
      "a second engine with cold local caches answers a repeated canonical "
      "workload entirely over real TCP: zero chases built, verdicts "
      "identical to a tier-less engine, and the burst rides batched fetch "
      "(strictly fewer round trips than tasks)");

  // In-process fallback: the bench carries its own authority server, so the
  // gate runs anywhere `ctest` does.
  std::shared_ptr<VerdictAuthority> local_authority;
  std::unique_ptr<net::VerdictAuthorityServer> local_server;
  if (!external) {
    local_authority = std::make_shared<VerdictAuthority>();
    local_server =
        std::make_unique<net::VerdictAuthorityServer>(local_authority);
    Status started = local_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: listen: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    host = "127.0.0.1";
    port = local_server->port();
    std::printf("in-process authority on 127.0.0.1:%u\n", unsigned{port});
  } else {
    std::printf("connecting to external authority %s:%u\n", host.c_str(),
                unsigned{port});
  }

  const size_t kClasses = 16;
  const size_t kCopies = 4;  // 64 tasks, 16 distinct canonical keys
  bench::ContainmentWorkload w =
      bench::BuildContainmentWorkload(kClasses, kCopies, /*catalog_seed=*/23,
                                      /*class_seed_base=*/9100);
  const size_t tasks = w.lhs.size();

  // Oracle: no tiers beyond its own LRU — ground truth for this process.
  ContainmentEngine oracle(w.catalog.get(), w.symbols.get(), EngineConfig{});
  std::vector<Result<EngineVerdict>> oracle_results =
      bench::DecideAll(oracle, w.lhs, w.rhs, w.deps);

  // Engine A: decides cold, publishes over TCP. Scope exit drains the
  // write-behind flush through the socket — a real process shutdown.
  EngineStats a_stats;
  double a_ms = 0;
  std::vector<Result<EngineVerdict>> a_results;
  {
    ContainmentEngine a(w.catalog.get(), w.symbols.get(),
                        TcpConfig(host, port));
    bench::WallTimer timer;
    a_results = bench::DecideAll(a, w.lhs, w.rhs, w.deps);
    a_ms = timer.ElapsedMs();
    a_stats = a.stats();
  }

  // Engine B: cold caches, its own TCP connection — the other machine.
  EngineConfig b_config = TcpConfig(host, port);
  ContainmentEngine b(w.catalog.get(), w.symbols.get(), b_config);
  bench::WallTimer timer;
  std::vector<Result<EngineVerdict>> b_results =
      bench::DecideAll(b, w.lhs, w.rhs, w.deps);
  const double b_ms = timer.ElapsedMs();
  const EngineStats b_stats = b.stats();
  const std::vector<VerdictTierStats> b_tiers = b.tier_stats();
  const VerdictTierStats* remote = FindRemoteTier(b_tiers);

  size_t contained = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  for (size_t i = 0; i < tasks; ++i) {
    if (!oracle_results[i].ok() || !a_results[i].ok() || !b_results[i].ok()) {
      ++errors;
      continue;
    }
    if (oracle_results[i]->report.contained != a_results[i]->report.contained ||
        oracle_results[i]->report.contained != b_results[i]->report.contained) {
      ++mismatches;
    }
    if (b_results[i]->report.contained) ++contained;
  }

  std::printf("%zu tasks (%zu classes x %zu copies)\n", tasks, kClasses,
              kCopies);
  std::printf("  engine A (cold, publisher): %8.3f ms, %llu chases\n", a_ms,
              static_cast<unsigned long long>(a_stats.chases_built));
  std::printf("  engine B (TCP-served)     : %8.3f ms, %llu chases\n", b_ms,
              static_cast<unsigned long long>(b_stats.chases_built));
  if (remote != nullptr) {
    std::printf(
        "  engine B wire: %llu hits over %llu round trips (%llu batched, "
        "%llu keys), %llu reconnects, %llu transport errors\n",
        static_cast<unsigned long long>(remote->hits),
        static_cast<unsigned long long>(remote->fetches),
        static_cast<unsigned long long>(remote->batched_fetches),
        static_cast<unsigned long long>(remote->batched_keys),
        static_cast<unsigned long long>(remote->reconnects),
        static_cast<unsigned long long>(remote->transport_errors));
  }
  std::printf("  verdicts: %zu contained, %zu mismatches, %zu errors\n\n",
              contained, mismatches, errors);

  std::vector<std::pair<std::string, double>> counters = {
      {"tasks", static_cast<double>(tasks)},
      {"a_chases_built", static_cast<double>(a_stats.chases_built)},
      {"chases_built", static_cast<double>(b_stats.chases_built)},
      {"cache_hits", static_cast<double>(b_stats.cache_hits)},
      {"mismatches", static_cast<double>(mismatches)},
      {"errors", static_cast<double>(errors)}};
  bench::AppendEngineCounters(b_stats, counters);
  bench::AppendTierCounters(b_tiers, counters);
  bench::AppendEngineConfig(b_config, counters);
  bench::PrintJsonRecord("remote_tcp", b_ms, counters);

  if (local_server != nullptr) local_server->Stop();

  if (mismatches > 0 || errors > 0) {
    std::fprintf(stderr,
                 "FAIL: TCP-served verdicts diverge from the oracle "
                 "(%zu mismatches, %zu errors)\n",
                 mismatches, errors);
    return 1;
  }
  if (b_stats.chases_built != 0) {
    std::fprintf(stderr,
                 "FAIL: engine B built %llu chases (want 0: every verdict "
                 "should arrive over TCP)\n",
                 static_cast<unsigned long long>(b_stats.chases_built));
    return 1;
  }
  if (b_stats.remote_hits == 0) {
    std::fprintf(stderr, "FAIL: engine B served no remote hits\n");
    return 1;
  }
  if (remote == nullptr) {
    std::fprintf(stderr, "FAIL: no remote tier in engine B's stack\n");
    return 1;
  }
  if (remote->fetches >= tasks) {
    std::fprintf(stderr,
                 "FAIL: %llu remote round trips for %zu tasks (want strictly "
                 "fewer: the burst should ride kTierOpFetchMany)\n",
                 static_cast<unsigned long long>(remote->fetches), tasks);
    return 1;
  }
  if (remote->batched_fetches == 0) {
    std::fprintf(stderr, "FAIL: no batched fetches (kTierOpFetchMany never "
                         "used)\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
