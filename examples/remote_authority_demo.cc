// The networked verdict authority: a daemon-in-process serving real TCP on
// 127.0.0.1, and two client engines whose only connection to each other is
// that socket.
//
//   $ ./build/remote_authority_demo
//
// A VerdictAuthorityServer listens on an ephemeral 127.0.0.1 port. Engine A
// stacks LRU → remote(tcp) and decides two containment questions by
// chasing; its verdicts ship to the authority over the wire (write-behind
// publish). Engine B — same stack, cold caches, its *own* TCP connection —
// answers the identical questions without building a single chase. This is
// tier_stack_demo with the loopback replaced by the production transport;
// point the same TcpTransport at another machine's verdict_authorityd and
// nothing else changes.
#include <cstdio>
#include <memory>

#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "net/authority_server.h"
#include "net/tcp_transport.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"

using namespace cqchase;

namespace {

EngineConfig TcpConfig(uint16_t port) {
  EngineConfig config;
  config.tiers = {TierSpec::Lru(1 << 10),
                  TierSpec::Remote(std::make_shared<net::TcpTransport>(
                      "127.0.0.1", port))};
  return config;
}

void RunQuestions(const char* label, ContainmentEngine& engine,
                  const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                  const DependencySet& deps) {
  for (auto [name, from, to] : {std::tuple{"Q1 <= Q2", &q1, &q2},
                                std::tuple{"Q2 <= Q1", &q2, &q1}}) {
    Result<EngineVerdict> v = engine.Check(*from, *to, deps);
    if (!v.ok()) {
      std::printf("  %s: error %s\n", name, v.status().ToString().c_str());
      continue;
    }
    std::printf("  %s: %-13s  (%s)\n", name,
                v->report.contained ? "contained" : "not contained",
                v->remote_hit   ? "served over TCP from the authority"
                : v->cache_hit  ? "served from the in-memory tier"
                                : "decided by chasing");
  }
  const EngineStats stats = engine.stats();
  std::printf("  %s: %llu chases built, %llu remote hits\n\n", label,
              static_cast<unsigned long long>(stats.chases_built),
              static_cast<unsigned long long>(stats.remote_hits));
}

}  // namespace

int main() {
  Catalog catalog;
  if (!catalog.AddRelation("EMP", {"eno", "sal", "dept"}).ok() ||
      !catalog.AddRelation("DEP", {"dept", "loc"}).ok()) {
    std::printf("schema error\n");
    return 1;
  }
  Result<DependencySet> deps =
      ParseDependencies(catalog, "EMP[dept] <= DEP[dept]");
  SymbolTable symbols;
  Result<ConjunctiveQuery> q1 =
      ParseQuery(catalog, symbols, "ans(e) :- EMP(e, s, d), DEP(d, l)");
  Result<ConjunctiveQuery> q2 =
      ParseQuery(catalog, symbols, "ans(e) :- EMP(e, s, d)");
  if (!deps.ok() || !q1.ok() || !q2.ok()) {
    std::printf("parse error\n");
    return 1;
  }

  // The authority, serving real sockets (what verdict_authorityd wraps as a
  // standalone process).
  auto authority = std::make_shared<VerdictAuthority>();
  net::VerdictAuthorityServer server(authority);
  Status started = server.Start();
  if (!started.ok()) {
    std::printf("listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("authority listening on 127.0.0.1:%u\n\n",
              unsigned{server.port()});

  std::printf("engine A (decides and publishes over TCP):\n");
  {
    ContainmentEngine a(&catalog, &symbols, TcpConfig(server.port()));
    RunQuestions("engine A", a, *q1, *q2, *deps);
    // Scope exit drains the write-behind publish over the socket.
  }
  std::printf("authority now holds %zu verdicts\n\n", authority->size());

  std::printf("engine B (cold caches, its own TCP connection):\n");
  ContainmentEngine b(&catalog, &symbols, TcpConfig(server.port()));
  RunQuestions("engine B", b, *q1, *q2, *deps);

  const net::AuthorityServerStats sstats = server.stats();
  std::printf("server: %llu connections, %llu requests served\n",
              static_cast<unsigned long long>(sstats.connections_accepted),
              static_cast<unsigned long long>(sstats.requests_served));
  if (b.stats().chases_built == 0 && b.stats().remote_hits > 0) {
    std::printf("engine B never chased: every verdict arrived over the "
                "socket.\n");
  }
  server.Stop();
  return 0;
}
