// The networked verdict authority (src/net/): socket framing over real TCP
// (round trips, torn reads, clean EOFs, oversized-frame rejection), hello
// enforcement and version refusal, the TcpTransport connection discipline
// (reconnect with backoff, identity pinning across reconnects), batched
// fetch-many echo verification against confused peers (via the FlakyTransport
// fault injector and a wrong-echo double), an engine whose authority dies
// degrading to local chase, concurrent clients against one server, and the
// store-backed daemon recipe persisting across a restart.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "engine/serialize.h"
#include "flaky_transport.h"
#include "net/authority_server.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "submit_util.h"

namespace cqchase {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

StoredVerdict MakeVerdict(uint32_t seed) {
  StoredVerdict v;
  v.contained = (seed % 2) == 0;
  v.chase_outcome = static_cast<uint8_t>(seed % 3);
  v.sigma_class = static_cast<uint8_t>(seed % 6);
  v.strategy = static_cast<uint8_t>(seed % 5);
  v.witness_max_level = seed;
  v.chase_levels = seed + 1;
  v.level_bound = 100ULL * seed;
  v.chase_conjuncts = 7ULL * seed;
  return v;
}

// Polls `pred` until true or ~5s pass — for asserting on server-side state
// that a handler thread updates asynchronously.
template <typename Pred>
bool WaitFor(Pred pred, milliseconds timeout = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

// TCP options tuned for tests: fast dials, fast failures, tiny backoff.
net::TcpTransportOptions FastTcpOptions() {
  net::TcpTransportOptions options;
  options.connect_timeout = milliseconds(1000);
  options.rtt_timeout = milliseconds(2000);
  options.backoff_initial = milliseconds(10);
  options.backoff_max = milliseconds(50);
  return options;
}

// --- socket layer ------------------------------------------------------------

TEST(SocketTest, SplitHostPortParsesAndRefuses) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(net::SplitHostPort("127.0.0.1:7450", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7450);
  EXPECT_FALSE(net::SplitHostPort("no-port-here", &host, &port).ok());
  EXPECT_FALSE(net::SplitHostPort("host:", &host, &port).ok());
  EXPECT_FALSE(net::SplitHostPort("host:notanumber", &host, &port).ok());
  EXPECT_FALSE(net::SplitHostPort("host:70000", &host, &port).ok());
  // One endpoint, not a list: the host must not carry a comma or spaces.
  EXPECT_EQ(
      net::SplitHostPort("127.0.0.1:1,127.0.0.1:0", &host, &port).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(net::SplitHostPort("local host:80", &host, &port).code(),
            StatusCode::kInvalidArgument);
}

// A listener + one accepted connection, for driving the framing helpers
// against a real byte stream.
struct SocketPairFixture {
  net::UniqueFd listener;
  uint16_t port = 0;
  net::UniqueFd client;
  net::UniqueFd server;

  bool Init() {
    auto listen = net::ListenTcp("127.0.0.1", 0);
    if (!listen.ok()) return false;
    listener = std::move(listen->first);
    port = listen->second;
    auto dial = net::DialTcp("127.0.0.1", port, milliseconds(1000));
    if (!dial.ok()) return false;
    client = *std::move(dial);
    if (!net::WaitReadable(listener.get(), milliseconds(1000))) return false;
    int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd < 0) return false;
    server = net::UniqueFd(fd);
    return true;
  }
};

TEST(SocketTest, FrameRoundTripsOverRealSockets) {
  SocketPairFixture s;
  ASSERT_TRUE(s.Init());
  const auto deadline = net::DeadlineAfter(milliseconds(2000));

  const std::string request = FrameTierMessage("ping with some payload bytes");
  ASSERT_TRUE(net::SendAll(s.client.get(), request, deadline).ok());

  std::string received;
  ASSERT_TRUE(net::ReadFrame(s.server.get(), kTierMaxFrameBytes, &received,
                             deadline)
                  .ok());
  EXPECT_EQ(received, request);
  std::string payload;
  ASSERT_TRUE(UnframeTierMessage(received, &payload).ok());
  EXPECT_EQ(payload, "ping with some payload bytes");

  // And the other direction, back to back (message boundaries survive).
  ASSERT_TRUE(
      net::SendAll(s.server.get(), FrameTierMessage("pong"), deadline).ok());
  ASSERT_TRUE(
      net::SendAll(s.server.get(), FrameTierMessage("pong2"), deadline).ok());
  std::string first, second;
  ASSERT_TRUE(
      net::ReadFrame(s.client.get(), kTierMaxFrameBytes, &first, deadline)
          .ok());
  ASSERT_TRUE(
      net::ReadFrame(s.client.get(), kTierMaxFrameBytes, &second, deadline)
          .ok());
  ASSERT_TRUE(UnframeTierMessage(first, &payload).ok());
  EXPECT_EQ(payload, "pong");
  ASSERT_TRUE(UnframeTierMessage(second, &payload).ok());
  EXPECT_EQ(payload, "pong2");
}

TEST(SocketTest, TornReadIsInvalidArgumentCleanEofIsNotFound) {
  // Torn: the peer dies mid-message. The half-frame must surface as a
  // confused-peer error, never as a short "answer".
  {
    SocketPairFixture s;
    ASSERT_TRUE(s.Init());
    const std::string framed = FrameTierMessage("a payload long enough");
    const std::string torn = framed.substr(0, framed.size() - 5);
    ASSERT_TRUE(net::SendAll(s.server.get(), torn,
                             net::DeadlineAfter(milliseconds(1000)))
                    .ok());
    s.server.Reset();  // EOF mid-frame
    std::string out;
    Status read = net::ReadFrame(s.client.get(), kTierMaxFrameBytes, &out,
                                 net::DeadlineAfter(milliseconds(2000)));
    EXPECT_EQ(read.code(), StatusCode::kInvalidArgument);
  }
  // Clean: the peer hangs up between messages — reconnectable, distinct code.
  {
    SocketPairFixture s;
    ASSERT_TRUE(s.Init());
    s.server.Reset();
    std::string out;
    Status read = net::ReadFrame(s.client.get(), kTierMaxFrameBytes, &out,
                                 net::DeadlineAfter(milliseconds(2000)));
    EXPECT_EQ(read.code(), StatusCode::kNotFound);
  }
}

TEST(SocketTest, OversizedFramePrefixRejectedBeforePayload) {
  SocketPairFixture s;
  ASSERT_TRUE(s.Init());
  // A length prefix claiming 1 MiB against a 1 KiB bound: rejected from the
  // prefix alone — no payload needs to arrive (none is sent).
  std::string prefix;
  wire::PutU32(prefix, 1u << 20);
  ASSERT_TRUE(net::SendAll(s.server.get(), prefix,
                           net::DeadlineAfter(milliseconds(1000)))
                  .ok());
  std::string out;
  Status read = net::ReadFrame(s.client.get(), /*max_frame_bytes=*/1024, &out,
                               net::DeadlineAfter(milliseconds(2000)));
  EXPECT_EQ(read.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.message().find("frame"), std::string::npos);
}

// --- hello parsing and enforcement -------------------------------------------

// A peer that answers every hello with a fixed protocol version and this
// build's fingerprint — an older or newer build, as far as the wire shows.
class FixedVersionPeer final : public VerdictTransport {
 public:
  explicit FixedVersionPeer(uint32_t version) : version_(version) {}
  Status RoundTrip(const std::string& request, std::string* response) override {
    (void)request;
    std::string payload;
    wire::PutU8(payload, kTierOpHello);
    wire::PutU32(payload, version_);
    wire::PutU64(payload, StoreSchemaFingerprint());
    *response = FrameTierMessage(payload);
    return Status::OK();
  }
  std::string_view Peer() const override { return "fixed"; }

 private:
  const uint32_t version_;
};

TEST(HelloTest, VersionMismatchRefusedAtConnect) {
  ASSERT_EQ(kTierProtocolVersion, 3u);  // the wire bytes this build speaks
  for (uint32_t version : {0u, 2u, 4u}) {
    Result<std::unique_ptr<RemoteTier>> tier =
        RemoteTier::Connect(std::make_shared<FixedVersionPeer>(version));
    ASSERT_FALSE(tier.ok()) << "v" << version;
    EXPECT_EQ(tier.status().code(), StatusCode::kFailedPrecondition);
    // The refusal names both numbers.
    const std::string message(tier.status().message());
    EXPECT_NE(message.find(StrCat("v", version)), std::string::npos)
        << message;
    EXPECT_NE(message.find(StrCat("v", kTierProtocolVersion)),
              std::string::npos)
        << message;
  }
  ASSERT_TRUE(RemoteTier::Connect(
                  std::make_shared<FixedVersionPeer>(kTierProtocolVersion))
                  .ok());

  // Malformed (truncated) hello is a different refusal.
  std::string truncated;
  wire::PutU8(truncated, kTierOpHello);
  uint64_t fingerprint = 0;
  Status bad =
      ParseTierHelloResponse(FrameTierMessage(truncated), "peer", &fingerprint);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, FirstFrameMustBeHello) {
  auto authority = std::make_shared<VerdictAuthority>();
  net::VerdictAuthorityServer server(authority);
  ASSERT_TRUE(server.Start().ok());

  // Lead with a fetch instead of a hello: the server must disconnect us
  // before any verdict flows, and count the offense.
  auto dial = net::DialTcp("127.0.0.1", server.port(), milliseconds(1000));
  ASSERT_TRUE(dial.ok());
  std::string fetch;
  wire::PutU8(fetch, kTierOpFetch);
  wire::PutString(fetch, "some-key");
  ASSERT_TRUE(net::SendAll(dial->get(), FrameTierMessage(fetch),
                           net::DeadlineAfter(milliseconds(1000)))
                  .ok());
  std::string out;
  Status read = net::ReadFrame(dial->get(), kTierMaxFrameBytes, &out,
                               net::DeadlineAfter(milliseconds(3000)));
  EXPECT_FALSE(read.ok());  // connection dropped, no response

  EXPECT_TRUE(WaitFor([&] { return server.stats().handshake_failures == 1; }));
  EXPECT_EQ(server.stats().requests_served, 0u);
  server.Stop();
}

TEST(ServerTest, StalledPeerMidFrameIsCutOffByIoTimeout) {
  auto authority = std::make_shared<VerdictAuthority>();
  net::AuthorityServerOptions options;
  options.io_timeout = milliseconds(200);
  net::VerdictAuthorityServer server(authority, options);
  ASSERT_TRUE(server.Start().ok());

  auto dial = net::DialTcp("127.0.0.1", server.port(), milliseconds(1000));
  ASSERT_TRUE(dial.ok());
  // Send only a length prefix promising payload that never follows. The
  // handler's io_timeout clock starts on those first bytes — and only fires
  // because accepted fds are non-blocking (a blocking fd would park recv
  // forever and pin the handler thread).
  std::string prefix;
  wire::PutU32(prefix, 64);
  ASSERT_TRUE(net::SendAll(dial->get(), prefix,
                           net::DeadlineAfter(milliseconds(1000)))
                  .ok());
  EXPECT_TRUE(WaitFor([&] { return server.stats().protocol_errors == 1; }));
  EXPECT_TRUE(WaitFor([&] { return server.stats().connections_open == 0; }));
  server.Stop();
}

TEST(ServerTest, StopWhileClientsMidRequestDoesNotDeadlock) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(5));
  net::VerdictAuthorityServer server(authority);
  ASSERT_TRUE(server.Start().ok());

  // Clients hammer lookups so handlers are mid-request when the drain
  // begins — the state that used to deadlock Stop(), which joined handler
  // threads while holding the lock those handlers need to exit.
  std::atomic<bool> halt{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      Result<std::unique_ptr<RemoteTier>> tier =
          RemoteTier::Connect(std::make_shared<net::TcpTransport>(
              "127.0.0.1", server.port(), FastTcpOptions()));
      if (!tier.ok()) return;
      while (!halt.load()) (void)(*tier)->Lookup("k");
    });
  }
  EXPECT_TRUE(WaitFor([&] { return server.stats().requests_served > 10; }));

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.Stop();
    stopped.store(true);
  });
  EXPECT_TRUE(WaitFor([&] { return stopped.load(); }));
  halt.store(true);
  stopper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(server.stats().connections_open, 0u);
}

TEST(ServerTest, ClosedConnectionRowsAreBounded) {
  auto authority = std::make_shared<VerdictAuthority>();
  net::AuthorityServerOptions options;
  options.max_closed_connection_rows = 2;
  net::VerdictAuthorityServer server(authority, options);
  ASSERT_TRUE(server.Start().ok());

  // Churn: connections come and go; the daemon must not retain a record per
  // connection forever.
  const size_t kChurn = 5;
  for (size_t i = 0; i < kChurn; ++i) {
    Result<std::unique_ptr<RemoteTier>> tier =
        RemoteTier::Connect(std::make_shared<net::TcpTransport>(
            "127.0.0.1", server.port(), FastTcpOptions()));
    ASSERT_TRUE(tier.ok()) << tier.status();
    (void)(*tier)->Lookup("k");
  }  // each scope exit closes the socket
  EXPECT_TRUE(WaitFor([&] { return server.stats().connections_open == 0; }));

  // The next accept reaps the churned records into the bounded history.
  Result<std::unique_ptr<RemoteTier>> live =
      RemoteTier::Connect(std::make_shared<net::TcpTransport>(
          "127.0.0.1", server.port(), FastTcpOptions()));
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_TRUE(WaitFor([&] {
    return server.stats().connections_accepted == kChurn + 1;
  }));
  // At most the 2 retained closed rows plus the live connection; aggregate
  // counters still remember everything.
  EXPECT_LE(server.connections().size(), 3u);
  EXPECT_EQ(server.stats().connections_accepted, kChurn + 1);
  server.Stop();
}

// --- TcpTransport end to end -------------------------------------------------

TEST(TcpTransportTest, FetchPublishAndBatchedFetchOverRealTcp) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k1", MakeVerdict(3));
  net::VerdictAuthorityServer server(authority);
  ASSERT_TRUE(server.Start().ok());

  auto transport = std::make_shared<net::TcpTransport>(
      "127.0.0.1", server.port(), FastTcpOptions());
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(transport);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(transport->pinned_fingerprint(), StoreSchemaFingerprint());

  // Single fetch: the seeded verdict arrives over the wire, byte-faithful.
  std::optional<StoredVerdict> hit = (*tier)->Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->witness_max_level, 3u);

  // Write-behind publish lands on the authority after Flush.
  EXPECT_TRUE((*tier)->Publish("k2", MakeVerdict(9)));
  ASSERT_TRUE((*tier)->Flush().ok());
  EXPECT_TRUE(WaitFor([&] { return authority->size() == 2; }));

  // Batched fetch: one kTierOpFetchMany round trip answers a mixed burst.
  std::vector<std::optional<StoredVerdict>> got =
      (*tier)->LookupMany({"k2", "unknown-a", "unknown-b"});
  ASSERT_EQ(got.size(), 3u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(got[0]->witness_max_level, 9u);
  EXPECT_FALSE(got[1].has_value());
  EXPECT_FALSE(got[2].has_value());
  const VerdictAuthority::Stats astats = authority->stats();
  EXPECT_EQ(astats.fetch_many_requests, 1u);
  EXPECT_EQ(astats.fetch_many_keys, 3u);
  EXPECT_EQ(astats.fetch_many_hits, 1u);
  EXPECT_GE((*tier)->Stats().batched_fetches, 1u);
  server.Stop();
}

TEST(TcpTransportTest, ReconnectsAfterAuthorityRestart) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(6));
  auto server = std::make_unique<net::VerdictAuthorityServer>(authority);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  auto transport =
      std::make_shared<net::TcpTransport>("127.0.0.1", port, FastTcpOptions());
  RemoteTierOptions tier_options;
  tier_options.negative_ttl = milliseconds(0);  // retry the wire every probe
  Result<std::unique_ptr<RemoteTier>> tier =
      RemoteTier::Connect(transport, tier_options);
  ASSERT_TRUE(tier.ok()) << tier.status();
  ASSERT_TRUE((*tier)->Lookup("k").has_value());

  // The authority restarts (same map, same identity, same port). The link
  // drops; lookups degrade to misses during the outage, then the transport
  // reconnects through its backoff and the verdict flows again.
  server->Stop();
  server.reset();
  EXPECT_FALSE((*tier)->Lookup("k").has_value());

  server = std::make_unique<net::VerdictAuthorityServer>(authority, [&] {
    net::AuthorityServerOptions options;
    options.port = port;
    return options;
  }());
  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(WaitFor([&] { return (*tier)->Lookup("k").has_value(); }));
  EXPECT_GE(transport->TransportStats().reconnects, 1u);
  EXPECT_GE((*tier)->Stats().reconnects, 1u);  // surfaced through tier stats
  server->Stop();
}

TEST(TcpTransportTest, ReconnectToDifferentAuthorityRefused) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(6));
  auto server = std::make_unique<net::VerdictAuthorityServer>(authority);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  auto transport =
      std::make_shared<net::TcpTransport>("127.0.0.1", port, FastTcpOptions());
  RemoteTierOptions tier_options;
  tier_options.negative_ttl = milliseconds(0);
  Result<std::unique_ptr<RemoteTier>> tier =
      RemoteTier::Connect(transport, tier_options);
  ASSERT_TRUE(tier.ok()) << tier.status();
  ASSERT_TRUE((*tier)->Lookup("k").has_value());
  const uint64_t pinned = transport->pinned_fingerprint();

  // The address is reused by a *different* authority (fingerprint drift — a
  // peer upgrade, or another service entirely). Every reconnect must refuse:
  // misses forever, never a verdict from a map with a different key scheme.
  server->Stop();
  server.reset();
  VerdictAuthority::Options other;
  other.fingerprint = StoreSchemaFingerprint() ^ 0xBADF00D;
  auto impostor = std::make_shared<VerdictAuthority>(other);
  impostor->Put("k", MakeVerdict(99));  // the wrong "k"
  server = std::make_unique<net::VerdictAuthorityServer>(impostor, [&] {
    net::AuthorityServerOptions options;
    options.port = port;
    return options;
  }());
  ASSERT_TRUE(server->Start().ok());

  const auto deadline = steady_clock::now() + milliseconds(500);
  while (steady_clock::now() < deadline) {
    EXPECT_FALSE((*tier)->Lookup("k").has_value());
    std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_EQ(transport->pinned_fingerprint(), pinned);  // identity stays pinned
  EXPECT_EQ(transport->TransportStats().reconnects, 0u);
  server->Stop();
}

// --- confused peers: garbled frames and broken echo --------------------------

TEST(FaultInjectionTest, GarbledResponsesDegradeToMissNeverWrong) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(4));
  testing_support::FlakyTransportOptions flaky;
  flaky.garble_rate = 1.0;  // every data response corrupted (hello spared)
  auto transport = std::make_shared<testing_support::FlakyTransport>(
      std::make_shared<InProcessTransport>(authority), flaky);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(transport);
  ASSERT_TRUE(tier.ok()) << tier.status();

  // The checksum catches the corruption: miss, counted error, no garbage.
  EXPECT_FALSE((*tier)->Lookup("k").has_value());
  EXPECT_GE((*tier)->Stats().transport_errors, 1u);
  // Same discipline for a batched burst.
  (*tier)->Clear();
  std::vector<std::optional<StoredVerdict>> got =
      (*tier)->LookupMany({"k", "k2"});
  EXPECT_FALSE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());
  EXPECT_GE(transport->garbled(), 2u);
}

TEST(FaultInjectionTest, DroppedRoundTripsDegradeToMiss) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(4));
  testing_support::FlakyTransportOptions flaky;
  flaky.drop_rate = 1.0;
  auto transport = std::make_shared<testing_support::FlakyTransport>(
      std::make_shared<InProcessTransport>(authority), flaky);
  RemoteTierOptions tier_options;
  tier_options.negative_ttl = std::chrono::minutes(5);  // cannot flake slow
  Result<std::unique_ptr<RemoteTier>> tier =
      RemoteTier::Connect(transport, tier_options);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_FALSE((*tier)->Lookup("k").has_value());
  EXPECT_GE(transport->dropped(), 1u);
  // The negative cache absorbs the retry storm while the link is down.
  EXPECT_FALSE((*tier)->Lookup("k").has_value());
  EXPECT_EQ(transport->dropped(), 1u);
}

// A peer that answers fetch-many with the right shape but the wrong key
// echoes — a confused authority whose answers must not be trusted.
class WrongEchoTransport final : public VerdictTransport {
 public:
  explicit WrongEchoTransport(std::shared_ptr<VerdictAuthority> authority)
      : authority_(std::move(authority)) {}

  Status RoundTrip(const std::string& request, std::string* response) override {
    std::string payload;
    CQCHASE_RETURN_IF_ERROR(UnframeTierMessage(request, &payload));
    if (static_cast<uint8_t>(payload[0]) != kTierOpFetchMany) {
      return authority_->Handle(request, response);
    }
    wire::ByteReader reader(payload);
    uint8_t op = 0;
    uint32_t count = 0;
    if (!reader.ReadU8(&op) || !reader.ReadU32(&count)) {
      return Status::InvalidArgument("malformed fetch-many");
    }
    std::string reply;
    wire::PutU8(reply, kTierOpFetchMany);
    wire::PutU32(reply, count);
    for (uint32_t i = 0; i < count; ++i) {
      wire::PutU8(reply, 0);
      wire::PutString(reply, "some-other-key");  // echo does not match
    }
    *response = FrameTierMessage(reply);
    return Status::OK();
  }
  std::string_view Peer() const override { return "wrong-echo"; }

 private:
  std::shared_ptr<VerdictAuthority> authority_;
};

TEST(FaultInjectionTest, FetchManyEchoMismatchRejectsWholeChunk) {
  auto authority = std::make_shared<VerdictAuthority>();
  auto transport = std::make_shared<WrongEchoTransport>(authority);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(transport);
  ASSERT_TRUE(tier.ok()) << tier.status();

  std::vector<std::optional<StoredVerdict>> got =
      (*tier)->LookupMany({"a", "b"});
  EXPECT_FALSE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());
  EXPECT_GE((*tier)->Stats().transport_errors, 1u);
}

// --- concurrent clients ------------------------------------------------------

TEST(ServerTest, ManyConcurrentClientsServedCorrectly) {
  auto authority = std::make_shared<VerdictAuthority>();
  const size_t kKeys = 16;
  for (size_t i = 0; i < kKeys; ++i) {
    authority->Put(StrCat("key", i), MakeVerdict(static_cast<uint32_t>(i)));
  }
  net::VerdictAuthorityServer server(authority);
  ASSERT_TRUE(server.Start().ok());

  const size_t kClients = 6;
  std::atomic<size_t> correct{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<RemoteTier>> tier =
          RemoteTier::Connect(std::make_shared<net::TcpTransport>(
              "127.0.0.1", server.port(), FastTcpOptions()));
      if (!tier.ok()) return;
      // Half the clients burst (fetch-many), half probe key by key.
      if (c % 2 == 0) {
        std::vector<std::string> keys;
        for (size_t i = 0; i < kKeys; ++i) keys.push_back(StrCat("key", i));
        std::vector<std::optional<StoredVerdict>> got =
            (*tier)->LookupMany(keys);
        for (size_t i = 0; i < kKeys; ++i) {
          if (got[i].has_value() && got[i]->witness_max_level == i) ++correct;
        }
      } else {
        for (size_t i = 0; i < kKeys; ++i) {
          std::optional<StoredVerdict> got = (*tier)->Lookup(StrCat("key", i));
          if (got.has_value() && got->witness_max_level == i) ++correct;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(correct.load(), kClients * kKeys);
  const net::AuthorityServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_GT(stats.requests_served, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().connections_open, 0u);
}

// --- engine over TCP, authority dead ----------------------------------------

class NetEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kRelations = 8;

  void SetUp() override {
    // One chase-requiring containment question per relation pair: Ri(u,v) is
    // contained in Ri(u,v),Si(v,w) exactly because the IND Ri[2] <= Si[1]
    // makes the chase add the Si fact — so a cold engine MUST either chase
    // or be served the verdict, and each task has a distinct canonical key.
    std::string deps_text;
    for (size_t i = 0; i < kRelations; ++i) {
      ASSERT_TRUE(catalog_.AddRelation(StrCat("R", i), {"a", "b"}).ok());
      ASSERT_TRUE(catalog_.AddRelation(StrCat("S", i), {"x", "y"}).ok());
      deps_text += StrCat("R", i, "[2] <= S", i, "[1]; ");
    }
    Result<DependencySet> deps = ParseDependencies(catalog_, deps_text);
    ASSERT_TRUE(deps.ok()) << deps.status();
    deps_ = *std::move(deps);
    for (size_t i = 0; i < kRelations; ++i) {
      lhs_.push_back(Parse(StrCat("ans(u) :- R", i, "(u, v)")));
      rhs_.push_back(
          Parse(StrCat("ans(u) :- R", i, "(u, v), S", i, "(v, w)")));
    }
  }

  ConjunctiveQuery Parse(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  }

  EngineConfig TcpConfig(uint16_t port) {
    EngineConfig config;
    config.tiers = {TierSpec::Lru(64),
                    TierSpec::Remote(std::make_shared<net::TcpTransport>(
                        "127.0.0.1", port, FastTcpOptions()))};
    return config;
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
  std::vector<ConjunctiveQuery> lhs_;
  std::vector<ConjunctiveQuery> rhs_;
};

TEST_F(NetEngineTest, DeadAuthorityDegradesToLocalChaseNeverErrors) {
  auto authority = std::make_shared<VerdictAuthority>();
  auto server = std::make_unique<net::VerdictAuthorityServer>(authority);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  // Engine one decides the workload and publishes it to the authority.
  std::vector<bool> truth;
  {
    ContainmentEngine one(&catalog_, &symbols_, TcpConfig(port));
    for (const Result<EngineVerdict>& v :
         DecideAll(one, BorrowAll(lhs_, rhs_, deps_))) {
      ASSERT_TRUE(v.ok()) << v.status();
      truth.push_back(v->report.contained);
    }
    // Guards the task design: these questions cannot be answered for free.
    EXPECT_EQ(one.stats().chases_built, kRelations);
    // Scope exit drains the write-behind publish over the socket.
  }
  EXPECT_EQ(authority->size(), kRelations);  // distinct key per relation

  // Engine two connects (its hello succeeds), then the authority dies
  // before the burst. Every request must still answer by chasing locally —
  // degraded, never wrong, never an error.
  ContainmentEngine two(&catalog_, &symbols_, TcpConfig(port));
  ASSERT_TRUE(two.tier_descriptors().back().active);
  server->Stop();
  server.reset();

  std::vector<Result<EngineVerdict>> got =
      DecideAll(two, BorrowAll(lhs_, rhs_, deps_));
  ASSERT_EQ(got.size(), kRelations);
  for (size_t i = 0; i < kRelations; ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    EXPECT_EQ(got[i]->report.contained, truth[i]) << "task " << i;
  }
  const EngineStats stats = two.stats();
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_EQ(stats.chases_built, kRelations);
}

// --- store-backed daemon recipe ----------------------------------------------

TEST(StoreBackedAuthorityTest, PublishesSurviveRestart) {
  const std::string dir =
      StrCat(::testing::TempDir(), "/cqchase_net_store_restart");
  for (const char* file :
       {"/snapshot.cqvs", "/snapshot.cqvs.tmp", "/snapshot.cqvs.quarantine",
        "/log.cqvl", "/log.cqvl.quarantine", "/LOCK"}) {
    std::remove(StrCat(dir, file).c_str());
  }
  ::rmdir(dir.c_str());

  // First life: serve over TCP, take a publish, flush, shut down.
  {
    Result<net::StoreBackedAuthority> backed =
        net::MakeStoreBackedAuthority(dir);
    ASSERT_TRUE(backed.ok()) << backed.status();
    net::VerdictAuthorityServer server(backed->authority);
    ASSERT_TRUE(server.Start().ok());

    Result<std::unique_ptr<RemoteTier>> tier =
        RemoteTier::Connect(std::make_shared<net::TcpTransport>(
            "127.0.0.1", server.port(), FastTcpOptions()));
    ASSERT_TRUE(tier.ok()) << tier.status();
    EXPECT_TRUE((*tier)->Publish("persistent-key", MakeVerdict(12)));
    ASSERT_TRUE((*tier)->Flush().ok());
    EXPECT_TRUE(
        WaitFor([&] { return backed->authority->size() == 1; }));
    server.Stop();
    ASSERT_TRUE(backed->store->Flush().ok());
  }

  // Second life: the store seeds the authority; the verdict is served over
  // a brand-new socket without anyone re-publishing it.
  Result<net::StoreBackedAuthority> backed =
      net::MakeStoreBackedAuthority(dir);
  ASSERT_TRUE(backed.ok()) << backed.status();
  EXPECT_EQ(backed->authority->size(), 1u);
  net::VerdictAuthorityServer server(backed->authority);
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<RemoteTier>> tier =
      RemoteTier::Connect(std::make_shared<net::TcpTransport>(
          "127.0.0.1", server.port(), FastTcpOptions()));
  ASSERT_TRUE(tier.ok()) << tier.status();
  std::optional<StoredVerdict> got = (*tier)->Lookup("persistent-key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->witness_max_level, 12u);
  server.Stop();
}

}  // namespace
}  // namespace cqchase
