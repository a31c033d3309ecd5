// The pluggable verdict-tier hierarchy (engine/tier.h + remote_tier.h):
// stack assembly from specs, probe order with hit promotion into cheaper
// tiers, the split of a probe into its in-process prefix and the rest (from
// the first remote tier on), the schema-fingerprint handshake (a mismatched
// peer is quarantined with a loud reason, never silently served),
// TTL expiry of remote negative entries, transport-failure degradation, and
// the end-to-end loopback contract: a second engine with cold local caches
// answers a shared workload entirely over the RemoteTier, zero chases.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/string_util.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "engine/serialize.h"
#include "engine/tier.h"

namespace cqchase {
namespace {

using std::chrono::milliseconds;

std::string NewStoreDir(const std::string& name) {
  const std::string dir = StrCat(::testing::TempDir(), "/cqchase_tier_", name);
  for (const char* file :
       {"/snapshot.cqvs", "/snapshot.cqvs.tmp", "/snapshot.cqvs.quarantine",
        "/log.cqvl", "/log.cqvl.quarantine", "/LOCK"}) {
    std::remove(StrCat(dir, file).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

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

// A transport that answers the hello (so Connect succeeds) and fails every
// later round trip — a peer that died right after the handshake.
class DeadAfterHelloTransport final : public VerdictTransport {
 public:
  explicit DeadAfterHelloTransport(std::shared_ptr<VerdictAuthority> authority)
      : authority_(std::move(authority)) {}

  Status RoundTrip(const std::string& request, std::string* response) override {
    if (hellos_served_ == 0) {
      ++hellos_served_;
      return authority_->Handle(request, response);
    }
    ++failures_;
    return Status::Internal("peer unreachable");
  }
  std::string_view Peer() const override { return "dead-after-hello"; }

  int failures() const { return failures_; }

 private:
  std::shared_ptr<VerdictAuthority> authority_;
  int hellos_served_ = 0;
  int failures_ = 0;
};

// --- stack assembly ----------------------------------------------------------

TEST(TierStackTest, AssemblesLruAndLocalStoreInOrder) {
  const std::string dir = NewStoreDir("assemble");
  std::unique_ptr<TierStack> stack = TierStack::Assemble(
      {TierSpec::Lru(64), TierSpec::LocalStore(dir)});
  const auto& descs = stack->descriptors();
  ASSERT_EQ(descs.size(), 2u);
  EXPECT_EQ(descs[0].name, "lru");
  EXPECT_TRUE(descs[0].active);
  EXPECT_EQ(descs[1].kind, TierSpec::Kind::kLocalStore);
  EXPECT_TRUE(descs[1].active);
  EXPECT_NE(stack->local_store(), nullptr);
}

TEST(TierStackTest, HitPromotesIntoCheaperTiers) {
  const std::string dir = NewStoreDir("promote");
  std::unique_ptr<TierStack> stack = TierStack::Assemble(
      {TierSpec::Lru(64), TierSpec::LocalStore(dir)});
  TierStack& s = *stack;

  const StoredVerdict v = MakeVerdict(7);
  TierStack::PublishReceipt receipt = s.Publish("k", v);
  EXPECT_EQ(receipt.accepted, 2u);
  EXPECT_TRUE(receipt.buffered_writes);  // the store buffered a log append

  // Served by the LRU while it holds the key.
  std::optional<TierStack::LookupResult> hit = s.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kLru);

  // Clear volatile state: the next lookup falls through to the store and
  // the hit is promoted back into the LRU.
  s.Clear();
  hit = s.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kLocalStore);
  hit = s.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kLru);
}

TEST(TierStackTest, LocalProbeStopsBeforeTheRemoteTier) {
  const std::string dir = NewStoreDir("probe_split");
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("remote", MakeVerdict(4));
  std::unique_ptr<TierStack> stack = TierStack::Assemble(
      {TierSpec::Lru(64), TierSpec::LocalStore(dir),
       TierSpec::Remote(std::make_shared<InProcessTransport>(authority))});
  TierStack& s = *stack;
  s.Publish("local", MakeVerdict(5));
  s.Clear();  // "local" now sits in the store (and the remote buffer)

  // The in-process prefix answers from the store, never asks the peer.
  std::optional<TierStack::LookupResult> hit =
      s.Lookup("local", TierStack::Probe::kLocal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kLocalStore);
  EXPECT_FALSE(s.Lookup("remote", TierStack::Probe::kLocal).has_value());
  EXPECT_EQ(authority->stats().fetches, 0u);

  // The rest starts at the remote tier, and its hit is promoted into both
  // in-process tiers, so the next local probe answers from the LRU.
  hit = s.Lookup("remote", TierStack::Probe::kRest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kRemote);
  EXPECT_TRUE(hit->buffered_writes);  // the store buffered the promotion
  hit = s.Lookup("remote", TierStack::Probe::kLocal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, TierSpec::Kind::kLru);
}

// --- fingerprint handshake ---------------------------------------------------

TEST(TierStackTest, FingerprintMismatchQuarantinesTierWithLoudReason) {
  VerdictAuthority::Options opts;
  opts.fingerprint = StoreSchemaFingerprint() + 1;  // an "older peer"
  auto authority = std::make_shared<VerdictAuthority>(opts);
  authority->Put("k", MakeVerdict(2));

  std::unique_ptr<TierStack> stack = TierStack::Assemble(
      {TierSpec::Lru(64),
       TierSpec::Remote(std::make_shared<InProcessTransport>(authority))});
  const auto& descs = stack->descriptors();
  ASSERT_EQ(descs.size(), 2u);
  EXPECT_TRUE(descs[0].active);
  // Disabled with a store_status-style reason, never silently served.
  EXPECT_FALSE(descs[1].active);
  EXPECT_EQ(descs[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(descs[1].status.message().find("fingerprint"), std::string::npos);
  // The peer's entry is unreachable through the stack: a mismatched key
  // scheme could alias different tasks, so the tier must not serve.
  EXPECT_FALSE(stack->Lookup("k").has_value());
  // The rest of the stack works.
  stack->Publish("k2", MakeVerdict(9));
  EXPECT_TRUE(stack->Lookup("k2").has_value());
}

// --- remote tier: negative entries + degradation -----------------------------

TEST(RemoteTierTest, NegativeEntryPinsMissWithinTtl) {
  // A TTL far beyond test runtime, so the within-TTL assertions cannot
  // flake on a loaded (or TSan-slowed) host.
  auto authority = std::make_shared<VerdictAuthority>();
  RemoteTierOptions options;
  options.negative_ttl = std::chrono::minutes(5);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(
      std::make_shared<InProcessTransport>(authority), options);
  ASSERT_TRUE(tier.ok()) << tier.status();
  RemoteTier& remote = **tier;

  // First miss fetches; the second is served by the negative cache.
  EXPECT_FALSE(remote.Lookup("k").has_value());
  EXPECT_EQ(authority->stats().fetches, 1u);
  EXPECT_FALSE(remote.Lookup("k").has_value());
  EXPECT_EQ(authority->stats().fetches, 1u);
  EXPECT_EQ(remote.Stats().negative_hits, 1u);

  // The authority learns the verdict. Within the TTL the peer still says
  // miss — that is the contract: bounded staleness, zero extra round trips.
  authority->Put("k", MakeVerdict(8));
  EXPECT_FALSE(remote.Lookup("k").has_value());
  EXPECT_EQ(authority->stats().fetches, 1u);
}

TEST(RemoteTierTest, NegativeEntryExpiresAfterTtl) {
  // The inverse bound only needs sleep > TTL, which cannot flake slow.
  auto authority = std::make_shared<VerdictAuthority>();
  RemoteTierOptions options;
  options.negative_ttl = milliseconds(20);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(
      std::make_shared<InProcessTransport>(authority), options);
  ASSERT_TRUE(tier.ok()) << tier.status();
  RemoteTier& remote = **tier;

  EXPECT_FALSE(remote.Lookup("k").has_value());  // negative-cached
  authority->Put("k", MakeVerdict(8));

  // After the TTL the negative entry expires: "unknown" was never pinned,
  // the peer re-fetches and gets the verdict.
  std::this_thread::sleep_for(milliseconds(60));
  std::optional<StoredVerdict> hit = remote.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->witness_max_level, 8u);
  EXPECT_EQ(remote.Stats().negatives_expired, 1u);
  EXPECT_EQ(authority->stats().fetches, 2u);
}

TEST(RemoteTierTest, PublishIsWriteBehindThroughFlush) {
  auto authority = std::make_shared<VerdictAuthority>();
  Result<std::unique_ptr<RemoteTier>> tier =
      RemoteTier::Connect(std::make_shared<InProcessTransport>(authority));
  ASSERT_TRUE(tier.ok());

  EXPECT_TRUE((*tier)->Publish("k", MakeVerdict(5)));
  EXPECT_FALSE((*tier)->Publish("k", MakeVerdict(5)));  // dedup by key
  EXPECT_TRUE((*tier)->HasPendingWrites());
  EXPECT_EQ(authority->size(), 0u);  // nothing moved yet: write-behind

  ASSERT_TRUE((*tier)->Flush().ok());
  EXPECT_FALSE((*tier)->HasPendingWrites());
  EXPECT_EQ(authority->size(), 1u);
  EXPECT_EQ(authority->stats().publishes_accepted, 1u);
}

TEST(RemoteTierTest, TransportFailureDegradesToMissNeverWrong) {
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("k", MakeVerdict(4));
  auto transport = std::make_shared<DeadAfterHelloTransport>(authority);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(transport);
  ASSERT_TRUE(tier.ok()) << tier.status();

  // The peer died: lookups degrade to misses (the engine recomputes), the
  // error is counted, and the negative cache keeps the tier from hammering
  // the dead link on every probe.
  EXPECT_FALSE((*tier)->Lookup("k").has_value());
  EXPECT_EQ((*tier)->Stats().transport_errors, 1u);
  EXPECT_FALSE((*tier)->Lookup("k").has_value());
  EXPECT_EQ((*tier)->Stats().transport_errors, 1u);  // negative-cache hit

  // A failed flush requeues the batch for a later retry — and a buffered
  // verdict is served from pending_ without a round trip: this tier
  // already knows the answer even while the peer is down.
  EXPECT_TRUE((*tier)->Publish("k2", MakeVerdict(6)));
  EXPECT_FALSE((*tier)->Flush().ok());
  EXPECT_TRUE((*tier)->HasPendingWrites());
  EXPECT_GE((*tier)->Stats().flush_failures, 1u);
  const int failures_before = transport->failures();
  std::optional<StoredVerdict> buffered = (*tier)->Lookup("k2");
  ASSERT_TRUE(buffered.has_value());
  EXPECT_EQ(buffered->witness_max_level, 6u);
  EXPECT_EQ(transport->failures(), failures_before);  // no round trip
}

TEST(RemoteTierTest, BatchedFetchPopulatesNegativeCacheForMisses) {
  // A batched miss must enter the negative cache exactly like a single-key
  // miss — otherwise a hot burst of unknown keys re-asks the authority on
  // every probe (the stampede the negative cache exists to absorb).
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("known", MakeVerdict(3));
  RemoteTierOptions options;
  options.negative_ttl = std::chrono::minutes(5);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(
      std::make_shared<InProcessTransport>(authority), options);
  ASSERT_TRUE(tier.ok()) << tier.status();

  std::vector<std::optional<StoredVerdict>> got =
      (*tier)->LookupMany({"known", "miss-a", "miss-b"});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());
  EXPECT_FALSE(got[2].has_value());
  const uint64_t wire_fetches = authority->stats().fetch_many_requests +
                                authority->stats().fetches;

  // Re-probing the missed keys — singly or batched — is served from the
  // negative cache: zero further round trips within the TTL.
  EXPECT_FALSE((*tier)->Lookup("miss-a").has_value());
  std::vector<std::optional<StoredVerdict>> again =
      (*tier)->LookupMany({"miss-a", "miss-b"});
  EXPECT_FALSE(again[0].has_value());
  EXPECT_FALSE(again[1].has_value());
  EXPECT_EQ(authority->stats().fetch_many_requests + authority->stats().fetches,
            wire_fetches);
  EXPECT_GE((*tier)->Stats().negative_hits, 3u);
}

TEST(RemoteTierTest, BatchedFetchSkipsNegativeCachedKeys) {
  // The inverse direction: keys already negative-cached by earlier lookups
  // must not ride a later batch — the chunk carries only genuinely unknown
  // keys (and an all-cached burst touches the wire not at all).
  auto authority = std::make_shared<VerdictAuthority>();
  authority->Put("fresh", MakeVerdict(7));
  RemoteTierOptions options;
  options.negative_ttl = std::chrono::minutes(5);
  Result<std::unique_ptr<RemoteTier>> tier = RemoteTier::Connect(
      std::make_shared<InProcessTransport>(authority), options);
  ASSERT_TRUE(tier.ok()) << tier.status();

  EXPECT_FALSE((*tier)->Lookup("cold-a").has_value());  // negative-cached
  EXPECT_FALSE((*tier)->Lookup("cold-b").has_value());  // negative-cached

  std::vector<std::optional<StoredVerdict>> got =
      (*tier)->LookupMany({"cold-a", "fresh", "cold-b"});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(got[0].has_value());
  ASSERT_TRUE(got[1].has_value());
  EXPECT_EQ(got[1]->witness_max_level, 7u);
  EXPECT_FALSE(got[2].has_value());
  // The batch asked the authority for exactly one key: "fresh".
  EXPECT_EQ(authority->stats().fetch_many_keys, 1u);

  // Entirely negative-cached burst: no round trip at all.
  const VerdictAuthority::Stats before = authority->stats();
  std::vector<std::optional<StoredVerdict>> cached =
      (*tier)->LookupMany({"cold-a", "cold-b"});
  EXPECT_FALSE(cached[0].has_value());
  EXPECT_FALSE(cached[1].has_value());
  EXPECT_EQ(authority->stats().fetch_many_requests, before.fetch_many_requests);
  EXPECT_EQ(authority->stats().fetches, before.fetches);
}

// --- engine integration ------------------------------------------------------

class TierEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("S", {"x", "y"}).ok());
    deps_ = *ParseDependencies(catalog_, "R[2] <= S[1]");
  }

  ConjunctiveQuery Parse(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
};

TEST_F(TierEngineTest, DefaultConfigIsSingleLruTier) {
  ContainmentEngine engine(&catalog_, &symbols_);
  const auto descs = engine.tier_descriptors();
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(descs[0].kind, TierSpec::Kind::kLru);
  EXPECT_EQ(engine.store(), nullptr);

  // Per-tier counters line up with the engine-level cache counters.
  Result<EngineVerdict> v = engine.Check(
      Parse("ans(u) :- R(u, v)"), Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(v.ok());
  Result<EngineVerdict> again = engine.Check(
      Parse("ans(u) :- R(u, v)"), Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  const auto tiers = engine.tier_stats();
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_EQ(tiers[0].hits, engine.stats().cache_hits);
  EXPECT_EQ(tiers[0].publishes, 1u);
}

TEST_F(TierEngineTest, SecondEngineServedEntirelyOverLoopbackRemote) {
  auto authority = std::make_shared<VerdictAuthority>();

  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery q2 = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp2 = Parse("ans(u) :- S(u, w)");

  bool contained_1 = false;
  bool contained_2 = false;
  {
    // Engine A decides and publishes to the shared authority; its teardown
    // drains the write-behind flush, like a process shutting down.
    EngineConfig config;
    config.tiers = {TierSpec::Lru(1 << 10),
                    TierSpec::Remote(
                        std::make_shared<InProcessTransport>(authority))};
    ContainmentEngine a(&catalog_, &symbols_, config);
    Result<EngineVerdict> v1 = a.Check(q, qp, deps_);
    Result<EngineVerdict> v2 = a.Check(q2, qp2, deps_);
    ASSERT_TRUE(v1.ok());
    ASSERT_TRUE(v2.ok());
    contained_1 = v1->report.contained;
    contained_2 = v2->report.contained;
    EXPECT_GT(a.stats().chases_built, 0u);
  }
  EXPECT_EQ(authority->size(), 2u);

  // Engine B: cold local caches, same authority. Every verdict arrives over
  // the loopback RemoteTier — zero chases built.
  EngineConfig config;
  config.tiers = {TierSpec::Lru(1 << 10),
                  TierSpec::Remote(
                      std::make_shared<InProcessTransport>(authority))};
  ContainmentEngine b(&catalog_, &symbols_, config);
  Result<EngineVerdict> v1 = b.Check(q, qp, deps_);
  Result<EngineVerdict> v2 = b.Check(q2, qp2, deps_);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->report.contained, contained_1);
  EXPECT_EQ(v2->report.contained, contained_2);
  EXPECT_TRUE(v1->remote_hit);
  EXPECT_TRUE(v1->cache_hit);
  EXPECT_FALSE(v1->store_hit);
  EXPECT_EQ(b.stats().chases_built, 0u);
  EXPECT_EQ(b.stats().remote_hits, 2u);

  // A re-ask was promoted into B's LRU: no further transport traffic.
  const uint64_t fetches_before = authority->stats().fetches;
  Result<EngineVerdict> again = b.Check(q, qp, deps_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_FALSE(again->remote_hit);
  EXPECT_EQ(authority->stats().fetches, fetches_before);
}

TEST_F(TierEngineTest, ThreeTierStackPromotesRemoteHitIntoStoreAndLru) {
  auto authority = std::make_shared<VerdictAuthority>();
  const std::string dir_a = NewStoreDir("three_a");
  const std::string dir_b = NewStoreDir("three_b");

  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  {
    EngineConfig config;
    config.tiers = {TierSpec::Lru(1 << 10), TierSpec::LocalStore(dir_a),
                    TierSpec::Remote(
                        std::make_shared<InProcessTransport>(authority))};
    ContainmentEngine a(&catalog_, &symbols_, config);
    ASSERT_TRUE(a.Check(q, qp, deps_).ok());
  }
  ASSERT_EQ(authority->size(), 1u);

  // B has its own (empty) store: the verdict arrives from the remote tier
  // and is promoted through the whole local hierarchy.
  EngineConfig config;
  config.tiers = {TierSpec::Lru(1 << 10), TierSpec::LocalStore(dir_b),
                  TierSpec::Remote(
                      std::make_shared<InProcessTransport>(authority))};
  ContainmentEngine b(&catalog_, &symbols_, config);
  Result<EngineVerdict> v = b.Check(q, qp, deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->remote_hit);
  EXPECT_EQ(b.stats().chases_built, 0u);
  ASSERT_NE(b.store(), nullptr);
  EXPECT_EQ(b.store()->size(), 1u);  // the promotion reached the store map
  EXPECT_GT(b.stats().store_writes, 0u);
}

TEST_F(TierEngineTest, QuarantinedRemoteEngineStillServes) {
  VerdictAuthority::Options opts;
  opts.fingerprint = StoreSchemaFingerprint() + 99;
  auto authority = std::make_shared<VerdictAuthority>(opts);

  EngineConfig config;
  config.tiers = {TierSpec::Lru(1 << 10),
                  TierSpec::Remote(
                      std::make_shared<InProcessTransport>(authority))};
  ContainmentEngine engine(&catalog_, &symbols_, config);
  const auto descs = engine.tier_descriptors();
  ASSERT_EQ(descs.size(), 2u);
  EXPECT_FALSE(descs[1].active);
  EXPECT_EQ(descs[1].status.code(), StatusCode::kFailedPrecondition);

  Result<EngineVerdict> v = engine.Check(
      Parse("ans(u) :- R(u, v)"), Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->report.contained);
  EXPECT_EQ(authority->stats().fetches, 0u);  // never consulted
}

TEST_F(TierEngineTest, TiersRequireEnableCache) {
  EngineConfig config;
  config.enable_cache = false;
  config.tiers = {TierSpec::Lru(1 << 10)};
  ContainmentEngine engine(&catalog_, &symbols_, config);
  EXPECT_EQ(engine.store_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.tier_descriptors().empty());
  // The engine itself still serves.
  Result<EngineVerdict> v = engine.Check(
      Parse("ans(u) :- R(u, v)"), Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->report.contained);
}

}  // namespace
}  // namespace cqchase
