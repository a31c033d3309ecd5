// perfbench_driver: one workload of the end-to-end benchmark in one process.
//
//   perfbench_driver --workload <warm_wide|cold_mixed|fleet_rw|schema_evolve>
//                    --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// A single closed-loop client keeps one request outstanding through
// ContainmentEngine::Submit -> EngineFuture::Get and checks every verdict
// against an oracle. The last stdout line is the JSON result: end-to-end
// metrics for --trace 0; per-layer metrics for --trace 1, where every
// request is also replayed through the layers' public entry points with a
// span around each call (replay.h). See README.md for the metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "core/certificate.h"
#include "engine/engine.h"
#include "harness.h"
#include "inputs.h"
#include "net/authority_server.h"
#include "net/tcp_transport.h"
#include "replay.h"

namespace perfbench {
namespace {

using cqchase::ContainmentEngine;
using cqchase::ContainmentRequest;
using cqchase::EngineConfig;
using cqchase::EngineOutcome;
using cqchase::Rng;

// Set-up is repeated this many times per untraced run; setup_s is the
// median, and the last set-up is the one measured.
constexpr int kSetupRepeats = 3;
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

EngineConfig BaseConfig() {
  EngineConfig config;
  config.executor_threads = 1;  // fixed, never derived from the host
  return config;
}

HitKind HitOfOutcome(const EngineOutcome& o) {
  if (o.verdict.remote_hit) return HitKind::kRemote;
  if (o.verdict.store_hit) return HitKind::kStore;
  if (o.verdict.cache_hit) return HitKind::kLru;
  return HitKind::kNone;
}

// --- the closed-loop client ---------------------------------------------------

class Client {
 public:
  explicit Client(SpanRecorder* recorder) : recorder_(recorder) {}

  void Attach(ContainmentEngine* engine, Replica* replica) {
    engine_ = engine;
    replica_ = replica;
  }

  // Forgets the verdicts awaiting the oracle (their tasks are about to be
  // destroyed with a torn-down set-up).
  void Detach() {
    Attach(nullptr, nullptr);
    pending_oracle_.clear();
    certificates_.clear();
  }

  // One request: Submit -> Get, timed when `measure`. `expected` is the
  // planted verdict (1/0) or -1 for the oracle. Returns false on a failure.
  bool Ask(const Task& task, const std::shared_ptr<const DependencySet>& deps,
           int8_t expected, bool measure) {
    ContainmentRequest request =
        ContainmentRequest::Share(task.q, task.q_prime, deps);
    request.options.want_certificate = task.want_certificate;
    SpanRecorder* rec = measure ? recorder_ : nullptr;
    int32_t request_span = -1;
    int32_t engine_span = -1;
    if (rec != nullptr) {
      rec->set_request(++requests_traced_);
      request_span = rec->Begin("request");
      engine_span = rec->Begin("engine");
    }
    const int64_t t0 = NowNs();
    cqchase::EngineFuture<EngineOutcome> future =
        engine_->Submit(std::move(request));
    cqchase::Result<EngineOutcome> result = future.Get();
    const int64_t t1 = NowNs();
    if (rec != nullptr) rec->End(engine_span);
    if (measure) {
      latencies_us.push_back((t1 - t0) / 1e3);
      ++attempted;
    }
    const bool ok = Check(task, expected, result);

    if (replica_ != nullptr) {
      replica_->set_recorder(rec);
      ReplayResult replay;
      {
        ScopedSpan span(rec, "replay");
        replay = replica_->Replay(*task.q, *task.q_prime, *deps,
                                  task.want_certificate);
      }
      {
        ScopedSpan span(rec, "writebehind");
        replica_->FlushPending();
      }
      if (measure) {
        const HitKind engine_hit =
            result.ok() ? HitOfOutcome(*result) : HitKind::kNone;
        const bool agree =
            result.ok() && replay.status.ok() && engine_hit == replay.hit &&
            (engine_hit != HitKind::kNone ||
             result->verdict.strategy == replay.strategy);
        if (!agree) ++disagreements;
        if (replay.hit == HitKind::kNone) ++replay_decides;
        key_bytes += replay.key_bytes;
        if (replay.chased) {
          ++chases;
          chase_levels += replay.chase_levels;
          join_ms += replay.chase_stats.join_ms;
          retain_ms += replay.chase_stats.retain_ms;
          fd_ms += replay.chase_stats.fd_ms;
        }
      }
    }
    if (rec != nullptr) rec->End(request_span);
    return ok;
  }

  // Counts a non-request operation (a schema edit) into the totals.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAIL schema edit examined no entry\n");
    }
  }

  // Decides every oracle-pending task on a cache-less engine and checks
  // every extracted certificate (Theorem 2 verification).
  void RunOracle(const cqchase::Catalog* catalog,
                 cqchase::SymbolTable* symbols) {
    EngineConfig config = BaseConfig();
    config.enable_cache = false;
    ContainmentEngine oracle(catalog, symbols, config);
    for (const auto& [task, verdict] : pending_oracle_) {
      cqchase::Result<cqchase::EngineVerdict> truth =
          oracle.Check(*task->q, *task->q_prime, *task->deps);
      if (!truth.ok() || truth->report.contained != verdict) {
        Fail("oracle disagrees", task);
      }
    }
    for (const auto& [task, cert] : certificates_) {
      cqchase::Status s = cqchase::VerifyCertificate(
          cert, *task->q, *task->q_prime, *task->deps, *symbols);
      if (!s.ok()) Fail(("certificate rejected: " + s.ToString()).c_str(), task);
    }
    pending_oracle_.clear();
    certificates_.clear();
  }

  std::vector<double> latencies_us;  // one per timed request
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK statuses and verdicts the oracle refutes
  // Traced-run tallies over measured requests.
  uint64_t disagreements = 0;
  uint64_t replay_decides = 0;
  uint64_t key_bytes = 0;
  uint64_t chases = 0;
  uint64_t chase_levels = 0;
  double join_ms = 0;
  double retain_ms = 0;
  double fd_ms = 0;

 private:
  bool Check(const Task& task, int8_t expected,
             cqchase::Result<EngineOutcome>& result) {
    if (!result.ok()) {
      Fail(result.status().ToString().c_str(), &task);
      return false;
    }
    const bool contained = result->verdict.report.contained;
    if (expected >= 0) {
      if (contained != (expected == 1)) {
        Fail("verdict differs from the planted one", &task);
        return false;
      }
    } else {
      auto [it, inserted] = pending_oracle_.emplace(&task, contained);
      if (!inserted && it->second != contained) {
        Fail("verdict changed between asks", &task);
        return false;
      }
    }
    if (task.want_certificate && contained) {
      if (!result->certificate.has_value()) {
        Fail("contained verdict without the requested certificate", &task);
        return false;
      }
      certificates_.emplace(&task, std::move(*result->certificate));
    }
    return true;
  }

  void Fail(const char* why, const Task* task) {
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "perfbench: FAIL task %u: %s\n", task->id, why);
    }
  }

  ContainmentEngine* engine_ = nullptr;
  Replica* replica_ = nullptr;
  SpanRecorder* recorder_;
  uint64_t requests_traced_ = 0;
  std::unordered_map<const Task*, bool> pending_oracle_;
  std::unordered_map<const Task*, cqchase::ContainmentCertificate>
      certificates_;
};

// --- workloads -------------------------------------------------------------------

class Workload {
 public:
  Workload(const Args& args, Client& client)
      : args_(args), client_(client), rng_(args.seed * 7919 + 17) {}
  virtual ~Workload() = default;

  // Generation, engine and server construction, warm-up: everything up to
  // the first timed request. In traced runs also builds the replica and
  // feeds it the same set-up traffic.
  virtual void SetUp(const std::string& dir) = 0;
  // Releases everything SetUp built.
  virtual void TearDown() = 0;
  // One timed operation; false when the workload has no more to offer.
  virtual bool Step() = 0;
  // True between two units of the workload's mix; the timed phase ends on
  // one, so every run measures whole units.
  virtual bool AtBoundary() const { return true; }
  // Post-timed checks (oracle work) and workload-specific numbers.
  virtual void Finish() {}
  virtual ContainmentEngine* engine() = 0;

  // Where traced runs record spans (null in untraced runs and set-up).
  virtual void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  std::vector<double> evolve_ms;
  std::vector<cqchase::DeltaReceipt> receipts;
  double store_bytes_per_entry = 0;

 protected:
  Replica* MakeReplica(const cqchase::Catalog* catalog,
                       cqchase::SymbolTable* symbols,
                       std::vector<ReplicaTier> tiers, bool route_streaming) {
    replica_ = std::make_unique<Replica>(catalog, symbols,
                                         BaseConfig().containment,
                                         route_streaming, std::move(tiers));
    return replica_.get();
  }

  // Waits (up to 2 s) for the engine's write-behind flushes to drain its
  // local store.
  static void WaitForStoreFlush(const ContainmentEngine& engine) {
    const cqchase::VerdictStore* store = engine.store();
    for (int i = 0; i < 2000 && store != nullptr && store->has_pending(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Bytes of the store's snapshot + log per stored entry, once the
  // write-behind flushes have drained.
  void MeasureStore(const ContainmentEngine& engine) {
    const cqchase::VerdictStore* store = engine.store();
    if (store == nullptr) return;
    WaitForStoreFlush(engine);
    const size_t entries = store->size();
    if (entries > 0) {
      store_bytes_per_entry =
          static_cast<double>(FileBytes({store->SnapshotPath(), store->LogPath()})) /
          entries;
    }
  }

  // Traced runs: the replica store's compaction, what closing it does.
  void CompactReplicaStore() {
    if (replica_ == nullptr || recorder_ == nullptr) return;
    recorder_->set_request(0);
    const int32_t root = recorder_->Begin("compact");
    replica_->set_recorder(recorder_);
    replica_->CompactStore();
    recorder_->End(root);
  }

  const Args& args_;
  Client& client_;
  Rng rng_;
  std::unique_ptr<Replica> replica_;
  SpanRecorder* recorder_ = nullptr;
};

ReplicaTier LruReplica(size_t capacity) {
  return {TierSpec::Kind::kLru, std::make_unique<cqchase::LruTier>(capacity)};
}

ReplicaTier StoreReplica(const std::string& dir) {
  cqchase::Result<std::unique_ptr<cqchase::VerdictStore>> store =
      cqchase::VerdictStore::Open(dir);
  if (!store.ok()) {
    std::fprintf(stderr, "perfbench: replica store: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  return {TierSpec::Kind::kLocalStore,
          std::make_unique<cqchase::LocalStoreTier>(*std::move(store))};
}

void Die(const char* what, const cqchase::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

// warm_wide: 300-IND Σ, every timed request an LRU hit.
class WarmWide : public Workload {
 public:
  using Workload::Workload;
  static constexpr size_t kChains = 150;

  void SetUp(const std::string& dir) override {
    (void)dir;
    in_ = std::make_unique<ChainInputs>(MakeChainInputs(args_.seed, kChains));
    EngineConfig config = BaseConfig();
    config.route_streaming_single_conjunct = false;
    engine_ = std::make_unique<ContainmentEngine>(in_->u.catalog.get(),
                                                  in_->u.symbols.get(), config);
    Replica* replica = nullptr;
    if (args_.trace) {
      std::vector<ReplicaTier> tiers;
      tiers.push_back(LruReplica(config.verdict_cache_capacity));
      replica = MakeReplica(in_->u.catalog.get(), in_->u.symbols.get(),
                            std::move(tiers), false);
    }
    client_.Attach(engine_.get(), replica);
    for (const Task& t : in_->tasks) {
      if (!client_.Ask(t, t.deps, t.expected, false)) std::exit(1);
    }
    order_.resize(in_->tasks.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    cursor_ = order_.size();
  }

  void TearDown() override {
    client_.Detach();
    engine_.reset();
    replica_.reset();
    in_.reset();
  }

  bool AtBoundary() const override { return cursor_ == order_.size(); }

  bool Step() override {
    if (cursor_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_.engine());
      cursor_ = 0;
    }
    const Task& t = in_->tasks[order_[cursor_++]];
    client_.Ask(t, t.deps, t.expected, true);
    return true;
  }

  ContainmentEngine* engine() override { return engine_.get(); }

 private:
  std::unique_ptr<ChainInputs> in_;
  std::unique_ptr<ContainmentEngine> engine_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

// cold_mixed: every request misses every tier and is decided.
class ColdMixed : public Workload {
 public:
  using Workload::Workload;
  static constexpr size_t kPool = 6000;
  static constexpr size_t kWarmup = 64;
  static constexpr size_t kLruCapacity = 64;

  void SetUp(const std::string& dir) override {
    (void)dir;
    in_ = std::make_unique<PoolInputs>(
        MakeColdMixedInputs(args_.seed, kPool, kWarmup));
    EngineConfig config = BaseConfig();
    config.tiers = {cqchase::TierSpec::Lru(kLruCapacity)};
    engine_ = std::make_unique<ContainmentEngine>(in_->u.catalog.get(),
                                                  in_->u.symbols.get(), config);
    Replica* replica = nullptr;
    if (args_.trace) {
      std::vector<ReplicaTier> tiers;
      tiers.push_back(LruReplica(kLruCapacity));
      replica = MakeReplica(in_->u.catalog.get(), in_->u.symbols.get(),
                            std::move(tiers), true);
    }
    client_.Attach(engine_.get(), replica);
    for (const Task& t : in_->warmup) {
      if (!client_.Ask(t, t.deps, t.expected, false)) std::exit(1);
    }
    cursor_ = 0;
  }

  void TearDown() override {
    client_.Detach();
    engine_.reset();
    replica_.reset();
    in_.reset();
  }

  bool Step() override {
    const Task& t = in_->tasks[cursor_++ % in_->tasks.size()];
    client_.Ask(t, t.deps, t.expected, true);
    return true;
  }

  void Finish() override {
    client_.RunOracle(in_->u.catalog.get(), in_->u.symbols.get());
  }

  ContainmentEngine* engine() override { return engine_.get(); }

 private:
  std::unique_ptr<PoolInputs> in_;
  std::unique_ptr<ContainmentEngine> engine_;
  size_t cursor_ = 0;
};

// fleet_rw: LRU(64) -> local store -> TCP remote, reads beside writes.
class FleetRw : public Workload {
 public:
  using Workload::Workload;
  static constexpr size_t kLocal = 1024;
  static constexpr size_t kLruCapacity = 64;
  // Peer-set and fresh keys are each asked once: one per eight requests.
  size_t OncePool() const {
    return static_cast<size_t>(args_.seconds * 1300) + 1000;
  }

  struct Side {
    std::unique_ptr<cqchase::net::StoreBackedAuthority> authority;
    std::unique_ptr<cqchase::net::VerdictAuthorityServer> server;
    ~Side() {
      if (server) server->Stop();
      server.reset();
      authority.reset();
    }
  };

  // A store-backed authority behind a TCP server, with the peer engine's
  // decisions of the peer set published to it.
  std::unique_ptr<Side> BuildSide(const std::string& dir) {
    auto side = std::make_unique<Side>();
    cqchase::Result<cqchase::net::StoreBackedAuthority> auth =
        cqchase::net::MakeStoreBackedAuthority(dir + "/authority");
    if (!auth.ok()) Die("authority", auth.status());
    side->authority =
        std::make_unique<cqchase::net::StoreBackedAuthority>(*std::move(auth));
    side->server = std::make_unique<cqchase::net::VerdictAuthorityServer>(
        side->authority->authority);
    cqchase::Status started = side->server->Start();
    if (!started.ok()) Die("authority server", started);
    EngineConfig config = BaseConfig();
    config.tiers = {cqchase::TierSpec::Lru(kLruCapacity),
                    cqchase::TierSpec::Remote(Dial(*side))};
    ContainmentEngine peer(in_->u.catalog.get(), in_->u.symbols.get(), config);
    Client peer_client(nullptr);
    peer_client.Attach(&peer, nullptr);
    for (const Task& t : in_->peer) {
      if (!peer_client.Ask(t, t.deps, t.expected, false)) std::exit(1);
    }
    // Destroying the peer (on return) flushes its remote tier into the
    // authority.
    return side;
  }

  static std::shared_ptr<cqchase::VerdictTransport> Dial(const Side& side) {
    return std::make_shared<cqchase::net::TcpTransport>("127.0.0.1",
                                                         side.server->port());
  }

  void SetUp(const std::string& dir) override {
    const size_t once = OncePool();
    in_ = std::make_unique<FleetInputs>(
        MakeFleetInputs(args_.seed, kLocal, once, once));
    std::filesystem::create_directories(dir + "/main");
    main_ = BuildSide(dir + "/main");
    EngineConfig config = BaseConfig();
    config.tiers = {cqchase::TierSpec::Lru(kLruCapacity),
                    cqchase::TierSpec::LocalStore(dir + "/main/store"),
                    cqchase::TierSpec::Remote(Dial(*main_))};
    engine_ = std::make_unique<ContainmentEngine>(in_->u.catalog.get(),
                                                  in_->u.symbols.get(), config);
    for (const auto& d : engine_->tier_descriptors()) {
      if (!d.active) Die("tier", d.status);
    }
    Replica* replica = nullptr;
    if (args_.trace) {
      std::filesystem::create_directories(dir + "/replica");
      replica_side_ = BuildSide(dir + "/replica");
      auto timed = std::make_shared<TimedTransport>(Dial(*replica_side_));
      cqchase::RemoteTierOptions ropt;
      ropt.negative_ttl = cqchase::TierSpec{}.remote_negative_ttl;
      cqchase::Result<std::unique_ptr<cqchase::RemoteTier>> remote =
          cqchase::RemoteTier::Connect(timed, ropt);
      if (!remote.ok()) Die("replica remote tier", remote.status());
      std::vector<ReplicaTier> tiers;
      tiers.push_back(LruReplica(kLruCapacity));
      tiers.push_back(StoreReplica(dir + "/replica/store"));
      tiers.push_back({TierSpec::Kind::kRemote, *std::move(remote)});
      replica = MakeReplica(in_->u.catalog.get(), in_->u.symbols.get(),
                            std::move(tiers), true);
      timed_ = timed.get();
    }
    client_.Attach(engine_.get(), replica);
    for (const Task& t : in_->local) {
      if (!client_.Ask(t, t.deps, t.expected, false)) std::exit(1);
    }
    WaitForStoreFlush(*engine_);
    next_peer_ = 0;
    next_fresh_ = 0;
    block_.clear();
  }

  void TearDown() override {
    client_.Detach();
    timed_ = nullptr;
    replica_.reset();
    engine_.reset();
    main_.reset();
    replica_side_.reset();
    in_.reset();
  }

  void set_recorder(SpanRecorder* recorder) override {
    Workload::set_recorder(recorder);
    if (timed_ != nullptr) timed_->set_recorder(recorder);
  }

  bool AtBoundary() const override { return block_.empty(); }

  bool Step() override {
    if (block_.empty()) {
      // 6 local reads, 1 first read of a peer key, 1 fresh key, shuffled.
      block_ = {0, 0, 0, 0, 0, 0, 1, 2};
      std::shuffle(block_.begin(), block_.end(), rng_.engine());
    }
    const int kind = block_.back();
    block_.pop_back();
    const Task* t = nullptr;
    if (kind == 0) {
      t = &in_->local[rng_.Index(in_->local.size())];
    } else if (kind == 1) {
      if (next_peer_ == in_->peer.size()) return false;
      t = &in_->peer[next_peer_++];
    } else {
      if (next_fresh_ == in_->fresh.size()) return false;
      t = &in_->fresh[next_fresh_++];
    }
    client_.Ask(*t, t->deps, t->expected, true);
    return true;
  }

  void Finish() override {
    MeasureStore(*engine_);
    CompactReplicaStore();
    client_.RunOracle(in_->u.catalog.get(), in_->u.symbols.get());
  }

  ContainmentEngine* engine() override { return engine_.get(); }

 private:
  std::unique_ptr<FleetInputs> in_;
  // Declared before the engine: the engine (and its remote tier) goes first.
  std::unique_ptr<Side> main_;
  std::unique_ptr<Side> replica_side_;
  std::unique_ptr<ContainmentEngine> engine_;
  TimedTransport* timed_ = nullptr;
  std::vector<int> block_;
  size_t next_peer_ = 0;
  size_t next_fresh_ = 0;
};

// schema_evolve: remove / re-ask / re-add / re-ask cycles on the 300-IND Σ.
class SchemaEvolve : public Workload {
 public:
  using Workload::Workload;
  static constexpr size_t kChains = 150;

  void SetUp(const std::string& dir) override {
    in_ = std::make_unique<ChainInputs>(MakeChainInputs(args_.seed, kChains));
    EngineConfig config = BaseConfig();
    config.route_streaming_single_conjunct = false;
    config.tiers = {cqchase::TierSpec::Lru(config.verdict_cache_capacity),
                    cqchase::TierSpec::LocalStore(dir + "/store")};
    engine_ = std::make_unique<ContainmentEngine>(in_->u.catalog.get(),
                                                  in_->u.symbols.get(), config);
    if (engine_->store() == nullptr) Die("store", engine_->store_status());
    Replica* replica = nullptr;
    if (args_.trace) {
      std::vector<ReplicaTier> tiers;
      tiers.push_back(LruReplica(config.verdict_cache_capacity));
      tiers.push_back(StoreReplica(dir + "/replica-store"));
      replica = MakeReplica(in_->u.catalog.get(), in_->u.symbols.get(),
                            std::move(tiers), false);
    }
    client_.Attach(engine_.get(), replica);
    for (const Task& t : in_->tasks) {
      if (!client_.Ask(t, t.deps, t.expected, false)) std::exit(1);
    }
    chain_order_.resize(kChains);
    for (size_t i = 0; i < kChains; ++i) chain_order_[i] = i;
    std::shuffle(chain_order_.begin(), chain_order_.end(), rng_.engine());
    cycle_ = 0;
    phase_ = 0;
    cursor_ = 0;
    current_ = in_->full;
  }

  void TearDown() override {
    client_.Detach();
    engine_.reset();
    replica_.reset();
    current_.reset();
    in_.reset();
  }

  bool AtBoundary() const override { return phase_ == 0 && cursor_ == 0; }

  bool Step() override {
    const size_t chain = chain_order_[cycle_ % kChains];
    if (phase_ == 0 || phase_ == 2) {
      std::shared_ptr<const DependencySet> next =
          phase_ == 0 ? std::make_shared<const DependencySet>(
                            WithoutBc(*in_, chain))
                      : in_->full;
      Evolve(*current_, *next);
      current_ = next;
      ++phase_;
      return true;
    }
    const Task& t = in_->tasks[cursor_];
    // After the removal, chain k's contained task is no longer contained.
    const int8_t expected =
        (phase_ == 1 && t.id == 2 * chain) ? 0 : t.expected;
    client_.Ask(t, current_, expected, true);
    if (++cursor_ == in_->tasks.size()) {
      cursor_ = 0;
      phase_ = (phase_ + 1) % 4;
      if (phase_ == 0) ++cycle_;
    }
    return true;
  }

  void Finish() override {
    MeasureStore(*engine_);
    CompactReplicaStore();
  }

  ContainmentEngine* engine() override { return engine_.get(); }

 private:
  void Evolve(const DependencySet& old_deps, const DependencySet& new_deps) {
    int32_t root = -1;
    if (recorder_ != nullptr) {
      recorder_->set_request(0);
      root = recorder_->Begin("evolve");
    }
    const int64_t t0 = NowNs();
    cqchase::DeltaReceipt receipt = engine_->EvolveSigma(old_deps, new_deps);
    evolve_ms.push_back((NowNs() - t0) / 1e6);
    receipts.push_back(receipt);
    // A one-IND edit always examines every entry under the old Σ.
    client_.CountOp(receipt.examined > 0);
    if (replica_ != nullptr) {
      replica_->set_recorder(recorder_);
      ScopedSpan span(recorder_, "replay");
      replica_->Evolve(old_deps, new_deps);
    }
    if (recorder_ != nullptr) recorder_->End(root);
  }

  std::unique_ptr<ChainInputs> in_;
  std::unique_ptr<ContainmentEngine> engine_;
  std::shared_ptr<const DependencySet> current_;
  std::vector<size_t> chain_order_;
  size_t cycle_ = 0;
  int phase_ = 0;
  size_t cursor_ = 0;
};

// --- the run ---------------------------------------------------------------------

struct TierCounters {
  uint64_t lru_lookups = 0, lru_hits = 0;
  uint64_t store_flushes = 0;
  uint64_t remote_fetches = 0, remote_hits = 0;
};

TierCounters ReadTiers(const ContainmentEngine& engine) {
  TierCounters c;
  for (const cqchase::VerdictTierStats& t : engine.tier_stats()) {
    if (t.name == "lru") {
      c.lru_lookups += t.lookups;
      c.lru_hits += t.hits;
    } else if (t.name.rfind("store:", 0) == 0) {
      c.store_flushes += t.flushes;
    } else if (t.name.rfind("remote:", 0) == 0) {
      c.remote_fetches += t.fetches;
      c.remote_hits += t.hits;
    }
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args, Client& client) {
  if (args.workload == "warm_wide") return std::make_unique<WarmWide>(args, client);
  if (args.workload == "cold_mixed") return std::make_unique<ColdMixed>(args, client);
  if (args.workload == "fleet_rw") return std::make_unique<FleetRw>(args, client);
  if (args.workload == "schema_evolve") return std::make_unique<SchemaEvolve>(args, client);
  return nullptr;
}

// Metric name -> span name for the per-layer self-time medians.
struct LayerSpan {
  const char* metric;
  const char* span;
};
constexpr LayerSpan kLayerSpans[] = {
    {"canonical.sigma_key_us", "canonical.sigma_key"},
    {"canonical.task_key_us", "canonical.task_key"},
    {"sigma.analyze_us", "sigma.analyze"},
    {"tier.lru_lookup_us", "tier.lru_lookup"},
    {"store.lookup_us", "store.lookup"},
    {"store.publish_us", "store.publish"},
    {"store.flush_us", "store.flush"},
    {"store.compact_us", "store.compact"},
    {"remote.hit_us", "remote.hit"},
    {"remote.miss_us", "remote.miss"},
    {"remote.flush_us", "remote.flush"},
    {"net.rtt_us", "net.rtt"},
    {"chase.expand_us", "chase.expand"},
    {"core.homomorphism_us", "core.homomorphism"},
    {"core.pspace_us", "core.pspace"},
    {"core.certificate_us", "core.certificate"},
    {"delta.compute_us", "delta.compute"},
};

// Counters sampled at both ends of the timed phase.
struct Counters {
  cqchase::EngineStats stats;
  TierCounters tiers;
};

Counters ReadCounters(const ContainmentEngine& engine) {
  return {engine.stats(), ReadTiers(engine)};
}

// The traced run's per-layer metrics, the readable per-span report and the
// span dump.
void ReportTrace(const Args& args, const SpanRecorder& recorder,
                 const Client& client, const Workload& wl, const Counters& c0,
                 const Counters& c1, Metrics& m) {
  const size_t requests = client.latencies_us.size();
  const double per_req = requests > 0 ? 1.0 / requests : 0.0;
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> engine_us, handoff_us, unattributed_us, canonical_share;
  std::vector<double> apply_delta_us;
  // Per root span: its engine and replay children, and the self time of
  // its canonical.* and lineage.apply_delta.* descendants.
  std::vector<int32_t> engine_of(spans.size(), -1), replay_of(spans.size(), -1);
  std::vector<double> canonical_of(spans.size(), 0.0);
  std::vector<double> apply_of(spans.size(), 0.0);
  std::vector<int32_t> root_of(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? static_cast<int32_t>(i) : root_of[s.parent];
    by_name[s.name].push_back(self[i] / 1e3);
    const int32_t root = root_of[i];
    if (s.parent == root) {
      if (std::strcmp(s.name, "engine") == 0) engine_of[root] = i;
      if (std::strcmp(s.name, "replay") == 0) replay_of[root] = i;
    }
    if (std::strncmp(s.name, "canonical.", 10) == 0) canonical_of[root] += self[i] / 1e3;
    if (std::strncmp(s.name, "lineage.apply_delta.", 20) == 0) apply_of[root] += self[i] / 1e3;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    if (std::strcmp(spans[i].name, "evolve") == 0) {
      apply_delta_us.push_back(apply_of[i]);
      continue;
    }
    if (engine_of[i] < 0 || replay_of[i] < 0) continue;
    const Span& e = spans[engine_of[i]];
    const Span& r = spans[replay_of[i]];
    const double e_us = (e.end_ns - e.start_ns) / 1e3;
    const double r_us = (r.end_ns - r.start_ns) / 1e3;
    engine_us.push_back(e_us);
    handoff_us.push_back(e_us - r_us);
    unattributed_us.push_back(e_us - (r_us - self[replay_of[i]] / 1e3));
    canonical_share.push_back(canonical_of[i] / e_us);
  }
  auto median_of = [&](const char* span) {
    auto it = by_name.find(span);
    return it == by_name.end() ? 0.0 : Median(it->second);
  };
  m.Set("executor.handoff_us", Median(handoff_us), "us");
  for (const LayerSpan& ls : kLayerSpans) {
    m.Set(ls.metric, median_of(ls.span), "us");
  }
  m.Set("canonical.key_bytes", Ratio(client.key_bytes, requests), "bytes");
  m.Set("sigma.analyses",
        by_name.count("sigma.analyze") ? by_name["sigma.analyze"].size() * per_req : 0.0,
        "per_req");
  m.Set("tier.lru_hit_ratio",
        Ratio(c1.tiers.lru_hits - c0.tiers.lru_hits,
              c1.tiers.lru_lookups - c0.tiers.lru_lookups),
        "ratio");
  m.Set("store.flushes", (c1.tiers.store_flushes - c0.tiers.store_flushes) * per_req,
        "per_req");
  m.Set("remote.fetch_rtts",
        (c1.tiers.remote_fetches - c0.tiers.remote_fetches) * per_req, "per_req");
  m.Set("remote.hit_ratio",
        Ratio(c1.tiers.remote_hits - c0.tiers.remote_hits,
              c1.tiers.remote_fetches - c0.tiers.remote_fetches),
        "ratio");
  m.Set("chase.join_ms", Ratio(client.join_ms, client.chases), "ms");
  m.Set("chase.retain_ms", Ratio(client.retain_ms, client.chases), "ms");
  m.Set("chase.fd_ms", Ratio(client.fd_ms, client.chases), "ms");
  m.Set("chase.steps", (c1.stats.chase_steps - c0.stats.chase_steps) * per_req,
        "per_req");
  m.Set("chase.levels", Ratio(client.chase_levels, client.chases), "count");
  m.Set("chase.inds_pruned", (c1.stats.inds_pruned - c0.stats.inds_pruned) * per_req,
        "per_req");
  const double reuses = c1.stats.chase_prefix_reuses - c0.stats.chase_prefix_reuses;
  const double built = c1.stats.chases_built - c0.stats.chases_built;
  m.Set("chase.prefix_reuse_ratio", Ratio(reuses, reuses + built), "ratio");
  m.Set("lineage.apply_delta_us", Median(apply_delta_us), "us");
  double exact = 0, monotone = 0, dropped = 0;
  for (const cqchase::DeltaReceipt& r : wl.receipts) {
    exact += r.kept_exact;
    monotone += r.kept_monotone;
    dropped += r.dropped;
  }
  const double evolves = static_cast<double>(wl.receipts.size());
  m.Set("lineage.kept_exact", Ratio(exact, evolves), "count");
  m.Set("lineage.kept_monotone", Ratio(monotone, evolves), "count");
  m.Set("lineage.dropped", Ratio(dropped, evolves), "count");
  m.Set("lineage.monotone_hits",
        (c1.stats.monotone_hits - c0.stats.monotone_hits) * per_req, "per_req");
  m.Set("engine.unattributed_us", Median(unattributed_us), "us");
  m.Set("trace.engine_p50_us", Median(engine_us), "us");
  m.Set("trace.branch_disagreements", static_cast<double>(client.disagreements),
        "count");
  m.Set("evolve_ms", Median(wl.evolve_ms), "ms");
  m.Set("store_bytes_per_entry", wl.store_bytes_per_entry, "bytes");

  // The readable report: every span name's self time (median and the
  // highest supported percentile, with counts), then the checks.
  std::printf("# trace: %zu spans over %llu requests; self time per span:\n",
              spans.size(), static_cast<unsigned long long>(requests));
  for (auto& [name, v] : by_name) {
    const Summary s = Summarize(v);
    std::printf("#   %-28s n=%-7zu median=%10.2fus p%-4g=%10.2fus\n",
                name.c_str(), s.n, s.median, s.hi_pct, s.hi);
  }
  std::printf(
      "# trace: canonical.* share of the engine span (median) = %.1f%%; "
      "replayed decides = %llu; branch disagreements = %llu\n",
      100.0 * Median(canonical_share),
      static_cast<unsigned long long>(client.replay_decides),
      static_cast<unsigned long long>(client.disagreements));
  const std::string dump = args.workdir + "/trace-" + args.workload + ".tsv";
  if (recorder.Dump(dump)) std::printf("# trace: spans written to %s\n", dump.c_str());
}

int Run(const Args& args) {
  // Before any thread starts: pin, then put this run's store and authority
  // directories on a private tmpfs (disk sync latency is the host's, not
  // the program's), falling back to the checkout's own filesystem.
  const int cpu = PinToOneCpu();
  const std::string work = args.workdir + "/" + args.workload;
  if (!MakeFreshDir(work)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work.c_str());
    return 1;
  }
  const std::string tmpfs_error = MountPrivateTmpfs(work);
  std::string store_fs = FilesystemType(work);
  if (!tmpfs_error.empty()) store_fs += " (tmpfs fallback: " + tmpfs_error + ")";

  SpanRecorder recorder;
  Client client(args.trace ? &recorder : nullptr);
  std::unique_ptr<Workload> wl = MakeWorkload(args, client);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Set-up, repeated in untraced runs; the last one is kept.
  std::vector<double> setup_s;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    const std::string dir = work + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const int64_t t0 = NowNs();
    wl->SetUp(dir);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (i + 1 < repeats) {
      wl->TearDown();
      std::filesystem::remove_all(dir);
    }
  }
  if (args.trace) wl->set_recorder(&recorder);

  // The timed phase: closed loop for --seconds, then on to the end of the
  // workload's current unit (a schema_evolve cycle, a warm_wide round), so
  // every run measures the same request mix.
  ContainmentEngine& engine = *wl->engine();
  const Counters c0 = ReadCounters(engine);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t now = start;
  while (now < end || !wl->AtBoundary()) {
    if (!wl->Step()) {
      std::fprintf(stderr, "perfbench: workload inputs exhausted early\n");
      break;
    }
    now = NowNs();
  }
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double measured_s = (now - start) / 1e9;
  const Counters c1 = ReadCounters(engine);

  wl->Finish();  // oracle work: outside set-up and the timed phase
  const uint64_t failed = client.failed;
  const uint64_t requests = client.latencies_us.size();

  std::vector<double> all_us = client.latencies_us;
  std::sort(all_us.begin(), all_us.end());
  const Summary whole = Summarize(all_us);
  const double p99 = all_us.empty() ? 0.0 : PercentileOfSorted(all_us, 99);
  std::printf(
      "# env: workload=%s seed=%llu cpu=%d nproc=%u allowed_cpus=%d "
      "executor_threads=%zu store_fs=%s trace=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), cpu,
      std::thread::hardware_concurrency(), AllowedCpus(),
      engine.config().executor_threads, store_fs.c_str(), args.trace ? 1 : 0);
  std::printf(
      "# requests=%llu measured_s=%.3f p50=%.1fus p99=%.1fus p%.1f=%.1fus "
      "setup_s=[%s]\n",
      static_cast<unsigned long long>(requests), measured_s, whole.median, p99,
      whole.hi_pct, whole.hi, [&] {
        std::string s;
        for (double v : setup_s) s += (s.empty() ? "" : ",") + std::to_string(v);
        return s;
      }().c_str());

  Metrics m;
  if (!args.trace) {
    m.Set("p50_us", whole.median, "us");
    m.Set("p99_us", p99, "us");
    m.Set("cpu_us_per_req", requests > 0 ? cpu_s * 1e6 / requests : 0.0, "us");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    m.Set("setup_s", Median(setup_s), "s");
  } else {
    ReportTrace(args, recorder, client, *wl, c0, c1, m);
  }

  wl->TearDown();
  // A private tmpfs vanishes with the process; a fallback directory is
  // emptied here.
  if (!tmpfs_error.empty()) std::filesystem::remove_all(work);
  const bool correct = failed == 0 && requests > 0;
  std::printf("%s\n", ResultLine(correct, client.attempted, failed, m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.workload.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
