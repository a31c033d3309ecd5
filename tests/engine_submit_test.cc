// The async request/future engine API: Submit/EngineFuture semantics,
// request-owned input lifetimes, per-request deadlines on a deliberately
// divergent semi-decision (must resolve kDeadlineExceeded, not hang),
// cooperative cancellation (must hand the chase's NDV blocks back and leave
// a re-ask free to run), certificate-carrying outcomes extracted from the
// decision's own chase (chases_built advances by at most one per request),
// SubmitAll bursts keeping request order and flagging null inputs, and
// local-tier hits and input errors resolving on the submitting thread
// without an executor task. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/certificate.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "submit_util.h"

namespace cqchase {
namespace {

using std::chrono::milliseconds;

// --- IND-only reporting-chain fixture (certifiable, decidable) ---------------

class SubmitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("EMP", {"eno", "mgr"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("MGR", {"mno", "dir"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("DIR", {"dno"}).ok());
    deps_ = *ParseDependencies(catalog_,
                               "EMP[mgr] <= MGR[mno]\n"
                               "MGR[dir] <= DIR[dno]");
    q_ = *ParseQuery(catalog_, symbols_, "ans(e) :- EMP(e, m)");
    q_prime_ = *ParseQuery(catalog_, symbols_,
                           "ans(e) :- EMP(e, m), MGR(m, d), DIR(d)");
    not_contained_ = *ParseQuery(catalog_, symbols_,
                                 "ans(e) :- EMP(e, m), EMP(m, e)");
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
  ConjunctiveQuery q_{nullptr, nullptr};
  ConjunctiveQuery q_prime_{nullptr, nullptr};
  ConjunctiveQuery not_contained_{nullptr, nullptr};
};

TEST_F(SubmitTest, SubmitMatchesSynchronousCheck) {
  ContainmentEngine engine(&catalog_, &symbols_);
  Result<EngineVerdict> sync = engine.Check(q_, q_prime_, deps_);
  ASSERT_TRUE(sync.ok());

  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  ASSERT_TRUE(future.valid());
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->verdict.report.contained, sync->report.contained);
  EXPECT_TRUE(outcome->verdict.report.contained);
  EXPECT_FALSE(outcome->certificate.has_value());  // not requested
  EXPECT_EQ(engine.stats().submits, 1u);
}

TEST_F(SubmitTest, FutureContractsHold) {
  ContainmentEngine engine(&catalog_, &symbols_);
  EngineFuture<EngineOutcome> invalid;
  EXPECT_FALSE(invalid.valid());
  Result<EngineOutcome> from_invalid = invalid.Get();
  EXPECT_EQ(from_invalid.status().code(), StatusCode::kFailedPrecondition);

  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  EXPECT_TRUE(future.WaitFor(milliseconds(10000)));
  EXPECT_TRUE(future.done());
  ASSERT_TRUE(future.Get().ok());
  // Second Get on the same (consumed) state: an error, not a hang.
  Result<EngineOutcome> again = future.Get();
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SubmitTest, NullRequestResolvesInvalidArgument) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ContainmentRequest empty;
  Result<EngineOutcome> r = engine.Submit(std::move(empty)).Get();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SubmitTest, OwnedRequestSurvivesCallerScope) {
  ContainmentEngine engine(&catalog_, &symbols_);
  EngineFuture<EngineOutcome> future;
  {
    // Locals die before the future is waited on; the request owns copies,
    // so nothing dangles (the trap a raw-pointer request would fall into).
    ConjunctiveQuery q = *ParseQuery(catalog_, symbols_, "ans(e) :- EMP(e, m)");
    ConjunctiveQuery qp = *ParseQuery(
        catalog_, symbols_, "ans(e) :- EMP(e, m), MGR(m, d), DIR(d)");
    DependencySet deps = deps_;
    future = engine.Submit(ContainmentRequest::Own(std::move(q), std::move(qp),
                                                   std::move(deps)));
  }
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.report.contained);
}

TEST_F(SubmitTest, SubmitAllMatchesSequentialVerdicts) {
  EngineConfig config;
  config.executor_threads = 4;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ContainmentEngine oracle(&catalog_, &symbols_);

  std::vector<ContainmentRequest> requests;
  for (int i = 0; i < 16; ++i) {
    const ConjunctiveQuery& rhs = (i % 2 == 0) ? q_prime_ : not_contained_;
    requests.push_back(ContainmentRequest::Borrow(q_, rhs, deps_));
  }
  std::vector<EngineFuture<EngineOutcome>> futures =
      engine.SubmitAll(std::move(requests));
  ASSERT_EQ(futures.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    const ConjunctiveQuery& rhs = (i % 2 == 0) ? q_prime_ : not_contained_;
    Result<EngineVerdict> expected = oracle.Check(q_, rhs, deps_);
    Result<EngineOutcome> got = futures[i].Get();
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->verdict.report.contained, expected->report.contained);
  }
  // The executed counter is bumped after a task's future resolves, so poll
  // briefly for the tail instead of asserting an instant snapshot.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (engine.stats().executor_tasks < 16u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(engine.stats().executor_tasks, 16u);
  EXPECT_EQ(engine.stats().executor_workers, 4u);
}

// --- Certificates from the decision's own chase ------------------------------

TEST_F(SubmitTest, WantCertificateReturnsVerifiedProofWithoutRechase) {
  ContainmentEngine engine(&catalog_, &symbols_);
  RequestOptions options;
  options.want_certificate = true;

  const uint64_t chases_before = engine.stats().chases_built;
  Result<EngineOutcome> outcome =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_, options))
          .Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.report.contained);
  ASSERT_TRUE(outcome->certificate.has_value());
  // The acceptance bar: one Submit yields verdict + proof from at most ONE
  // new chase (the same chase decided and certified).
  EXPECT_LE(engine.stats().chases_built - chases_before, 1u);
  EXPECT_EQ(engine.stats().certificates_built, 1u);
  EXPECT_TRUE(VerifyCertificate(*outcome->certificate, q_, q_prime_, deps_,
                                symbols_)
                  .ok());

  // A certificate re-ask skips the verdict tiers (a stored verdict has no
  // derivation) and decides on exactly one chase of its own.
  const uint64_t chases_mid = engine.stats().chases_built;
  Result<EngineOutcome> again =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_, options))
          .Get();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->certificate.has_value());
  EXPECT_EQ(engine.stats().chases_built, chases_mid + 1);
  EXPECT_TRUE(VerifyCertificate(*again->certificate, q_, q_prime_, deps_,
                                symbols_)
                  .ok());
}

TEST_F(SubmitTest, WantCertificateNotContainedCarriesNone) {
  ContainmentEngine engine(&catalog_, &symbols_);
  RequestOptions options;
  options.want_certificate = true;
  Result<EngineOutcome> outcome =
      engine
          .Submit(ContainmentRequest::Borrow(q_, not_contained_, deps_,
                                             options))
          .Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->verdict.report.contained);
  EXPECT_FALSE(outcome->certificate.has_value());
}

TEST_F(SubmitTest, SubmittedCertificateMatchesBuildCertificate) {
  ContainmentEngine engine(&catalog_, &symbols_);
  Result<EngineOutcome> via_engine =
      DecideCertified(engine, q_, q_prime_, deps_);
  Result<std::optional<ContainmentCertificate>> direct =
      BuildCertificate(q_, q_prime_, deps_, symbols_);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_engine->certificate.has_value());
  ASSERT_TRUE(direct->has_value());
  // The two proofs come from distinct chases whose fresh NDVs carry
  // different ids, so compare shape, not terms: same roots (Q's own
  // conjuncts) and the same derivation length.
  EXPECT_EQ(via_engine->certificate->roots, (*direct)->roots);
  EXPECT_EQ(via_engine->certificate->steps.size(), (*direct)->steps.size());
  EXPECT_TRUE(VerifyCertificate(*via_engine->certificate, q_, q_prime_, deps_,
                                symbols_)
                  .ok());
}

// --- Divergent general FD+IND semi-decision: deadlines + cancellation --------

// R(a, b, c) with FD a -> b and IND R[c] <= R[a]: the FD does not cover c,
// so Σ is general (kGeneral); the IND spins an infinite chain
// R(x,y,z) -> R(z,·,·) -> ..., so the semi-decision on a never-mapping Q'
// diverges until a limit. Limits are set astronomically high: only the
// deadline / cancellation can stop these requests in test time.
class DivergentSubmitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b", "c"}).ok());
    deps_ = *ParseDependencies(catalog_,
                               "R: 1 -> 2\n"
                               "R[3] <= R[1]");
    q_ = *ParseQuery(catalog_, symbols_, "ans(x) :- R(x, y, z)");
    q_prime_ = *ParseQuery(catalog_, symbols_, "ans(u) :- R(u, u, u)");

    config_.containment.allow_semidecision = true;
    config_.containment.limits.max_level = 50'000'000;
    config_.containment.limits.max_conjuncts = 500'000'000;
    config_.containment.limits.max_steps = 1'000'000'000;
  }

  ContainmentRequest Request(RequestOptions options = {}) const {
    return ContainmentRequest::Borrow(q_, q_prime_, deps_, options);
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
  EngineConfig config_;
  ConjunctiveQuery q_{nullptr, nullptr};
  ConjunctiveQuery q_prime_{nullptr, nullptr};
};

TEST_F(DivergentSubmitTest, SigmaIsGeneral) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  EXPECT_EQ(engine.Analyze(deps_).sigma_class, SigmaClass::kGeneral);
}

TEST_F(DivergentSubmitTest, DeadlineExceededInsteadOfHanging) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  RequestOptions options;
  options.timeout = milliseconds(100);
  Result<EngineOutcome> outcome = engine.Submit(Request(options)).Get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().deadline_expirations, 1u);
  EXPECT_EQ(engine.stats().cancellations, 0u);
}

TEST_F(DivergentSubmitTest, AbsoluteDeadlineFormWorksToo) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now() + milliseconds(100);
  Result<EngineOutcome> outcome = engine.Submit(Request(options)).Get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(DivergentSubmitTest, CancelReturnsTheChaseAndAReAskRunsItsOwn) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  EngineFuture<EngineOutcome> future = engine.Submit(Request());
  // Let the request actually start chasing before cancelling it.
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.stats().chases_built == 0 &&
         std::chrono::steady_clock::now() < spin_deadline) {
    std::this_thread::yield();
  }
  ASSERT_GT(engine.stats().chases_built, 0u);
  future.Cancel();
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().cancellations, 1u);

  // The cancelled decision's chase died with it, handing back every NDV
  // block it leased. A fresh asker of the same task builds its own chase
  // and trips its own deadline promptly.
  EXPECT_EQ(symbols_.chase_ndv_blocks_held(), 0u);
  RequestOptions options;
  options.timeout = milliseconds(100);
  const auto asked = std::chrono::steady_clock::now();
  Result<EngineOutcome> second = engine.Submit(Request(options)).Get();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - asked, std::chrono::seconds(10));
  EXPECT_EQ(engine.stats().chases_built, 2u);
  EXPECT_EQ(symbols_.chase_ndv_blocks_held(), 0u);
}

TEST_F(DivergentSubmitTest, DestructionCancelsAbandonedRequests) {
  // A divergent no-deadline request whose future is dropped: without the
  // destructor's cancel-all over the in-flight registry, the drain would
  // wait on it forever and this test would time out.
  {
    ContainmentEngine engine(&catalog_, &symbols_, config_);
    {
      EngineFuture<EngineOutcome> dropped = engine.Submit(Request());
      const auto spin_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (engine.stats().chases_built == 0 &&
             std::chrono::steady_clock::now() < spin_deadline) {
        std::this_thread::yield();
      }
      ASSERT_GT(engine.stats().chases_built, 0u);
    }
    // Future gone; only the engine can stop the request now.
  }
  SUCCEED();  // reaching here at all is the assertion
}

TEST_F(DivergentSubmitTest, PerRequestSemiDecisionOverride) {
  // Engine default: semi-decision OFF — the general mix is kUnimplemented.
  config_.containment.allow_semidecision = false;
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  Result<EngineVerdict> sync = engine.Check(q_, q_prime_, deps_);
  EXPECT_EQ(sync.status().code(), StatusCode::kUnimplemented);

  // Per-request override turns it on; Q ⊆ Q finds its witness at level 0,
  // so the semi-decision returns immediately despite the divergent Σ.
  RequestOptions options;
  options.allow_semidecision = true;
  Result<EngineOutcome> outcome =
      engine.Submit(ContainmentRequest::Borrow(q_, q_, deps_, options)).Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.report.contained);
  EXPECT_EQ(outcome->verdict.strategy, DecisionStrategy::kSemiDecision);
}

// --- SubmitAll bursts -------------------------------------------------------

TEST_F(SubmitTest, SubmitAllKeepsOrderMatchesCheckAndFlagsNulls) {
  EngineConfig config;
  config.executor_threads = 4;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ContainmentEngine inline_engine(&catalog_, &symbols_);

  std::vector<ContainmentRequest> requests;
  std::vector<Result<EngineVerdict>> expected;
  for (int i = 0; i < 12; ++i) {
    const ConjunctiveQuery& q_prime =
        (i % 2 == 0) ? q_prime_ : not_contained_;
    requests.push_back(ContainmentRequest::Borrow(q_, q_prime, deps_));
    expected.push_back(inline_engine.Check(q_, q_prime, deps_));
  }
  ContainmentRequest null_request =
      ContainmentRequest::Borrow(q_, q_prime_, deps_);
  null_request.q_prime = nullptr;
  requests.push_back(std::move(null_request));

  std::vector<Result<EngineVerdict>> got =
      DecideAll(engine, std::move(requests));
  ASSERT_EQ(got.size(), expected.size() + 1);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i].ok() && got[i].ok()) << "request " << i;
    EXPECT_EQ(expected[i]->report.contained, got[i]->report.contained)
        << "request " << i;
  }
  ASSERT_FALSE(got.back().ok());
  EXPECT_EQ(got.back().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().submits, got.size());
}


// --- Local-tier hits answered on the submitting thread ---------------------

// Polls until the executor has run `want` tasks: its counter moves after a
// task's future resolves.
uint64_t AwaitExecutorTasks(const ContainmentEngine& engine, uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (engine.stats().executor_tasks < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return engine.stats().executor_tasks;
}

TEST_F(SubmitTest, LruHitResolvesBeforeSubmitReturns) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ASSERT_TRUE(engine.Check(q_, q_prime_, deps_).ok());  // inline: fills LRU
  const uint64_t tasks_before = engine.stats().executor_tasks;

  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  EXPECT_TRUE(future.done());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executor_tasks, tasks_before);
  EXPECT_EQ(stats.submits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.cache_hit);
  EXPECT_FALSE(outcome->verdict.store_hit);
  EXPECT_TRUE(outcome->verdict.report.contained);
}

TEST_F(SubmitTest, LocalStoreHitResolvesBeforeSubmitReturns) {
  std::string dir = StrCat(::testing::TempDir(), "/cqchase_submit_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  EngineConfig config;
  config.tiers = {TierSpec::Lru(64), TierSpec::LocalStore(dir)};
  {
    // Decides and publishes; teardown flushes the store.
    ContainmentEngine writer(&catalog_, &symbols_, config);
    ASSERT_NE(writer.store(), nullptr) << writer.store_status();
    ASSERT_TRUE(writer.Check(q_, q_prime_, deps_).ok());
  }
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ASSERT_NE(engine.store(), nullptr) << engine.store_status();

  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  EXPECT_TRUE(future.done());
  EXPECT_EQ(engine.stats().executor_tasks, 0u);
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.store_hit);
  EXPECT_TRUE(outcome->verdict.report.contained);

  // The store hit was promoted into the LRU, which answers the re-ask.
  Result<EngineOutcome> again =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_)).Get();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->verdict.cache_hit);
  EXPECT_FALSE(again->verdict.store_hit);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executor_tasks, 0u);
  EXPECT_EQ(stats.chases_built, 0u);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);  // the LRU miss the store answered
}

TEST_F(SubmitTest, RemoteOnlyHitRunsOnAWorkerAndIsPromoted) {
  auto authority = std::make_shared<VerdictAuthority>();
  EngineConfig config;
  config.tiers = {TierSpec::Lru(64),
                  TierSpec::Remote(std::make_shared<InProcessTransport>(
                      authority))};
  {
    // Decides and publishes; teardown flushes to the authority.
    ContainmentEngine writer(&catalog_, &symbols_, config);
    ASSERT_TRUE(writer.Check(q_, q_prime_, deps_).ok());
  }
  ASSERT_EQ(authority->size(), 1u);

  ContainmentEngine engine(&catalog_, &symbols_, config);
  Result<EngineOutcome> outcome =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_)).Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.remote_hit);
  EXPECT_TRUE(outcome->verdict.report.contained);
  EXPECT_GE(AwaitExecutorTasks(engine, 1), 1u);
  EXPECT_EQ(engine.stats().chases_built, 0u);

  // Promoted into the LRU: the re-ask resolves before Submit returns.
  const uint64_t tasks_before = engine.stats().executor_tasks;
  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  EXPECT_TRUE(future.done());
  Result<EngineOutcome> again = future.Get();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->verdict.cache_hit);
  EXPECT_FALSE(again->verdict.remote_hit);
  EXPECT_EQ(engine.stats().executor_tasks, tasks_before);
  EXPECT_EQ(engine.stats().remote_hits, 1u);
}

TEST_F(SubmitTest, ExpiredDeadlineOnAWouldBeHitResolvesDeadlineExceeded) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ASSERT_TRUE(engine.Check(q_, q_prime_, deps_).ok());  // fills the LRU
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now() - milliseconds(1);

  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_, options));
  EXPECT_TRUE(future.done());
  Result<EngineOutcome> outcome = future.Get();
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_expirations, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.executor_tasks, 0u);
}

TEST_F(SubmitTest, CancelOnAnInlineHitIsANoOp) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ASSERT_TRUE(engine.Check(q_, q_prime_, deps_).ok());  // fills the LRU
  EngineFuture<EngineOutcome> future =
      engine.Submit(ContainmentRequest::Borrow(q_, q_prime_, deps_));
  ASSERT_TRUE(future.done());
  future.Cancel();
  Result<EngineOutcome> outcome = future.Get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->verdict.cache_hit);
  EXPECT_TRUE(outcome->verdict.report.contained);
  EXPECT_EQ(engine.stats().cancellations, 0u);
}

TEST_F(SubmitTest, NullInputResolvesWithoutAnExecutorTask) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ContainmentRequest request = ContainmentRequest::Borrow(q_, q_prime_, deps_);
  request.deps = nullptr;
  EngineFuture<EngineOutcome> future = engine.Submit(std::move(request));
  EXPECT_TRUE(future.done());
  EXPECT_EQ(future.Get().status().code(), StatusCode::kInvalidArgument);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.executor_tasks, 0u);
  EXPECT_EQ(stats.submits, 1u);
  EXPECT_EQ(stats.checks, 0u);
}

}  // namespace
}  // namespace cqchase
