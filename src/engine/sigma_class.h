// Σ-classification: the structural analysis every decision procedure in the
// library keys on, extracted into one reusable place (previously an anonymous
// helper in core/containment.cc and scattered re-checks in
// finite/finite_containment.cc).
//
// The classes mirror the paper's case split:
//   * kEmpty      — pure Chandra–Merlin; a single homomorphism test decides.
//   * kFdOnly     — the chase is finite (no IND ever fires); chase + test.
//   * kIndOnlyW1  — IND-only, every IND of width 1 (Theorem 2 case (i),
//                   finitely controllable by Theorem 3 case (i)).
//   * kIndOnly    — IND-only, some IND wider than 1 (Theorem 2 case (i)).
//   * kKeyBased   — Section 2's key-based sets (Theorem 2 case (ii),
//                   finitely controllable by Theorem 3 case (ii)).
//   * kAcyclicInd — FD+IND mix, not key-based, but the IND reliance graph
//                   (analysis/reliance.h) is acyclic: every chase level is
//                   bounded by the reliance critical path, so the bounded
//                   chase decides. A fragment beyond the paper's case split;
//                   without it these Σ fall to kGeneral's semi-decision.
//   * kGeneral    — arbitrary FD+IND mix with a cyclic IND reliance graph;
//                   containment is open (Section 5) and only a sound
//                   semi-decision is available.
//
// AnalyzeSigma computes the class once; callers (the ContainmentEngine, the
// finite-containment tools, benches) reuse the analysis instead of
// re-deriving it per call.
#ifndef CQCHASE_ENGINE_SIGMA_CLASS_H_
#define CQCHASE_ENGINE_SIGMA_CLASS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "analysis/reliance.h"
#include "cq/query.h"
#include "deps/dependency_set.h"
#include "schema/catalog.h"

namespace cqchase {

enum class SigmaClass {
  kEmpty = 0,
  kFdOnly = 1,
  kIndOnlyW1 = 2,
  kIndOnly = 3,
  kKeyBased = 4,
  kGeneral = 5,
  kAcyclicInd = 6,
};

// Highest valid SigmaClass value. Persisted bytes are range-validated
// against this sentinel (engine/serialize.cc), so adding a class is a
// two-line change here instead of a silent widening of what a decoder
// accepts from disk. Keep in sync with the last enumerator above.
inline constexpr SigmaClass kMaxSigmaClass = SigmaClass::kAcyclicInd;

// How the engine answers one containment question. kNumStrategies is a
// counter sentinel for per-strategy stats arrays.
enum class DecisionStrategy {
  // Σ empty: one homomorphism search against Q itself, no chase.
  kHomomorphism = 0,
  // FD-only Σ: finite classical chase, then one homomorphism search.
  kFdChase = 1,
  // IND-only Σ with a single-conjunct Q': the PSPACE frontier-streaming
  // procedure of core/pspace.h (Corollary 2.3 / Vardi's remark).
  kStreamingFrontier = 2,
  // IND-only or key-based Σ: iterative-deepening chase bounded by Lemma 5.
  kIterativeDeepening = 3,
  // General FD+IND mix with allow_semidecision: sound, possibly undecided.
  kSemiDecision = 4,
};
inline constexpr int kNumStrategies = 5;

struct SigmaAnalysis {
  SigmaClass sigma_class = SigmaClass::kEmpty;
  size_t max_ind_width = 0;
  // Theorem 2: the level-bounded chase procedure is a decision procedure.
  bool decidable = false;
  // Theorem 3: ⊆f coincides with ⊆∞ (finite controllability).
  bool finitely_controllable = false;
  // The symbol-propagation constant k_Σ of the Theorem 3 proof: 1 for
  // key-based Σ, the summed rhs-relation arities for width-1 IND sets,
  // nullopt where the theorem does not apply.
  std::optional<uint32_t> k_sigma;
  // The Σ reliance graph (analysis/reliance.h): dependency-level positive
  // reliances + FD interference. Always populated by AnalyzeSigma; shared
  // because SigmaAnalysis is cached by value in the engine's sigma LRU and
  // the graph is immutable.
  std::shared_ptr<const SigmaGraph> graph;
  // When the IND reliance subgraph is acyclic: the critical-path chase-depth
  // bound (no conjunct can sit deeper than the longest IND reliance chain).
  // Engaged for every acyclic Σ, not just kAcyclicInd — kIndOnly/kKeyBased
  // keep their Lemma 5 bound for dispatch, this one is informational there.
  std::optional<uint32_t> acyclic_ind_depth;
};

// Classifies Σ once. Pure; does not mutate its arguments.
SigmaAnalysis AnalyzeSigma(const DependencySet& deps, const Catalog& catalog);

// Picks the cheapest sound strategy for deciding Σ ⊨ Q ⊆∞ Q' given the
// analysis. `allow_streaming` gates the single-conjunct PSPACE route (the
// streaming path reports no witness homomorphism, so callers that need one
// disable it). Returns nullopt when Σ is general and semi-decision is not
// permitted — the caller should surface kUnimplemented, exactly as
// CheckContainment always has.
std::optional<DecisionStrategy> ChooseStrategy(const SigmaAnalysis& analysis,
                                               const ConjunctiveQuery& q_prime,
                                               bool allow_semidecision,
                                               bool allow_streaming);

std::string_view ToString(SigmaClass c);
std::string_view ToString(DecisionStrategy s);

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_SIGMA_CLASS_H_
