// Containment of conjunctive queries under FDs and INDs — the paper's main
// algorithm (Theorems 1 and 2).
//
// Decision procedure: Σ ⊨ Q ⊆∞ Q' iff there is a query homomorphism
// Q' → chaseΣ(Q) (Theorem 1). The chase may be infinite, but when Σ is
// IND-only or key-based, Lemma 5 bounds the level a witness homomorphism
// needs: |Q'| · |Σ| · (W+1)^W (W = max IND width). The checker therefore
// expands the chase prefix level by level (iterative deepening), searching
// for a homomorphism after each expansion, and stops at:
//   * a homomorphism            → contained;
//   * chase saturation          → not contained;
//   * the Lemma 5 level bound   → not contained (certified);
//   * a resource limit          → kResourceExhausted (undecided, never wrong).
//
// Supported Σ shapes (everything else is kUnimplemented — the paper leaves
// the general FD+IND case open, and Mitchell showed its inference problem
// undecidable):
//   * Σ empty        — pure Chandra–Merlin homomorphism test;
//   * FDs only       — finite classical chase, then homomorphism;
//   * INDs only      — Theorem 2 case (i);
//   * key-based      — Theorem 2 case (ii);
//   * anything, when options.allow_semidecision is set — sound but possibly
//     non-terminating-within-limits semi-decision.
#ifndef CQCHASE_CORE_CONTAINMENT_H_
#define CQCHASE_CORE_CONTAINMENT_H_

#include <cstdint>
#include <optional>

#include "chase/chase.h"
#include "core/homomorphism.h"
#include "cq/query.h"
#include "deps/dependency_set.h"

namespace cqchase {

struct ContainmentOptions {
  ChaseLimits limits;
  // Chase discipline used for the decision. Theorem 1 holds for both; the
  // R-chase is usually far smaller. Benchmarks compare the two.
  ChaseVariant variant = ChaseVariant::kRequired;
  // Permit running on dependency sets outside the paper's decidable cases
  // (general FD+IND mixes): sound, but "not contained" can then only be
  // reported on chase saturation, and limits may yield kResourceExhausted.
  bool allow_semidecision = false;
  // Expand this many levels between homomorphism searches.
  uint32_t level_stride = 1;
};

struct ContainmentReport {
  bool contained = false;
  // When contained: the homomorphism found, and the deepest chase level its
  // image touches (the empirical counterpart of the Lemma 5 bound). The
  // witness's chase-NDV images are opaque ids once the decision returns:
  // they named NDVs of a chase that may since be gone, and a later chase
  // may reuse them (symbols/symbol_table.h), so do not pass them to
  // SymbolTable::Name() or Provenance(). Q' variables mapped to Q's own
  // terms stay meaningful.
  std::optional<Homomorphism> witness;
  uint32_t witness_max_level = 0;
  // The Lemma 5 theoretical level bound |Q'|·|Σ|·(W+1)^W, saturated at
  // uint64 max. 0 when Σ has no INDs.
  uint64_t level_bound = 0;
  // Size of the chase prefix explored and its outcome when the decision was
  // made.
  size_t chase_conjuncts = 0;
  uint32_t chase_levels = 0;
  ChaseOutcome chase_outcome = ChaseOutcome::kTruncated;
};

// The Lemma 5 bound |Q'|·|Σ|·(W+1)^W, saturating at uint64 max.
uint64_t Theorem2LevelBound(size_t q_prime_size, size_t sigma_size,
                            size_t max_width);

// Tests Σ ⊨ Q ⊆∞ Q'. Both queries must share `symbols` and a catalog.
// `symbols` is mutated (the chase creates NDVs).
Result<ContainmentReport> CheckContainment(const ConjunctiveQuery& q,
                                           const ConjunctiveQuery& q_prime,
                                           const DependencySet& deps,
                                           SymbolTable& symbols,
                                           const ContainmentOptions& options = {});

// Tests Σ ⊨ Q ≡∞ Q' (containment both ways).
Result<bool> CheckEquivalence(const ConjunctiveQuery& q,
                              const ConjunctiveQuery& q_prime,
                              const DependencySet& deps, SymbolTable& symbols,
                              const ContainmentOptions& options = {});

}  // namespace cqchase

#endif  // CQCHASE_CORE_CONTAINMENT_H_
