// Isomorphism-invariant canonical keys for containment tasks, the device the
// ContainmentEngine's memoization layer is built on.
//
// Soundness contract: two tasks with equal keys are isomorphic — there are
// kind-preserving variable bijections (constants fixed, relations identical)
// carrying one task's (Q, Q', Σ) onto the other's — so they have the same
// containment verdict, and a cache keyed on these strings never conflates
// tasks with different answers. Every key is a rendering of its own query
// under some conjunct order, so this holds unconditionally.
//
// Completeness, up to a budget: each query is canonically labelled by
// integer colour refinement with individualization-refinement for the ties
// refinement leaves, so isomorphic queries get equal keys. The tie search
// has a fixed node budget; a query that exhausts it (dozens of
// interchangeable components) renders the first leaf of its search instead —
// still an isomorphic copy, so the key stays sound, but an isomorphic re-ask
// listed in another order may then get another key. A missed hit costs one
// recomputation; a false hit would cost correctness, which is why the cheap
// direction is the one given up. CanonicalTaskKey counts these fallbacks.
//
// Variables are scoped per query: a containment decision relates Q' to the
// chase of Q only through constants (which map to themselves) and the summary
// rows (matched positionally), never through shared variable names, so each
// query is canonicalized independently.
#ifndef CQCHASE_ENGINE_CANONICAL_H_
#define CQCHASE_ENGINE_CANONICAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "chase/chase.h"
#include "cq/query.h"
#include "deps/dependency_set.h"

namespace cqchase {

// Version of the canonical-key output format. The persistent verdict store
// keys durable entries by these strings, so any change to what the functions
// below emit — ordering, rendering, separators — must bump this constant:
// it feeds the store's schema fingerprint (engine/serialize.h), which
// invalidates stores written under the old scheme instead of letting old and
// new keys collide.
inline constexpr uint32_t kCanonicalKeySchemeVersion = 2;

// Canonical form of one query: conjuncts in their canonical-labelling order,
// variables renamed d0,d1,… / n0,n1,… by first occurrence (summary row
// first, then that order), constants rendered by name. Stable under
// variable renaming and under conjunct reordering (up to the tie-search
// budget, see above).
std::string CanonicalQueryKey(const ConjunctiveQuery& q);

// Canonical form of Σ: FDs and INDs rendered over column indices and sorted,
// so insertion order does not matter.
std::string CanonicalSigmaKey(const DependencySet& deps);

// Full memoization key for "Σ ⊨ Q ⊆ Q' under `variant`".
std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             const DependencySet& deps, ChaseVariant variant);

// The same key, given Σ's already-rendered CanonicalSigmaKey: a caller that
// needs the Σ key for other lookups renders it once and passes it here
// (byte-identical to the form above, which wraps this one). When
// `fallbacks` is given, it is incremented once per query (0–2) whose tie
// search ran out of budget.
std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             std::string_view sigma_key, ChaseVariant variant,
                             uint64_t* fallbacks = nullptr);

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_CANONICAL_H_
