// Isomorphism-invariant canonical keys for containment tasks, the device the
// ContainmentEngine's memoization layer is built on.
//
// Soundness contract: two tasks with equal keys are isomorphic — there are
// kind-preserving variable bijections (constants fixed, relations identical)
// carrying one task's (Q, Q', Σ) onto the other's — so they have the same
// containment verdict, and a cache keyed on these strings never conflates
// tasks with different answers. The converse is deliberately not guaranteed:
// the canonicalizer uses signature-sort + rename refinement rather than full
// graph canonization, so a pair of isomorphic queries whose conjuncts tie on
// every refinement signature may receive distinct keys. A missed hit costs
// one recomputation; a false hit would cost correctness, which is why the
// cheap direction is the one given up.
//
// Variables are scoped per query: a containment decision relates Q' to the
// chase of Q only through constants (which map to themselves) and the summary
// rows (matched positionally), never through shared variable names, so each
// query is canonicalized independently.
#ifndef CQCHASE_ENGINE_CANONICAL_H_
#define CQCHASE_ENGINE_CANONICAL_H_

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
inline constexpr uint32_t kCanonicalKeySchemeVersion = 1;

// Canonical form of one query: conjuncts in a signature-canonical order,
// variables renamed d0,d1,… / n0,n1,… by first occurrence in that order,
// constants rendered by name. Stable under variable renaming and under
// conjunct reordering (up to signature ties, see above).
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
// (byte-identical to the form above, which wraps this one).
std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             std::string_view sigma_key, ChaseVariant variant);

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_CANONICAL_H_
