// Theorem 2's NP certificate, made concrete: a *checkable proof object* for
// Σ ⊨ Q ⊆∞ Q'.
//
// The paper's nondeterministic algorithm "guesses the image of Q' under the
// homomorphism, guesses enough of chase_Σ(Q) to prove that the image is
// indeed part of chase_Σ(Q), and verifies that there is a homomorphism from
// Q' to the guessed image". A ContainmentCertificate is exactly that guess:
//
//   * roots    — the conjuncts of chase_Σ[F](Q), the finite FD-only chase of
//                Q (for IND-only Σ this is Q itself). The verifier recomputes
//                this deterministically (polynomial time) and compares.
//   * steps    — an IND-derivation: each step creates one conjunct from an
//                earlier one by an IND of Σ, with globally fresh NDVs in the
//                non-copied columns (the paper's "each NDV label is
//                consistent with the labelling of the path").
//   * mapping  — the homomorphism Q' → (roots ∪ created conjuncts), given
//                explicitly so checking it is a pointwise comparison.
//
// Soundness does not depend on the chase discipline: any IND-derivation from
// chase_Σ[F](Q) extends along Lemma 1's induction, so a verified certificate
// implies containment for *arbitrary* Σ of FDs and INDs. Completeness for
// the paper's decidable classes (IND-only, key-based) follows from Lemma 5:
// whenever containment holds, a certificate with at most
// |Q'|·|Σ|·(W+1)^W + |Q'| derivation steps exists — the R-chase prefix the
// checker explores (Lemma 2 guarantees the R-chase for key-based Σ performs
// no FD step after the initial phase, so its conjuncts have pure
// IND-derivations).
#ifndef CQCHASE_CORE_CERTIFICATE_H_
#define CQCHASE_CORE_CERTIFICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "core/containment.h"
#include "core/homomorphism.h"
#include "cq/query.h"
#include "deps/dependency_set.h"

namespace cqchase {

// One IND application in the derivation part of a certificate.
struct DerivationStep {
  uint32_t ind_index = 0;  // into deps.inds()
  size_t parent = 0;       // index into the certificate's fact list
  Fact fact;               // the created conjunct

  friend bool operator==(const DerivationStep& a, const DerivationStep& b) {
    return a.ind_index == b.ind_index && a.parent == b.parent &&
           a.fact == b.fact;
  }
};

struct ContainmentCertificate {
  // True when chase_Σ[F](Q) hit a constant clash: Q is unsatisfiable under
  // Σ and contained in everything; roots/steps/mapping are empty.
  bool q_is_empty = false;

  // Facts are numbered: roots occupy [0, roots.size()), the fact of steps[i]
  // has index roots.size() + i.
  std::vector<Fact> roots;
  std::vector<Term> summary;  // summary row of chase_Σ[F](Q)
  std::vector<DerivationStep> steps;

  // The homomorphism: image of every variable of Q' (constants map to
  // themselves), plus, per conjunct of Q', the certificate fact index it
  // lands on.
  std::unordered_map<Term, Term> mapping;
  std::vector<size_t> conjunct_images;

  // Provenance of every chase NDV the facts cite, copied at extraction: the
  // chase that minted them may be gone (and its ids reused) by the time the
  // certificate is printed, so ToString renders their names from here.
  std::unordered_map<Term, NdvProvenance> ndv_provenance;

  // Total number of facts (roots + steps).
  size_t NumFacts() const { return roots.size() + steps.size(); }
  const Fact& FactAt(size_t index) const {
    return index < roots.size() ? roots[index]
                                : steps[index - roots.size()].fact;
  }

  // Certificate size — the quantity Theorem 2 bounds polynomially.
  size_t SizeInSymbols() const;

  std::string ToString(const Catalog& catalog,
                       const SymbolTable& symbols) const;
};

// True iff Σ is a shape certificates can be constructed for: empty, FD-only,
// IND-only, or key-based. Lemma 2 guarantees exactly these classes yield
// derivations free of post-IND FD rewrites (the certificate format's
// requirement); general FD+IND mixes are rejected with kUnimplemented by
// both certificate builders.
bool CertifiableSigma(const DependencySet& deps, const Catalog& catalog);

// Extracts a certificate from a chase of Q that already yielded a witness
// homomorphism Q' → chase (the decision's own chase — this is what lets the
// engine return a proof without re-chasing). `hom.conjunct_images` must
// index into `chase.AliveConjuncts()` (the order FindHomomorphism produced
// it in). Roots are the chase's alive level-0 conjuncts, i.e. chase_Σ[F](Q);
// the derivation keeps only the witness image's ancestor cone. The result
// does not depend on the chase staying alive.
ContainmentCertificate ExtractCertificateFromChase(const Chase& chase,
                                                   const Homomorphism& hom);

// Decides Σ ⊨ Q ⊆∞ Q' and, when it holds, produces a certificate. Returns
// nullopt when containment does not hold; a Σ that is not CertifiableSigma
// is refused with kUnimplemented. Like CheckContainment (core/containment.cc)
// this submits one want_certificate request to a throwaway cache-off
// ContainmentEngine, so the certificate is extracted from the engine's own
// deepening loop (ContainmentEngine::DecideByChase), and:
//   * a chase budget that trips mid-expansion still gets one last witness
//     search over the partial prefix before kResourceExhausted;
//   * options.level_stride is honoured;
//   * reaching options.limits.max_level undecided fails with
//     "containment undecided at chase level …";
//   * queries not built on `symbols` are refused with kInvalidArgument;
//   * each call starts and joins one executor thread.
Result<std::optional<ContainmentCertificate>> BuildCertificate(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, SymbolTable& symbols,
    const ContainmentOptions& options = {});

// Independently verifies a certificate against (Q, Q', Σ). Performs the
// deterministic part of Theorem 2's procedure:
//   1. recomputes chase_Σ[F](Q) and compares with roots/summary (or, for
//      q_is_empty, confirms the FD chase clashes);
//   2. checks every derivation step: the labelled IND exists in Σ, the
//      parent index precedes the step, c'[Y] = parent[X], and every other
//      column holds a fresh NDV seen nowhere earlier in the certificate;
//   3. checks the mapping is a homomorphism: constants fixed, each conjunct
//      of Q' mapped pointwise onto its image fact, and the summary row of
//      Q' mapped pointwise onto the certificate summary.
// Runs in time polynomial in |certificate| + |Q| + |Q'| + |Σ| — no search.
Status VerifyCertificate(const ContainmentCertificate& certificate,
                         const ConjunctiveQuery& q,
                         const ConjunctiveQuery& q_prime,
                         const DependencySet& deps, SymbolTable& symbols);

}  // namespace cqchase

#endif  // CQCHASE_CORE_CERTIFICATE_H_
