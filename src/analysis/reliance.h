// Σ reliance analysis: a static interaction graph over the dependencies of a
// DependencySet, computed once per Σ with no chase (the VLog move — rule-level
// positive reliances and restraints, specialized to FDs+INDs).
//
// Nodes are the dependencies themselves: IND k is node k, FD i is node
// num_inds + i. Edges say "firing `from` can change what `to` does":
//
//  * kPositive  IND a -> IND b   iff rhs_relation(a) == lhs_relation(b).
//    An application of a mints a fact of its rhs relation; the IND chase rule
//    applies b to every fact of b's lhs relation, so a's output is exactly
//    the shape of b's input. (Column overlap does not refine this: the rule
//    fires on any fact of the relation, whatever terms sit in X.)
//  * kPositive  IND a -> FD f    iff rhs_relation(a) == f.relation.
//    A minted fact of f's relation can complete an FD-applicable pair.
//  * kInterference  FD f -> IND b  iff f.relation ∈ {lhs_relation(b),
//    rhs_relation(b)}. A merge rewrites facts of f's relation in place:
//    on b's lhs it changes the X-projections b copies, on b's rhs it can
//    create or destroy the witnesses the R-chase dedupes against.
//  * kInterference  FD f -> FD g  iff f.relation == g.relation (including
//    f -> f: a merge can make new pairs agree on the same relation's lhs,
//    which is why FD phases iterate to fixpoint).
//
// The FD interference edges are relation-level, like VLog's predicate
// overlap. They are *advisory*: a merge substitutes a term everywhere it
// occurs, and level-0 query conjuncts may share variables across relations,
// so no consumer may treat their absence as independence. The
// correctness-bearing consumer below reads only the IND->IND positive
// subgraph, which is exact.
//
// Derived artifact:
//
//  * IndCriticalPath(): when the IND positive subgraph is acyclic, the
//    maximum number of INDs on any reliance path. This bounds the chase:
//    a conjunct at level L is the end of an L-step ancestry chain whose
//    consecutive INDs are reliance-linked (each mints the fact the next
//    consumes), so every chase level is <= the critical path, every chase is
//    finite, and the bounded procedure of Theorem 2 becomes a genuine
//    decision procedure for the acyclic-IND fragment even with arbitrary
//    FDs present (FD merges rewrite facts in place and only ever *lower*
//    ids/levels via dedupe — they never extend an ancestry chain). This is
//    the depth SigmaClass::kAcyclicInd dispatches on.
//
// The same IND->IND positive relation (lhs-present => fires =>
// rhs-present) drives the bulk chase core's per-chase pruning, walked over
// its ChasePlan's relation -> INDs index (chase/plan.h, chase/bulk.cc)
// rather than over this graph: an IND fires only on a fact of its lhs
// relation, facts exist only at level 0 or as IND rhs output, and FD merges
// never introduce a new relation, so the closure from the initial relations
// is exact and a pruned IND cannot fire in *any* core.
//
// The analysis is pure and computed once per Σ: SigmaAnalysis carries the
// graph by shared_ptr through the engine's sigma LRU
// (engine/sigma_class.h).
#ifndef CQCHASE_ANALYSIS_RELIANCE_H_
#define CQCHASE_ANALYSIS_RELIANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "deps/dependency_set.h"
#include "schema/catalog.h"

namespace cqchase {

enum class RelianceKind : uint8_t {
  kPositive = 0,      // producer can make consumer applicable
  kInterference = 1,  // FD merge can disturb consumer's input or witnesses
};

struct RelianceEdge {
  uint32_t from = 0;  // node ids: INDs first, then FDs (see SigmaGraph)
  uint32_t to = 0;
  RelianceKind kind = RelianceKind::kPositive;

  friend bool operator==(const RelianceEdge& a, const RelianceEdge& b) {
    return a.from == b.from && a.to == b.to && a.kind == b.kind;
  }
};

class SigmaGraph {
 public:
  // Pure: reads deps/catalog, keeps no pointer to either. O(|Σ|·degree)
  // construction; degree is bounded by the INDs sharing a relation.
  SigmaGraph(const DependencySet& deps, const Catalog& catalog);

  // --- Nodes ---------------------------------------------------------------
  // Node k for k < num_inds() is deps.inds()[k]; node num_inds() + i is
  // deps.fds()[i].
  size_t num_inds() const { return num_inds_; }
  size_t num_fds() const { return num_fds_; }
  size_t num_nodes() const { return num_inds_ + num_fds_; }
  bool IsIndNode(uint32_t node) const { return node < num_inds_; }

  // --- Edges ---------------------------------------------------------------
  const std::vector<RelianceEdge>& edges() const { return edges_; }
  // Successor node ids (deduped, ascending), over edges of every kind.
  const std::vector<uint32_t>& successors(uint32_t node) const {
    return adj_[node];
  }
  bool HasEdge(uint32_t from, uint32_t to, RelianceKind kind) const;

  // --- The acyclic-IND fragment -------------------------------------------
  // Longest path (counted in nodes) through the IND positive subgraph, or
  // nullopt when that subgraph has a cycle. Equals the chase-level bound:
  // every conjunct level is <= this value (see file comment). Coincides
  // with DependencySet::MaxIndPathLength (counted in arcs) because a
  // relation-level path of L arcs is a dependency-level chain of L INDs.
  std::optional<uint32_t> IndCriticalPath() const { return ind_depth_; }
  bool IndSubgraphAcyclic() const { return ind_depth_.has_value(); }

  // Order-insensitive-free fingerprint of the whole graph (nodes, edges,
  // critical path): stable across runs for a fixed Σ, reported by benches so
  // a drifting analysis shows up as a diff in the JSON record.
  uint64_t Fingerprint() const { return fingerprint_; }

  // Human-readable dump, e.g. "ind0->ind1+ ind1->fd0+ fd0~>ind1" (+ for
  // positive, ~> for interference); debugging and test diagnostics.
  std::string ToString() const;

 private:
  void BuildEdges(const DependencySet& deps, size_t num_relations);
  void ComputeIndCriticalPath();
  uint64_t ComputeFingerprint() const;

  size_t num_inds_ = 0;
  size_t num_fds_ = 0;
  std::vector<RelianceEdge> edges_;
  std::vector<std::vector<uint32_t>> adj_;
  std::optional<uint32_t> ind_depth_;
  uint64_t fingerprint_ = 0;
};

}  // namespace cqchase

#endif  // CQCHASE_ANALYSIS_RELIANCE_H_
