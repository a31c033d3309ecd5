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
// overlap. They are *advisory* (scheduler consumers must still serialize
// merges globally, because a merge substitutes a term everywhere it occurs,
// and level-0 query conjuncts may share variables across relations — see
// ROADMAP's parallelism item). The correctness-bearing consumers below read
// only the IND->IND positive subgraph, which is exact.
//
// Derived artifacts:
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
//  * SCC condensation with per-component longest-path depth and the frontier
//    layering frontiers(): layer d holds every component at depth d, i.e.
//    all of whose predecessors sit in layers < d. Components within one
//    layer share no reliance in either direction — the independent work
//    sets a future intra-chase scheduler executes concurrently.
//  * ReachableInds(): the closure of "which INDs can ever fire" from the
//    relations present in an initial query. The bulk chase core computes
//    the same fixpoint per chase over its ChasePlan's relation -> INDs
//    index (chase/plan.h, chase/bulk.cc), touching reachable INDs only, to
//    prune dead masks and witness groups. An IND fires only on a fact
//    of its lhs relation; facts exist only at level 0 or as IND rhs output;
//    FD merges never introduce a new relation. So the closure over
//    lhs-present => rhs-present is exact, not heuristic: a pruned IND
//    cannot fire in *any* core, which is why pruning preserves the
//    bit-identical scalar/bulk parity contract.
//
// The analysis is pure and computed once per Σ: SigmaAnalysis carries the
// graph by shared_ptr through the engine's sigma LRU
// (engine/sigma_class.h), and the Σ record's ChasePlan (chase/plan.h)
// reuses that same graph, so no chase of a cached Σ rebuilds it.
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

  // --- SCC condensation (the scheduler artifact) ---------------------------
  struct Component {
    std::vector<uint32_t> members;     // node ids, ascending
    std::vector<uint32_t> successors;  // component ids, ascending, deduped
    uint32_t depth = 0;  // longest path from any source component to this
    bool cyclic = false;  // size > 1, or a self-edge on the single member
  };
  // Topological order: every edge goes from a lower component index to a
  // higher one.
  const std::vector<Component>& components() const { return components_; }
  uint32_t ComponentOf(uint32_t node) const { return component_of_[node]; }
  // frontiers()[d] lists the component ids at depth d. Components in one
  // layer are pairwise reliance-independent; executing the layers in order
  // respects every edge. This is the dependency-application DAG the parallel
  // chase core schedules: ChaseCoreMode::kParallel maps each pending
  // (level, IND) batch to its IND's component depth (ChasePlan::depth)
  // and launches one layer of witness-class tasks per depth, barrier
  // between layers. Note the mapping is *scheduling* structure only —
  // same-depth INDs may still share an rhs relation and thus a witness
  // index, so the correctness unit inside a layer is the rhs-relation
  // witness class, not the component (see chase/parallel.cc).
  const std::vector<std::vector<uint32_t>>& frontiers() const {
    return frontiers_;
  }

  // --- Pruning --------------------------------------------------------------
  // `relations_present[r]` marks relations with at least one initial fact.
  // Returns, per IND, whether it can ever become applicable: the fixpoint of
  // present-lhs => present-rhs over the INDs. Exact (see file comment). The
  // bulk core walks the same fixpoint per chase over its plan's index
  // (Chase::PrepareBulk) rather than calling this O(|Σ|)-per-pass form.
  std::vector<bool> ReachableInds(
      const std::vector<bool>& relations_present) const;

  // Order-insensitive-free fingerprint of the whole graph (nodes, edges,
  // critical path): stable across runs for a fixed Σ, reported by benches so
  // a drifting analysis shows up as a diff in the JSON record.
  uint64_t Fingerprint() const { return fingerprint_; }

  // Human-readable dump, e.g. "ind0->ind1+ ind1->fd0+ fd0~>ind1" (+ for
  // positive, ~> for interference); debugging and test diagnostics.
  std::string ToString() const;

 private:
  void BuildEdges(const DependencySet& deps);
  void ComputeIndCriticalPath();
  void Condense();
  uint64_t ComputeFingerprint() const;

  size_t num_inds_ = 0;
  size_t num_fds_ = 0;
  std::vector<RelationId> ind_lhs_rel_;
  std::vector<RelationId> ind_rhs_rel_;
  size_t num_relations_ = 0;
  std::vector<RelianceEdge> edges_;
  std::vector<std::vector<uint32_t>> adj_;
  std::optional<uint32_t> ind_depth_;
  std::vector<Component> components_;
  std::vector<uint32_t> component_of_;
  std::vector<std::vector<uint32_t>> frontiers_;
  uint64_t fingerprint_ = 0;
};

}  // namespace cqchase

#endif  // CQCHASE_ANALYSIS_RELIANCE_H_
