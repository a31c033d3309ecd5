// Working state of the set-at-a-time (bulk) chase core.
//
// The scalar core linearizes the paper's selection rule as a std::set of
// PendingStep entries — one ordered insert (with a Fact copy) per applicable
// (conjunct, IND) pair, ~|Σ| of them per minted conjunct. The bulk core
// exploits a structural fact about the IND chase: once the chase starts
// processing level L, the level-L frontier is fixed — every IND application
// mints at level L+1, and only an FD merge (which aborts the sweep) can
// change level-L facts. So instead of maintaining a pending set at all, it
// recomputes the frontier per level from two dense structures:
//
//  * applicable masks: per-relation bitmask of INDs whose lhs is that
//    relation. AND-NOT against the conjunct's ConsideredSet row gives its
//    pending INDs in a few word ops.
//  * witness groups: one (projection -> witnesses) index per DISTINCT
//    (rhs_relation, rhs_columns) pair, shared by all INDs with that rhs —
//    wide Σ typically has far fewer distinct projections than INDs, so a
//    minted conjunct updates a handful of groups instead of |Σ| per-IND
//    witness maps.
//
// Everything Σ-only behind them (the IND -> projection layout, fresh-column
// flags, the relation -> INDs index) is compiled once per Σ into a shared,
// immutable ChasePlan (chase/plan.h); BulkState holds only what one chase
// reaches from its own level-0 relations.
//
// The sweep itself visits the frontier in (fact, id) order applying pending
// INDs ascending — exactly the scalar core's (level, fact, id, ind) order —
// and flushes one columnar ColumnSegment per (level, IND) into the chase's
// SegmentStore. See Chase::RunLevelBatch in bulk.cc for the equivalence
// argument, and tests/chase_core_parity_test.cc for the differential proof.
#ifndef CQCHASE_CHASE_BULK_H_
#define CQCHASE_CHASE_BULK_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cq/fact.h"
#include "schema/catalog.h"
#include "symbols/term.h"

namespace cqchase {

// Per-chase working state, instantiated by Chase::PrepareBulk from the
// chase's ChasePlan before the first IND application: the reachable-IND
// closure from the level-0 relations, masks and witness groups for the
// reachable INDs only. Building it costs O(reachable INDs) plus two dense
// uint32 index arrays (per relation, per IND) — the plan already did the
// O(|Σ|) compilation once for every chase of its Σ. The witness indexes
// inside are rebuilt whenever witness_dirty is set. Not thread-safe.
struct BulkState {
  // Slot value for a pruned IND, an untouched relation, or an IND with no
  // segment open in the current sweep.
  static constexpr uint32_t kNone = ~uint32_t{0};

  // What the chase knows about one relation it can ever hold facts of: a
  // level-0 relation, or the rhs of a reachable IND.
  struct RelationState {
    // Bitmask over IND indices (ConsideredSet row layout): bit k set iff
    // inds()[k].lhs_relation is this relation AND the IND is reachable.
    // Empty = no applicable INDs for the relation.
    std::vector<uint64_t> applicable;
    std::vector<uint32_t> groups;  // witness groups over this relation
  };
  std::vector<uint32_t> relation_slot;  // RelationId -> relations, or kNone
  std::vector<RelationState> relations;

  const RelationState* Relation(RelationId relation) const {
    const uint32_t slot = relation_slot[relation];
    return slot == kNone ? nullptr : &relations[slot];
  }
  // The applicable mask of `relation`, or nullptr when no reachable IND
  // reads it.
  const std::vector<uint64_t>* Applicable(RelationId relation) const {
    const RelationState* state = Relation(relation);
    return state == nullptr || state->applicable.empty() ? nullptr
                                                         : &state->applicable;
  }

  // One witness index per distinct projection of a reachable IND (the
  // plan's ChasePlan::Projection, which outlives this state). The inner set
  // is ordered (fact, id) so begin() is the paper's deterministic witness —
  // same invariant as the scalar witness_index_.
  struct WitnessGroup {
    const std::vector<uint32_t>* columns = nullptr;
    std::map<std::vector<Term>, std::set<std::pair<Fact, uint64_t>>> index;
  };
  std::vector<WitnessGroup> groups;

  // Per IND: its witness group, or kNone when pruned (statically
  // unreachable from the initial relations per the Σ reliance analysis,
  // analysis/reliance.h). Never dereferenced for a pruned IND — its lhs
  // relation never holds a fact, so no sweep ever selects it.
  std::vector<uint32_t> group_of_ind;
  // Per IND: index of its segment in the open sweep's accumulator, kNone
  // when it has minted nothing yet this sweep (see Chase::SweepSegment).
  std::vector<uint32_t> segment_of_ind;

  // Set by Chase::SubstituteTerm: an FD merge mutated facts, so the groups
  // (and any in-flight frontier) are stale. The current sweep aborts and the
  // next one rebuilds.
  bool witness_dirty = true;
};

}  // namespace cqchase

#endif  // CQCHASE_CHASE_BULK_H_
