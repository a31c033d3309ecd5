// The Σ-only half of the set-at-a-time (bulk) chase core, compiled once per Σ.
//
// In the paper's chase (Section 3) Σ is fixed for every query it is applied
// to. Which INDs can fire from a relation, which witness projections exist,
// and which INDs mint fresh NDVs depend on Σ (and the catalog) alone, so a
// ChasePlan compiles them once and every chase of that Σ reads the same
// immutable plan — VLog's TGChase(EDBLayer&, Program*) shape: compile the
// program once, run every chase against it. What a chase instantiates per
// query (the reachable-IND closure, masks, witness indexes) lives in
// BulkState (chase/bulk.h) and costs O(reachable INDs), not O(|Σ|).
//
// A plan owns (shares) the DependencySet it was compiled from, and a Chase
// built from a plan runs on exactly that Σ: IND indexes in masks, arcs,
// used-dependency bitmaps and NDV provenance all number plan.deps().inds().
// So a plan can never be applied to a Σ that lists its INDs in another
// order. Immutable after construction; safe to share across threads and
// across concurrently running chases.
#ifndef CQCHASE_CHASE_PLAN_H_
#define CQCHASE_CHASE_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "deps/dependency_set.h"
#include "schema/catalog.h"

namespace cqchase {

class ChasePlan {
 public:
  // Compiles the plan of Σ = *deps over `catalog`, which must outlive the
  // plan. `deps` may be a non-owning shared_ptr when the caller guarantees
  // the lifetime (Chase's catalog/Σ-pointer constructor does this).
  ChasePlan(const Catalog* catalog, std::shared_ptr<const DependencySet> deps);

  const Catalog& catalog() const { return *catalog_; }
  const DependencySet& deps() const { return *deps_; }

  // One distinct (rhs_relation, rhs_columns) pair of Σ: the projection a
  // witness group indexes. Wide Σ typically has far fewer distinct
  // projections than INDs, and every IND with the same rhs shares one.
  struct Projection {
    RelationId relation = 0;
    std::vector<uint32_t> columns;
  };
  // In first-appearance order over deps().inds().
  const std::vector<Projection>& projections() const { return projections_; }

  // Per IND k of deps().inds():
  // the index of its rhs projection in projections();
  uint32_t projection_of(uint32_t k) const { return inds_[k].projection; }
  // whether the rhs has columns outside rhs_columns (fresh NDVs on mint).
  bool has_fresh_columns(uint32_t k) const { return inds_[k].fresh; }

  // The INDs whose lhs is `relation`, ascending: what can fire on a fact of
  // that relation. The reachable-IND closure walks this index.
  const std::vector<uint32_t>& inds_from(RelationId relation) const {
    return inds_from_[relation];
  }

 private:
  struct IndPlan {
    uint32_t projection = 0;
    bool fresh = false;
  };

  const Catalog* catalog_;
  std::shared_ptr<const DependencySet> deps_;
  std::vector<Projection> projections_;
  std::vector<IndPlan> inds_;
  std::vector<std::vector<uint32_t>> inds_from_;  // per relation
};

}  // namespace cqchase

#endif  // CQCHASE_CHASE_PLAN_H_
