#include "chase/plan.h"

#include <map>
#include <utility>

namespace cqchase {

ChasePlan::ChasePlan(const Catalog* catalog,
                     std::shared_ptr<const DependencySet> deps)
    : catalog_(catalog), deps_(std::move(deps)) {
  const std::vector<InclusionDependency>& inds = deps_->inds();
  inds_.resize(inds.size());
  inds_from_.assign(catalog_->num_relations(), {});
  std::map<std::pair<RelationId, std::vector<uint32_t>>, uint32_t> by_rhs;
  for (uint32_t k = 0; k < inds.size(); ++k) {
    const InclusionDependency& ind = inds[k];
    auto [it, inserted] =
        by_rhs.emplace(std::make_pair(ind.rhs_relation, ind.rhs_columns),
                       static_cast<uint32_t>(projections_.size()));
    if (inserted) {
      projections_.push_back(Projection{ind.rhs_relation, ind.rhs_columns});
    }
    inds_[k].projection = it->second;
    inds_[k].fresh = ind.width() < catalog_->arity(ind.rhs_relation);
    inds_from_[ind.lhs_relation].push_back(k);
  }
}

}  // namespace cqchase
