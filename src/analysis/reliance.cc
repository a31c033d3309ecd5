#include "analysis/reliance.h"

#include <algorithm>

#include "base/string_util.h"

namespace cqchase {

namespace {

// FNV-1a over 64-bit lanes; the graph fingerprint must be stable across
// runs and platforms, so it avoids std::hash.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

SigmaGraph::SigmaGraph(const DependencySet& deps, const Catalog& catalog) {
  num_inds_ = deps.inds().size();
  num_fds_ = deps.fds().size();
  BuildEdges(deps, catalog.num_relations());
  adj_.assign(num_nodes(), {});
  for (const RelianceEdge& e : edges_) adj_[e.from].push_back(e.to);
  for (std::vector<uint32_t>& succ : adj_) {
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  }
  ComputeIndCriticalPath();
  fingerprint_ = ComputeFingerprint();
}

void SigmaGraph::BuildEdges(const DependencySet& deps, size_t num_relations) {
  const std::vector<InclusionDependency>& inds = deps.inds();
  // Bucket consumers by relation once, so edge construction is
  // O(|Σ| · consumers-per-relation) rather than all-pairs.
  std::vector<std::vector<uint32_t>> inds_by_lhs(num_relations);
  for (uint32_t k = 0; k < num_inds_; ++k) {
    inds_by_lhs[inds[k].lhs_relation].push_back(k);
  }
  std::vector<std::vector<uint32_t>> fds_by_rel(num_relations);
  for (uint32_t i = 0; i < num_fds_; ++i) {
    fds_by_rel[deps.fds()[i].relation].push_back(
        static_cast<uint32_t>(num_inds_) + i);
  }

  for (uint32_t a = 0; a < num_inds_; ++a) {
    const RelationId produced = inds[a].rhs_relation;
    // IND a -> IND b: a mints facts of b's input relation.
    for (uint32_t b : inds_by_lhs[produced]) {
      edges_.push_back(RelianceEdge{a, b, RelianceKind::kPositive});
    }
    // IND a -> FD f: a minted fact can complete an FD-applicable pair.
    for (uint32_t f : fds_by_rel[produced]) {
      edges_.push_back(RelianceEdge{a, f, RelianceKind::kPositive});
    }
  }
  for (uint32_t i = 0; i < num_fds_; ++i) {
    const uint32_t f = static_cast<uint32_t>(num_inds_) + i;
    const RelationId rel = deps.fds()[i].relation;
    // FD f -> IND b: a merge rewrites facts of `rel` in place, disturbing
    // b's inputs (lhs) or its witness pool (rhs). One edge per IND even
    // when both sides match.
    for (uint32_t b = 0; b < num_inds_; ++b) {
      if (inds[b].lhs_relation == rel || inds[b].rhs_relation == rel) {
        edges_.push_back(RelianceEdge{f, b, RelianceKind::kInterference});
      }
    }
    // FD f -> FD g on the same relation (including f itself): a merge can
    // make further pairs agree on g's lhs.
    for (uint32_t g : fds_by_rel[rel]) {
      edges_.push_back(RelianceEdge{f, g, RelianceKind::kInterference});
    }
  }
}

bool SigmaGraph::HasEdge(uint32_t from, uint32_t to, RelianceKind kind) const {
  for (const RelianceEdge& e : edges_) {
    if (e.from == from && e.to == to && e.kind == kind) return true;
  }
  return false;
}

void SigmaGraph::ComputeIndCriticalPath() {
  // Kahn longest-path over the IND positive subgraph only — the exact,
  // correctness-bearing part of the graph (see header).
  std::vector<uint32_t> indegree(num_inds_, 0);
  for (const RelianceEdge& e : edges_) {
    if (e.kind == RelianceKind::kPositive && e.to < num_inds_ &&
        e.from < num_inds_) {
      ++indegree[e.to];
    }
  }
  std::vector<uint32_t> depth(num_inds_, 1);  // path length in nodes
  std::vector<uint32_t> queue;
  for (uint32_t k = 0; k < num_inds_; ++k) {
    if (indegree[k] == 0) queue.push_back(k);
  }
  size_t processed = 0;
  uint32_t best = 0;
  while (!queue.empty()) {
    const uint32_t a = queue.back();
    queue.pop_back();
    ++processed;
    best = std::max(best, depth[a]);
    for (uint32_t b : adj_[a]) {
      if (b >= num_inds_) continue;
      depth[b] = std::max(depth[b], depth[a] + 1);
      if (--indegree[b] == 0) queue.push_back(b);
    }
  }
  if (processed < num_inds_) {
    ind_depth_ = std::nullopt;  // an IND cycle survived — chase may diverge
  } else {
    ind_depth_ = best;  // 0 when Σ has no INDs
  }
}

uint64_t SigmaGraph::ComputeFingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Mix(h, num_inds_);
  h = Mix(h, num_fds_);
  for (const RelianceEdge& e : edges_) {
    h = Mix(h, (uint64_t{e.from} << 33) | (uint64_t{e.to} << 2) |
                   static_cast<uint64_t>(e.kind));
  }
  h = Mix(h, ind_depth_.has_value() ? uint64_t{*ind_depth_} + 1 : 0);
  return h;
}

std::string SigmaGraph::ToString() const {
  auto node_name = [&](uint32_t node) {
    return node < num_inds_ ? StrCat("ind", node)
                            : StrCat("fd", node - num_inds_);
  };
  std::string out;
  for (const RelianceEdge& e : edges_) {
    if (!out.empty()) out += ' ';
    out += node_name(e.from);
    out += e.kind == RelianceKind::kPositive ? "->" : "~>";
    out += node_name(e.to);
  }
  if (out.empty()) out = "(no edges)";
  return out;
}

}  // namespace cqchase
