#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "base/string_util.h"
#include "chase/bulk.h"

namespace cqchase {

Chase::Chase(std::shared_ptr<const ChasePlan> plan, SymbolTable* symbols,
             ChaseVariant variant, ChaseLimits limits)
    : plan_(std::move(plan)),
      catalog_(&plan_->catalog()),
      symbols_(symbols),
      deps_(&plan_->deps()),
      variant_(variant),
      limits_(limits),
      ndv_shard_(symbols->CreateShard()) {
  considered_.Reset(deps_->inds().size());
  used_inds_.assign(deps_->inds().size(), false);
  used_fds_.assign(deps_->fds().size(), false);
}

Chase::Chase(const Catalog* catalog, SymbolTable* symbols,
             const DependencySet* deps, ChaseVariant variant,
             ChaseLimits limits)
    : Chase(std::make_shared<const ChasePlan>(
                catalog,
                // Non-owning: the caller keeps *deps alive.
                std::shared_ptr<const DependencySet>(
                    std::shared_ptr<const DependencySet>(), deps)),
            symbols, variant, limits) {}

// Out of line: BulkState is incomplete in chase.h.
Chase::~Chase() = default;
Chase::Chase(Chase&&) noexcept = default;
Chase& Chase::operator=(Chase&&) noexcept = default;

Status Chase::Init(const ConjunctiveQuery& query) {
  if (initialized_) {
    return Status::FailedPrecondition("Chase::Init called twice");
  }
  initialized_ = true;
  CQCHASE_RETURN_IF_ERROR(query.Validate());
  if (query.is_empty_query()) {
    outcome_ = ChaseOutcome::kEmptyQuery;
    summary_ = query.summary();
    return Status::OK();
  }
  for (const Fact& f : query.conjuncts()) {
    conjuncts_.push_back(
        ChaseConjunct{next_id_++, f, /*level=*/0, /*alive=*/true,
                      std::nullopt, std::nullopt});
    ++alive_count_;
    for (Term t : f.terms) ndv_shard_.MintAbove(t);
  }
  summary_ = query.summary();
  return RunFdPhase();
}

Term Chase::ResolveTerm(Term t) const {
  // Follows the substitution chain; no path compression (const), chains are
  // short because SubstituteTerm rewrites facts eagerly.
  while (true) {
    auto it = substitution_.find(t);
    if (it == substitution_.end()) return t;
    t = it->second;
  }
}

size_t Chase::IndexOfId(uint64_t id) const {
  // Conjunct ids are creation-ordered and conjuncts are never erased (only
  // marked dead), so id == index.
  assert(id < conjuncts_.size() && conjuncts_[id].id == id);
  return static_cast<size_t>(id);
}

void Chase::SubstituteTerm(Term winner, Term loser) {
  assert(winner < loser);
  substitution_[loser] = winner;
  for (ChaseConjunct& c : conjuncts_) {
    if (!c.alive) continue;
    for (Term& t : c.fact.terms) {
      if (t == loser) t = winner;
    }
  }
  for (Term& t : summary_) {
    if (t == loser) t = winner;
  }
  index_dirty_ = true;  // facts changed; pending_/witness_index_ are stale
  if (bulk_ != nullptr) bulk_->witness_dirty = true;
  DedupeConjuncts();
}

void Chase::DedupeConjuncts() {
  std::map<Fact, uint64_t> first_by_fact;  // fact -> surviving id (min id)
  std::unordered_map<uint64_t, uint64_t> redirect;
  for (ChaseConjunct& c : conjuncts_) {
    if (!c.alive) continue;
    auto [it, inserted] = first_by_fact.emplace(c.fact, c.id);
    if (inserted) continue;
    // Merge c into the earlier conjunct with the identical fact. Paper: the
    // merged conjunct gets the minimum of the two levels.
    ChaseConjunct& survivor = conjuncts_[IndexOfId(it->second)];
    survivor.level = std::min(survivor.level, c.level);
    c.alive = false;
    --alive_count_;
    redirect[c.id] = survivor.id;
    // The survivor inherits the dead conjunct's considered INDs: an IND
    // applied to either copy has been applied to the merged conjunct.
    considered_.Inherit(c.id, survivor.id);
  }
  if (redirect.empty()) return;
  auto target = [&](uint64_t id) {
    auto it = redirect.find(id);
    return it == redirect.end() ? id : it->second;
  };
  for (ChaseArc& arc : arcs_) {
    arc.from = target(arc.from);
    arc.to = target(arc.to);
  }
  for (ChaseConjunct& c : conjuncts_) {
    if (c.parent.has_value()) c.parent = target(*c.parent);
  }
}

bool Chase::ApplyFd(const FunctionalDependency& fd, size_t a, size_t b) {
  // Every caller passes a reference into deps_->fds(), so the lineage index
  // is pointer arithmetic — this is the single FD-merge site of all three
  // cores, which is what makes the used-FD capture core-independent.
  assert(&fd >= deps_->fds().data() &&
         &fd < deps_->fds().data() + deps_->fds().size());
  used_fds_[static_cast<size_t>(&fd - deps_->fds().data())] = true;
  Term u = conjuncts_[a].fact.terms[fd.rhs];
  Term v = conjuncts_[b].fact.terms[fd.rhs];
  assert(u != v);
  if (u.is_constant() && v.is_constant()) {
    // FD CHASE RULE, constant clash: delete all conjuncts and halt.
    for (ChaseConjunct& c : conjuncts_) c.alive = false;
    alive_count_ = 0;
    outcome_ = ChaseOutcome::kEmptyQuery;
    return false;
  }
  Term winner = std::min(u, v);  // constant < DV < NDV, then creation order
  Term loser = std::max(u, v);
  ++stats_.fd_merges;
  SubstituteTerm(winner, loser);
  return true;
}

Status Chase::RunFdPhase() {
  if (deps_->fds().empty()) return Status::OK();
  if (fd_index_dirty_) return RunFullFdPhase();
  return RunIncrementalFdPhase();
}

Status Chase::RunIncrementalFdPhase() {
  // Only conjuncts created since the last check can introduce a violation
  // (nothing else changed). A firing merge mutates facts globally, so it
  // escalates to the full phase.
  while (!fd_queue_.empty()) {
    const uint64_t id = fd_queue_.back();
    fd_queue_.pop_back();
    const ChaseConjunct& c = conjuncts_[IndexOfId(id)];
    if (!c.alive) continue;
    for (uint32_t fd_i = 0; fd_i < deps_->fds().size(); ++fd_i) {
      const FunctionalDependency& fd = deps_->fds()[fd_i];
      if (fd.relation != c.fact.relation) continue;
      const auto [rep, inserted] =
          fd_index_[fd_i].Emplace(id, ConjunctFacts());
      if (inserted || *rep == id) continue;
      const ChaseConjunct& other = conjuncts_[IndexOfId(*rep)];
      if (!other.alive) {
        *rep = id;  // stale representative: adopt the live one
        continue;
      }
      if (other.fact.terms[fd.rhs] == c.fact.terms[fd.rhs]) continue;
      ++stats_.steps;
      if (stats_.steps > limits_.max_steps) {
        return Status::ResourceExhausted(
            StrCat("chase exceeded max_steps=", limits_.max_steps));
      }
      if (!ApplyFd(fd, IndexOfId(*rep), IndexOfId(id))) {
        return Status::OK();  // constant clash: empty query
      }
      fd_index_dirty_ = true;
      return RunFullFdPhase();  // merges may cascade arbitrarily
    }
  }
  return Status::OK();
}

Status Chase::PollControl() {
  if (control_ == nullptr) return Status::OK();
  CQCHASE_RETURN_IF_ERROR(control_->CheckCancelOnly());
  if (control_polls_++ % ChaseControl::kClockPollStride == 0 &&
      control_->deadline_passed()) {
    return Status::DeadlineExceeded("request deadline exceeded");
  }
  return Status::OK();
}

Status Chase::RunFullFdPhase() {
  // One clock read per full phase, not per merge: saturation cascades are
  // the unit the fd_ms timer meters.
  const auto fd_phase_start = std::chrono::steady_clock::now();
  struct FdPhaseTimer {
    std::chrono::steady_clock::time_point start;
    ChaseStats* stats;
    ~FdPhaseTimer() {
      stats->fd_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    }
  } fd_phase_timer{fd_phase_start, &stats_};
  // Repeatedly find a pair of conjuncts with an applicable FD and apply it.
  // The pair is located with one pass per FD over a (lhs-values -> conjunct)
  // map rather than the paper's all-pairs scan; since the FD chase is
  // confluent and the merge representative is the lexicographic minimum of
  // the final equivalence class, the terminal result is the same query the
  // paper's lexicographic-first-pair discipline produces.
  while (outcome_ != ChaseOutcome::kEmptyQuery) {
    // An FD merge cascade can run arbitrarily long on its own; keep the
    // cancellation/deadline poll inside it, not only between IND steps.
    CQCHASE_RETURN_IF_ERROR(PollControl());
    bool applied = false;
    for (uint32_t fd_i = 0; fd_i < deps_->fds().size() && !applied; ++fd_i) {
      const FunctionalDependency& fd = deps_->fds()[fd_i];
      // Deterministic: iterate conjuncts in (fact, id) order so the chosen
      // pair does not depend on container layout.
      fd_order_.clear();
      for (size_t i = 0; i < conjuncts_.size(); ++i) {
        if (conjuncts_[i].alive && conjuncts_[i].fact.relation == fd.relation) {
          fd_order_.push_back(i);
        }
      }
      std::sort(fd_order_.begin(), fd_order_.end(),
                [&](uint64_t x, uint64_t y) {
                  if (conjuncts_[x].fact != conjuncts_[y].fact) {
                    return conjuncts_[x].fact < conjuncts_[y].fact;
                  }
                  return conjuncts_[x].id < conjuncts_[y].id;
                });
      // The first conjunct in that order with each lhs value.
      fd_scan_.Reset(&fd.lhs);
      for (const uint64_t i : fd_order_) {
        const Fact& f = conjuncts_[i].fact;
        const auto [first, inserted] =
            fd_scan_.Emplace(i, ConjunctFacts());
        if (inserted) continue;
        const Fact& g = conjuncts_[*first].fact;
        if (g.terms[fd.rhs] == f.terms[fd.rhs]) continue;
        ++stats_.steps;
        if (stats_.steps > limits_.max_steps) {
          return Status::ResourceExhausted(
              StrCat("chase exceeded max_steps=", limits_.max_steps));
        }
        if (!ApplyFd(fd, *first, i)) return Status::OK();
        applied = true;
        break;
      }
    }
    if (!applied) break;
  }
  // Saturated (or empty): rebuild the incremental FD index.
  fd_index_.resize(deps_->fds().size());
  for (uint32_t fd_i = 0; fd_i < deps_->fds().size(); ++fd_i) {
    fd_index_[fd_i].Reset(&deps_->fds()[fd_i].lhs);
  }
  fd_queue_.clear();
  if (outcome_ != ChaseOutcome::kEmptyQuery) {
    for (const ChaseConjunct& c : conjuncts_) {
      if (!c.alive) continue;
      for (uint32_t fd_i = 0; fd_i < deps_->fds().size(); ++fd_i) {
        if (deps_->fds()[fd_i].relation != c.fact.relation) continue;
        fd_index_[fd_i].Emplace(c.id, ConjunctFacts());
      }
    }
  }
  fd_index_dirty_ = false;
  return Status::OK();
}

void Chase::RebuildIndices() {
  ++stats_.index_rebuilds;
  pending_.clear();
  witness_index_.assign(
      deps_->inds().size(),
      std::map<std::vector<Term>, std::set<std::pair<Fact, uint64_t>>>());
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) IndexNewConjunct(c);
  }
  index_dirty_ = false;
}

void Chase::IndexNewConjunct(const ChaseConjunct& conjunct) {
  for (uint32_t k = 0; k < deps_->inds().size(); ++k) {
    const InclusionDependency& ind = deps_->inds()[k];
    if (ind.lhs_relation == conjunct.fact.relation &&
        !considered_.Test(k, conjunct.id)) {
      pending_.insert(
          PendingStep{conjunct.level, conjunct.fact, conjunct.id, k});
    }
    if (ind.rhs_relation == conjunct.fact.relation) {
      std::vector<Term> projection;
      projection.reserve(ind.rhs_columns.size());
      for (uint32_t col : ind.rhs_columns) {
        projection.push_back(conjunct.fact.terms[col]);
      }
      witness_index_[k][std::move(projection)].emplace(conjunct.fact,
                                                       conjunct.id);
    }
  }
}

std::optional<uint64_t> Chase::FindWitness(uint32_t ind_index,
                                           const std::vector<Term>& x_values) {
  if (index_dirty_) RebuildIndices();
  const auto& by_projection = witness_index_[ind_index];
  auto it = by_projection.find(x_values);
  if (it == by_projection.end() || it->second.empty()) return std::nullopt;
  return it->second.begin()->second;  // min (fact, id): the paper's witness
}

bool Chase::HasPendingIndWork(uint32_t level) {
  if (index_dirty_) RebuildIndices();
  return !pending_.empty() && pending_.begin()->level < level;
}

Result<bool> Chase::OneIndStep(uint32_t level) {
  if (deps_->inds().empty()) return false;
  if (index_dirty_) RebuildIndices();
  // pending_ is ordered by (level, fact, id, ind): its first entry is the
  // lexicographically first minimum-level conjunct with an unconsidered
  // applicable IND, and the first such IND for it.
  if (pending_.empty() || pending_.begin()->level >= level) return false;
  const PendingStep step = *pending_.begin();
  pending_.erase(pending_.begin());

  ++stats_.steps;
  if (stats_.steps > limits_.max_steps) {
    return Status::ResourceExhausted(
        StrCat("chase exceeded max_steps=", limits_.max_steps));
  }

  ChaseConjunct& source = conjuncts_[IndexOfId(step.id)];
  const uint32_t chosen_ind = step.ind;
  const InclusionDependency& ind = deps_->inds()[chosen_ind];
  considered_.Set(chosen_ind, source.id);

  std::vector<Term> x_values;
  x_values.reserve(ind.lhs_columns.size());
  for (uint32_t c : ind.lhs_columns) x_values.push_back(source.fact.terms[c]);

  std::optional<uint64_t> witness = FindWitness(chosen_ind, x_values);
  const size_t rhs_arity = catalog_->arity(ind.rhs_relation);
  const bool has_fresh_columns = ind.width() < rhs_arity;

  if (variant_ == ChaseVariant::kRequired ||
      (witness.has_value() && !has_fresh_columns)) {
    // R-chase: application is required only without a witness. O-chase with
    // no fresh columns: applying would recreate the witness verbatim.
    if (witness.has_value()) {
      MarkIndUsed(chosen_ind);
      arcs_.push_back(
          ChaseArc{source.id, *witness, chosen_ind, /*cross=*/true});
      return true;
    }
  }

  // IND CHASE RULE: build c' with c'[Y] = c[X], fresh NDVs elsewhere.
  const uint32_t new_level = source.level + 1;
  const uint64_t source_id = source.id;
  Fact created;
  created.relation = ind.rhs_relation;
  created.terms.resize(rhs_arity);
  for (size_t k = 0; k < ind.rhs_columns.size(); ++k) {
    created.terms[ind.rhs_columns[k]] = x_values[k];
  }
  for (uint32_t col = 0; col < rhs_arity; ++col) {
    if (!created.terms[col].is_valid()) {
      created.terms[col] = ndv_shard_.MakeChaseNdv(NdvProvenance{
          col, source_id, chosen_ind, new_level});
    }
  }
  if (conjuncts_.size() >= limits_.max_conjuncts) {
    return Status::ResourceExhausted(
        StrCat("chase exceeded max_conjuncts=", limits_.max_conjuncts));
  }
  const uint64_t new_id = next_id_++;
  // Note: push_back may invalidate `source`; use source_id afterwards.
  conjuncts_.push_back(ChaseConjunct{new_id, std::move(created), new_level,
                                     /*alive=*/true, source_id, chosen_ind});
  ++alive_count_;
  MarkIndUsed(chosen_ind);
  arcs_.push_back(ChaseArc{source_id, new_id, chosen_ind, /*cross=*/false});
  if (!index_dirty_) IndexNewConjunct(conjuncts_.back());
  fd_queue_.push_back(new_id);
  return true;
}

Result<ChaseOutcome> Chase::ExpandToLevel(uint32_t level) {
  if (!initialized_) {
    return Status::FailedPrecondition("Chase::Init not called");
  }
  if (outcome_ == ChaseOutcome::kEmptyQuery) return outcome_;
  const uint32_t effective = std::min(level, limits_.max_level);
  if (limits_.core == ChaseCoreMode::kBulk) {
    return BulkExpandToLevel(effective);
  }
  while (true) {
    CQCHASE_RETURN_IF_ERROR(PollControl());
    CQCHASE_RETURN_IF_ERROR(RunFdPhase());
    if (outcome_ == ChaseOutcome::kEmptyQuery) return outcome_;
    CQCHASE_ASSIGN_OR_RETURN(bool stepped, OneIndStep(effective));
    if (!stepped) break;
  }
  // No work below `effective`. Saturated iff nothing remains at any level.
  outcome_ = HasPendingIndWork(std::numeric_limits<uint32_t>::max())
                 ? ChaseOutcome::kTruncated
                 : ChaseOutcome::kSaturated;
  return outcome_;
}

std::vector<Fact> Chase::AliveFacts(std::optional<uint32_t> max_level) const {
  std::vector<Fact> out;
  for (const ChaseConjunct& c : conjuncts_) {
    if (!c.alive) continue;
    if (max_level.has_value() && c.level > *max_level) continue;
    out.push_back(c.fact);
  }
  return out;
}

std::vector<const ChaseConjunct*> Chase::AliveConjuncts() const {
  std::vector<const ChaseConjunct*> out;
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) out.push_back(&c);
  }
  std::sort(out.begin(), out.end(),
            [](const ChaseConjunct* a, const ChaseConjunct* b) {
              if (a->level != b->level) return a->level < b->level;
              return a->id < b->id;
            });
  return out;
}

size_t Chase::CountAtLevel(uint32_t level) const {
  size_t n = 0;
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive && c.level == level) ++n;
  }
  return n;
}

uint32_t Chase::MaxAliveLevel() const {
  uint32_t m = 0;
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) m = std::max(m, c.level);
  }
  return m;
}

ConjunctiveQuery Chase::AsQuery() const {
  ConjunctiveQuery q(catalog_, symbols_);
  for (const ChaseConjunct* c : AliveConjuncts()) q.AddConjunct(c->fact);
  q.SetSummary(summary_);
  if (outcome_ == ChaseOutcome::kEmptyQuery) q.MarkEmptyQuery();
  return q;
}

Instance Chase::AsInstance() const {
  Instance instance(catalog_);
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) {
      Status s = instance.AddFact(c.fact);
      assert(s.ok());
      (void)s;
    }
  }
  return instance;
}

std::string Chase::ToString() const {
  std::string out = StrCat("chase (",
                           variant_ == ChaseVariant::kOblivious ? "O" : "R",
                           ", ",
                           outcome_ == ChaseOutcome::kSaturated ? "saturated"
                           : outcome_ == ChaseOutcome::kEmptyQuery
                               ? "empty-query"
                               : "truncated",
                           "):\n");
  for (const ChaseConjunct* c : AliveConjuncts()) {
    out += StrCat("  L", c->level, " #", c->id, " ",
                  c->fact.ToString(*catalog_, *symbols_), "\n");
  }
  return out;
}

Result<Chase> BuildChase(const ConjunctiveQuery& query,
                         const DependencySet& deps, SymbolTable& symbols,
                         ChaseVariant variant, ChaseLimits limits) {
  Chase chase(&query.catalog(), &symbols, &deps, variant, limits);
  CQCHASE_RETURN_IF_ERROR(chase.Init(query));
  CQCHASE_ASSIGN_OR_RETURN(ChaseOutcome outcome, chase.Run());
  (void)outcome;
  return chase;
}

}  // namespace cqchase
