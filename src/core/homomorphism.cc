#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace cqchase {

namespace {
const std::vector<size_t> kEmptyList;
}  // namespace

void FactIndex::Add(size_t index, const Fact& fact) {
  if (fact.relation >= by_relation_.size()) {
    by_relation_.resize(fact.relation + 1);
  }
  by_relation_[fact.relation].push_back(index);
  // Positional posting lists: (relation, column, term) -> facts. These turn
  // candidate enumeration for a pattern with any constant or already-bound
  // variable from a relation scan into a lookup — the difference between
  // minutes and milliseconds on 10^5-conjunct chase prefixes.
  for (uint32_t col = 0; col < fact.terms.size(); ++col) {
    positions_[PosKey{fact.relation, col, fact.terms[col]}].push_back(index);
  }
}

void FactIndex::Clear() {
  by_relation_.clear();
  positions_.clear();
}

const std::vector<size_t>& FactIndex::FactsOf(RelationId relation) const {
  return relation < by_relation_.size() ? by_relation_[relation] : kEmptyList;
}

const std::vector<size_t>* FactIndex::Postings(RelationId relation,
                                               uint32_t column,
                                               Term term) const {
  auto it = positions_.find(PosKey{relation, column, term});
  return it == positions_.end() ? nullptr : &it->second;
}

namespace {

class Solver {
 public:
  Solver(const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
         const FactIndex& index, const std::vector<Term>& target_summary,
         const HomomorphismOptions& options)
      : source_(source),
        target_facts_(target_facts),
        index_(index),
        target_summary_(target_summary),
        options_(options) {}

  std::optional<Homomorphism> Run() {
    if (!Start()) return std::nullopt;
    if (!Search(0)) return std::nullopt;
    Homomorphism h;
    h.mapping = binding_;
    h.conjunct_images = images_;
    return h;
  }

  // HasHomomorphismTouching's search: one run per pivot conjunct p, with
  // conjuncts before p held to the old facts and p to the new ones.
  bool RunTouching(size_t first_new) {
    const size_t n = target_facts_.size();
    if (first_new >= n || !Start()) return false;
    const size_t conjuncts = source_.conjuncts().size();
    windows_.assign(conjuncts, Window{0, n});
    for (size_t p = 0; p < conjuncts; ++p) {
      windows_[p] = Window{first_new, n};
      pivot_ = p;
      if (Search(0)) return true;
      windows_[p] = Window{0, first_new};
    }
    return false;
  }

 private:
  // Half-open range of target fact indices a source conjunct may land on.
  struct Window {
    size_t begin;
    size_t end;
  };
  // A run of ascending fact indices: a whole index list, or its part inside
  // a conjunct's window.
  struct Span {
    const size_t* first;
    const size_t* last;
    const size_t* begin() const { return first; }
    const size_t* end() const { return last; }
  };

  // Injectivity bookkeeping and the pinned summary row; false when the
  // summary rows cannot be matched at all.
  bool Start() {
    if (options_.injective) {
      // Source constants map to themselves; a variable mapping onto such a
      // constant would break injectivity on the source's term set.
      for (const Fact& f : source_.conjuncts()) {
        for (Term t : f.terms) {
          if (t.is_constant()) used_images_.insert(t);
        }
      }
      for (Term t : source_.summary()) {
        if (t.is_constant()) used_images_.insert(t);
      }
    }
    // Pin the summary row: source summary maps pointwise onto the target
    // summary. Constants must match themselves.
    const auto& src_summary = source_.summary();
    if (src_summary.size() != target_summary_.size()) return false;
    for (size_t i = 0; i < src_summary.size(); ++i) {
      if (!Bind(src_summary[i], target_summary_[i])) return false;
    }
    images_.assign(source_.conjuncts().size(), SIZE_MAX);
    assigned_.assign(source_.conjuncts().size(), false);
    return true;
  }

  // Attempts to record t -> image; false on conflict (or non-injectivity in
  // injective mode). Constants only map to themselves.
  bool Bind(Term t, Term image) {
    if (t.is_constant()) return t == image;
    auto it = binding_.find(t);
    if (it != binding_.end()) return it->second == image;
    if (options_.injective) {
      if (used_images_.count(image) > 0) return false;
      used_images_.insert(image);
    }
    binding_.emplace(t, image);
    trail_.push_back(t);
    return true;
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      Term t = trail_.back();
      trail_.pop_back();
      if (options_.injective) used_images_.erase(binding_[t]);
      binding_.erase(t);
    }
  }

  // Can the source conjunct map onto the target fact under current binding?
  bool Compatible(const Fact& pattern, const Fact& fact) const {
    if (pattern.relation != fact.relation ||
        pattern.terms.size() != fact.terms.size()) {
      return false;
    }
    // Check constants and bound variables; also repeated variables within
    // the pattern must match equal target positions, which a scan back to
    // the variable's first earlier position checks without allocating.
    for (size_t i = 0; i < pattern.terms.size(); ++i) {
      Term p = pattern.terms[i];
      Term f = fact.terms[i];
      if (p.is_constant()) {
        if (p != f) return false;
        continue;
      }
      auto bound = binding_.find(p);
      if (bound != binding_.end()) {
        if (bound->second != f) return false;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (pattern.terms[j] == p) {
          if (fact.terms[j] != f) return false;
          break;
        }
      }
    }
    return true;
  }

  // The tightest available pre-filtered candidate list for a conjunct: the
  // smallest posting list over its constant / bound-variable positions, or
  // the whole relation when every position is a free variable, cut to the
  // conjunct's window. Entries still need a Compatible() check.
  Span Candidates(size_t conjunct_index) const {
    const Fact& pattern = source_.conjuncts()[conjunct_index];
    const std::vector<size_t>* best = &index_.FactsOf(pattern.relation);
    for (uint32_t col = 0; col < pattern.terms.size(); ++col) {
      Term p = pattern.terms[col];
      Term pinned = Term::Invalid();
      if (p.is_constant()) {
        pinned = p;
      } else {
        auto it = binding_.find(p);
        if (it != binding_.end()) pinned = it->second;
      }
      if (!pinned.is_valid()) continue;
      const std::vector<size_t>* list =
          index_.Postings(pattern.relation, col, pinned);
      if (list == nullptr) {
        best = &kEmptyList;
        break;
      }
      if (list->size() < best->size()) best = list;
    }
    Span span{best->data(), best->data() + best->size()};
    if (windows_.empty()) return span;
    const Window& w = windows_[conjunct_index];
    span.first = std::lower_bound(span.first, span.last, w.begin);
    span.last = std::lower_bound(span.first, span.last, w.end);
    return span;
  }

  // Number of candidate target facts for the source conjunct, capped at
  // `cap` for speed.
  size_t CountCandidates(size_t conjunct_index, size_t cap) const {
    const Fact& pattern = source_.conjuncts()[conjunct_index];
    size_t count = 0;
    for (size_t fi : Candidates(conjunct_index)) {
      if (Compatible(pattern, target_facts_[fi])) {
        if (++count >= cap) return count;
      }
    }
    return count;
  }

  bool Search(size_t depth) {
    if (options_.max_nodes != 0 && ++nodes_ > options_.max_nodes) {
      exhausted_ = true;
      return false;
    }
    if (depth == source_.conjuncts().size()) return true;
    // Most-constrained-first: pick the unassigned conjunct with the fewest
    // compatible target facts. The count is capped: the heuristic needs
    // "which is smallest", not exact sizes, and uncapped counting costs a
    // relation scan per conjunct per node on large chase prefixes. The
    // touching search's pivot is counted first and wins ties: binding it
    // first confines the search to the new facts' neighbourhood instead of
    // re-walking the old prefix once per pivot (a chain Q' of n hops would
    // otherwise cost about n full searches per level), and a pivot with one
    // candidate cannot be beaten, so the other counts are skipped.
    constexpr size_t kCountCap = 32;
    size_t best = SIZE_MAX;
    size_t best_count = SIZE_MAX;
    if (pivot_ != SIZE_MAX && !assigned_[pivot_]) {
      best = pivot_;
      best_count = CountCandidates(pivot_, kCountCap);
      if (best_count == 0) return false;  // dead end
    }
    for (size_t i = 0; i < source_.conjuncts().size(); ++i) {
      if (best == pivot_ && best_count == 1) break;
      if (assigned_[i] || i == best) continue;
      size_t c = CountCandidates(i, std::min(best_count, kCountCap));
      if (c < best_count) {
        best_count = c;
        best = i;
        if (c == 0) return false;  // dead end
      }
    }
    assert(best != SIZE_MAX);
    const Fact& pattern = source_.conjuncts()[best];
    assigned_[best] = true;
    for (size_t fi : Candidates(best)) {
      const Fact& fact = target_facts_[fi];
      if (!Compatible(pattern, fact)) continue;
      size_t mark = trail_.size();
      bool ok = true;
      for (size_t i = 0; i < pattern.terms.size() && ok; ++i) {
        ok = Bind(pattern.terms[i], fact.terms[i]);
      }
      if (ok) {
        images_[best] = fi;
        if (Search(depth + 1)) return true;
      }
      UndoTo(mark);
    }
    assigned_[best] = false;
    return false;
  }

  const ConjunctiveQuery& source_;
  const std::vector<Fact>& target_facts_;
  const FactIndex& index_;
  const std::vector<Term>& target_summary_;
  const HomomorphismOptions& options_;

  // Per source conjunct (RunTouching only; empty means unrestricted), and
  // the conjunct held to the new facts (SIZE_MAX outside RunTouching).
  std::vector<Window> windows_;
  size_t pivot_ = SIZE_MAX;
  std::unordered_map<Term, Term> binding_;
  std::unordered_set<Term> used_images_;
  std::vector<Term> trail_;
  std::vector<size_t> images_;
  std::vector<bool> assigned_;
  size_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options) {
  if (source.is_empty_query()) return std::nullopt;
  FactIndex index;
  for (size_t i = 0; i < target_facts.size(); ++i) {
    index.Add(i, target_facts[i]);
  }
  return Solver(source, target_facts, index, target_summary, options).Run();
}

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const HomomorphismTarget& target,
    const std::vector<Term>& target_summary) {
  if (source.is_empty_query()) return std::nullopt;
  const HomomorphismOptions options;
  return Solver(source, target.facts(), target.index(), target_summary,
                options)
      .Run();
}

bool HasHomomorphismTouching(const ConjunctiveQuery& source,
                             const HomomorphismTarget& target,
                             const std::vector<Term>& target_summary,
                             size_t first_new) {
  if (source.is_empty_query()) return false;
  const HomomorphismOptions options;
  return Solver(source, target.facts(), target.index(), target_summary,
                options)
      .RunTouching(first_new);
}

std::optional<Homomorphism> FindQueryHomomorphism(
    const ConjunctiveQuery& source, const ConjunctiveQuery& target,
    const HomomorphismOptions& options) {
  return FindHomomorphism(source, target.conjuncts(), target.summary(),
                          options);
}

bool QueriesIsomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.is_empty_query() != b.is_empty_query()) return false;
  if (a.is_empty_query()) return a.summary() == b.summary();
  if (a.conjuncts().size() != b.conjuncts().size()) return false;
  if (a.summary().size() != b.summary().size()) return false;
  HomomorphismOptions inj;
  inj.injective = true;
  return FindQueryHomomorphism(a, b, inj).has_value() &&
         FindQueryHomomorphism(b, a, inj).has_value();
}

}  // namespace cqchase
