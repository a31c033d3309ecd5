#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace cqchase {

size_t FactIndex::HashKey(RelationId relation, uint32_t column, Term term) {
  return HashCombine(HashCombine(static_cast<size_t>(relation) + 0x9e3779b9,
                                 static_cast<size_t>(column)),
                     term.hash());
}

size_t FactIndex::FindSlot(RelationId relation, uint32_t column,
                           Term term) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashKey(relation, column, term) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (!slot.term.is_valid() ||
        (slot.term == term && slot.relation == relation &&
         slot.column == column)) {
      return i;
    }
  }
}

void FactIndex::Rehash(size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{});
  for (const Slot& slot : old) {
    if (slot.term.is_valid()) {
      slots_[FindSlot(slot.relation, slot.column, slot.term)] = slot;
    }
  }
}

void FactIndex::Append(List* list, uint32_t position) {
  if (list->size == list->capacity) {
    // Move the list to a block twice its size at the pool's end; the old
    // block is left behind until Clear.
    const uint32_t capacity = list->capacity == 0 ? 2 : list->capacity * 2;
    const uint32_t offset = static_cast<uint32_t>(pool_.size());
    pool_.resize(pool_.size() + capacity);
    std::copy_n(pool_.begin() + list->offset, list->size,
                pool_.begin() + offset);
    list->offset = offset;
    list->capacity = capacity;
  }
  pool_[list->offset + list->size++] = position;
}

void FactIndex::Reserve(size_t facts, size_t postings) {
  size_t slots = slots_.empty() ? 16 : slots_.size();
  while (2 * (used_slots_ + postings) > slots) slots *= 2;
  if (slots > slots_.size()) Rehash(slots);
  // A list of n positions has used at most 4n pool entries (its blocks
  // double from 2), counting the ones it left behind.
  pool_.reserve(pool_.size() + 4 * (facts + postings));
}

void FactIndex::Add(uint32_t position, const Fact& fact) {
  if (fact.relation >= by_relation_.size()) {
    by_relation_.resize(fact.relation + 1);
  }
  Append(&by_relation_[fact.relation], position);
  // Positional posting lists: (relation, column, term) -> positions. These
  // turn candidate enumeration for a pattern with any constant or
  // already-bound variable from a relation scan into a lookup — the
  // difference between minutes and milliseconds on 10^5-conjunct chase
  // prefixes.
  for (uint32_t col = 0; col < fact.terms.size(); ++col) {
    if (2 * (used_slots_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    const Term term = fact.terms[col];
    Slot& slot = slots_[FindSlot(fact.relation, col, term)];
    if (!slot.term.is_valid()) {
      slot = Slot{fact.relation, col, term, List{}};
      ++used_slots_;
    }
    Append(&slot.list, position);
  }
}

void FactIndex::Clear() {
  by_relation_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  used_slots_ = 0;
  pool_.clear();
}

PositionSpan FactIndex::SpanOf(const List& list) const {
  const uint32_t* first = pool_.data() + list.offset;
  return PositionSpan{first, first + list.size};
}

PositionSpan FactIndex::FactsOf(RelationId relation) const {
  return relation < by_relation_.size() ? SpanOf(by_relation_[relation])
                                        : PositionSpan{};
}

PositionSpan FactIndex::Postings(RelationId relation, uint32_t column,
                                 Term term) const {
  if (slots_.empty()) return PositionSpan{};
  const Slot& slot = slots_[FindSlot(relation, column, term)];
  return slot.term.is_valid() ? SpanOf(slot.list) : PositionSpan{};
}

// The solver's working storage. Source terms are numbered when a search
// starts: every non-constant term gets a slot, and the binding is the
// slot-indexed `image` array, so binding, undoing and the Compatible checks
// are array reads instead of hash-map probes.
struct SearchScratch {
  static constexpr uint32_t kConstant = ~uint32_t{0};
  // Half-open range of target positions a source conjunct may land on.
  struct Window {
    size_t begin;
    size_t end;
  };

  std::vector<Term> vars;           // slot -> source term
  std::vector<uint32_t> var_table;  // open addressing: slot + 1, 0 = empty
  // Per source term position: its slot, or kConstant. Conjunct i's codes
  // start at first_code[i]; the summary row's at first_code.back().
  std::vector<uint32_t> codes;
  std::vector<size_t> first_code;
  std::vector<Term> image;      // slot -> bound image, Invalid() if unbound
  std::vector<uint32_t> trail;  // bound slots, in binding order
  std::unordered_set<Term> used_images;  // injective searches only
  std::vector<size_t> images;            // conjunct -> target position
  std::vector<char> assigned;
  // Per source conjunct (touching searches only; empty means unrestricted).
  std::vector<Window> windows;
};

HomomorphismTarget::HomomorphismTarget()
    : scratch_(std::make_unique<SearchScratch>()) {}
HomomorphismTarget::~HomomorphismTarget() = default;
HomomorphismTarget::HomomorphismTarget(HomomorphismTarget&&) noexcept =
    default;
HomomorphismTarget& HomomorphismTarget::operator=(
    HomomorphismTarget&&) noexcept = default;

namespace {

constexpr uint32_t kConstant = SearchScratch::kConstant;

class Solver {
 public:
  Solver(const ConjunctiveQuery& source, HomomorphismTarget& target,
         const FactTable& table, const std::vector<Term>& target_summary,
         const HomomorphismOptions& options)
      : source_(source),
        target_(target),
        table_(table),
        target_summary_(target_summary),
        options_(options),
        s_(target.scratch()) {}

  std::optional<Homomorphism> Run() {
    if (!Start()) return std::nullopt;
    if (!Search(0)) return std::nullopt;
    Homomorphism h;
    h.mapping.reserve(s_.trail.size());
    for (const uint32_t slot : s_.trail) {
      h.mapping.emplace(s_.vars[slot], s_.image[slot]);
    }
    h.conjunct_images = s_.images;
    return h;
  }

  // HasHomomorphismTouching's search: one run per pivot conjunct p, with
  // conjuncts before p held to the old facts and p to the new ones.
  bool RunTouching(size_t first_new) {
    const size_t n = target_.size();
    if (first_new >= n || !Start()) return false;
    const size_t conjuncts = source_.conjuncts().size();
    s_.windows.assign(conjuncts, SearchScratch::Window{0, n});
    for (size_t p = 0; p < conjuncts; ++p) {
      s_.windows[p] = SearchScratch::Window{first_new, n};
      pivot_ = p;
      if (Search(0)) return true;
      s_.windows[p] = SearchScratch::Window{0, first_new};
    }
    return false;
  }

 private:
  // The target fact at `position`.
  const Fact& TargetFact(size_t position) const {
    return table_[target_.ids()[position]];
  }

  // Numbers the source's non-constant terms (slots) and records every term
  // position's slot; clears the binding.
  void Compile() {
    s_.vars.clear();
    s_.codes.clear();
    s_.first_code.clear();
    size_t positions = source_.summary().size();
    for (const Fact& f : source_.conjuncts()) positions += f.terms.size();
    size_t buckets = 16;
    while (buckets < 2 * positions) buckets *= 2;
    s_.var_table.assign(buckets, 0);
    const size_t mask = buckets - 1;
    auto code_of = [&](Term t) -> uint32_t {
      if (t.is_constant()) return kConstant;
      for (size_t i = t.hash() & mask;; i = (i + 1) & mask) {
        uint32_t& entry = s_.var_table[i];
        if (entry == 0) {
          s_.vars.push_back(t);
          entry = static_cast<uint32_t>(s_.vars.size());
          return entry - 1;
        }
        if (s_.vars[entry - 1] == t) return entry - 1;
      }
    };
    for (const Fact& f : source_.conjuncts()) {
      s_.first_code.push_back(s_.codes.size());
      for (Term t : f.terms) s_.codes.push_back(code_of(t));
    }
    s_.first_code.push_back(s_.codes.size());
    for (Term t : source_.summary()) s_.codes.push_back(code_of(t));
    s_.image.assign(s_.vars.size(), Term::Invalid());
    s_.trail.clear();
  }

  // Injectivity bookkeeping and the pinned summary row; false when the
  // summary rows cannot be matched at all.
  bool Start() {
    Compile();
    s_.windows.clear();
    s_.used_images.clear();
    if (options_.injective) {
      // Source constants map to themselves; a variable mapping onto such a
      // constant would break injectivity on the source's term set.
      for (const Fact& f : source_.conjuncts()) {
        for (Term t : f.terms) {
          if (t.is_constant()) s_.used_images.insert(t);
        }
      }
      for (Term t : source_.summary()) {
        if (t.is_constant()) s_.used_images.insert(t);
      }
    }
    // Pin the summary row: source summary maps pointwise onto the target
    // summary. Constants must match themselves.
    const auto& src_summary = source_.summary();
    if (src_summary.size() != target_summary_.size()) return false;
    const uint32_t* code = &s_.codes[s_.first_code.back()];
    for (size_t i = 0; i < src_summary.size(); ++i) {
      if (!Bind(code[i], src_summary[i], target_summary_[i])) return false;
    }
    s_.images.assign(source_.conjuncts().size(), SIZE_MAX);
    s_.assigned.assign(source_.conjuncts().size(), 0);
    return true;
  }

  // Attempts to record t -> image for term `t` with slot `code`; false on
  // conflict (or non-injectivity in injective mode). Constants only map to
  // themselves.
  bool Bind(uint32_t code, Term t, Term image) {
    if (code == kConstant) return t == image;
    Term& bound = s_.image[code];
    if (bound.is_valid()) return bound == image;
    if (options_.injective && !s_.used_images.insert(image).second) {
      return false;
    }
    bound = image;
    s_.trail.push_back(code);
    return true;
  }

  void UndoTo(size_t mark) {
    while (s_.trail.size() > mark) {
      const uint32_t slot = s_.trail.back();
      s_.trail.pop_back();
      if (options_.injective) s_.used_images.erase(s_.image[slot]);
      s_.image[slot] = Term::Invalid();
    }
  }

  // Can source conjunct `ci` map onto the target fact under the current
  // binding?
  bool Compatible(size_t ci, const Fact& fact) const {
    const Fact& pattern = source_.conjuncts()[ci];
    if (pattern.relation != fact.relation ||
        pattern.terms.size() != fact.terms.size()) {
      return false;
    }
    // Check constants and bound variables; also repeated variables within
    // the pattern must match equal target positions, which a scan back to
    // the variable's first earlier position checks without allocating.
    const uint32_t* code = &s_.codes[s_.first_code[ci]];
    for (size_t i = 0; i < pattern.terms.size(); ++i) {
      const Term f = fact.terms[i];
      if (code[i] == kConstant) {
        if (pattern.terms[i] != f) return false;
        continue;
      }
      const Term bound = s_.image[code[i]];
      if (bound.is_valid()) {
        if (bound != f) return false;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (code[j] == code[i]) {
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
  PositionSpan Candidates(size_t conjunct_index) const {
    const Fact& pattern = source_.conjuncts()[conjunct_index];
    const uint32_t* code = &s_.codes[s_.first_code[conjunct_index]];
    const FactIndex& index = target_.index();
    PositionSpan best = index.FactsOf(pattern.relation);
    for (uint32_t col = 0; col < pattern.terms.size(); ++col) {
      const Term pinned =
          code[col] == kConstant ? pattern.terms[col] : s_.image[code[col]];
      if (!pinned.is_valid()) continue;
      const PositionSpan list = index.Postings(pattern.relation, col, pinned);
      if (list.size() < best.size()) best = list;
      if (best.empty()) break;
    }
    if (s_.windows.empty()) return best;
    const SearchScratch::Window& w = s_.windows[conjunct_index];
    best.first = std::lower_bound(best.first, best.last, w.begin);
    best.last = std::lower_bound(best.first, best.last, w.end);
    return best;
  }

  // Number of candidate target facts for the source conjunct, capped at
  // `cap` for speed.
  size_t CountCandidates(size_t conjunct_index, size_t cap) const {
    size_t count = 0;
    for (size_t fi : Candidates(conjunct_index)) {
      if (Compatible(conjunct_index, TargetFact(fi))) {
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
    if (pivot_ != SIZE_MAX && !s_.assigned[pivot_]) {
      best = pivot_;
      best_count = CountCandidates(pivot_, kCountCap);
      if (best_count == 0) return false;  // dead end
    }
    for (size_t i = 0; i < source_.conjuncts().size(); ++i) {
      if (best == pivot_ && best_count == 1) break;
      if (s_.assigned[i] || i == best) continue;
      size_t c = CountCandidates(i, std::min(best_count, kCountCap));
      if (c < best_count) {
        best_count = c;
        best = i;
        if (c == 0) return false;  // dead end
      }
    }
    assert(best != SIZE_MAX);
    const Fact& pattern = source_.conjuncts()[best];
    const uint32_t* code = &s_.codes[s_.first_code[best]];
    s_.assigned[best] = 1;
    for (size_t fi : Candidates(best)) {
      const Fact& fact = TargetFact(fi);
      if (!Compatible(best, fact)) continue;
      size_t mark = s_.trail.size();
      bool ok = true;
      for (size_t i = 0; i < pattern.terms.size() && ok; ++i) {
        ok = Bind(code[i], pattern.terms[i], fact.terms[i]);
      }
      if (ok) {
        s_.images[best] = fi;
        if (Search(depth + 1)) return true;
      }
      UndoTo(mark);
    }
    s_.assigned[best] = 0;
    return false;
  }

  const ConjunctiveQuery& source_;
  const HomomorphismTarget& target_;
  const FactTable& table_;
  const std::vector<Term>& target_summary_;
  const HomomorphismOptions& options_;
  SearchScratch& s_;

  // The conjunct held to the new facts (SIZE_MAX outside RunTouching).
  size_t pivot_ = SIZE_MAX;
  size_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options) {
  if (source.is_empty_query()) return std::nullopt;
  const FactTable table(target_facts);
  HomomorphismTarget target;
  size_t postings = 0;
  for (const Fact& f : target_facts) postings += f.terms.size();
  target.Reserve(target_facts.size(), postings);
  for (size_t i = 0; i < target_facts.size(); ++i) {
    target.Append(table, static_cast<uint32_t>(i));
  }
  return Solver(source, target, table, target_summary, options).Run();
}

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, HomomorphismTarget& target,
    const FactTable& table, const std::vector<Term>& target_summary) {
  if (source.is_empty_query()) return std::nullopt;
  const HomomorphismOptions options;
  return Solver(source, target, table, target_summary, options).Run();
}

bool HasHomomorphismTouching(const ConjunctiveQuery& source,
                             HomomorphismTarget& target,
                             const FactTable& table,
                             const std::vector<Term>& target_summary,
                             size_t first_new) {
  if (source.is_empty_query()) return false;
  const HomomorphismOptions options;
  return Solver(source, target, table, target_summary, options)
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
