// Query homomorphisms (Section 2/3 of the paper): symbol mappings that fix
// constants, send each conjunct of the source query onto a target fact, and
// send the source summary row pointwise onto the target summary row.
//
// Deciding existence is NP-complete (Chandra & Merlin); the solver here is a
// backtracking search with relation indexing and dynamic most-constrained
// conjunct selection, which is fast on the structured queries the paper's
// constructions produce.
#ifndef CQCHASE_CORE_HOMOMORPHISM_H_
#define CQCHASE_CORE_HOMOMORPHISM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "cq/fact.h"
#include "cq/query.h"
#include "symbols/term.h"

namespace cqchase {

struct Homomorphism {
  // Image of every source variable (constants map to themselves and are not
  // recorded).
  std::unordered_map<Term, Term> mapping;
  // For source conjunct i, the position in the target (the index into the
  // target fact vector) it was mapped onto. Lets callers recover e.g. chase
  // levels of the image.
  std::vector<size_t> conjunct_images;

  // Applies the mapping to a term (identity for constants/unmapped).
  Term Apply(Term t) const {
    if (t.is_constant()) return t;
    auto it = mapping.find(t);
    return it == mapping.end() ? t : it->second;
  }
};

struct HomomorphismOptions {
  // Require the mapping to be injective on source terms (used for
  // isomorphism checks).
  bool injective = false;
  // Upper bound on backtracking nodes; 0 means unlimited. When exceeded the
  // search returns nullopt-with-exhausted via FindHomomorphismBounded.
  size_t max_nodes = 0;
};

// An ascending run of target fact positions: a FactIndex list, or its part
// inside a window.
struct PositionSpan {
  const uint32_t* first = nullptr;
  const uint32_t* last = nullptr;

  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

// The search index over a target: the positions of each relation's facts and
// the positional posting lists (relation, column, term) -> positions, where
// a position is a fact's place in the target (0, 1, 2, ... in Add order).
// Every list is ascending, so an index grown by Add visits candidates in
// exactly the order a one-shot index over the same facts does.
//
// Flat storage, no allocation per fact: one open-addressing table keyed by
// (relation, column, term), and every list a block of one shared pool. A
// list that fills its block moves to a block twice the size at the pool's
// end, so appends are amortized O(1) and each list stays contiguous. The
// spans FactsOf and Postings return are valid until the next Add or Clear.
class FactIndex {
 public:
  // Indexes `fact` at `position`, which must be the number of facts added
  // since construction or the last Clear.
  void Add(uint32_t position, const Fact& fact);
  // Makes room for `facts` more facts holding `postings` (relation,
  // column, term) entries in all, so adding them neither rehashes the key
  // table nor grows the pool.
  void Reserve(size_t facts, size_t postings);
  // Forgets every fact; keeps the storage for the next target.
  void Clear();

  // The positions of `relation`'s facts (empty for a relation with none).
  PositionSpan FactsOf(RelationId relation) const;
  // The positions holding `term` at `column` of `relation` (empty if none).
  PositionSpan Postings(RelationId relation, uint32_t column, Term term) const;

 private:
  // One list: `size` positions in pool_[offset, offset + size), with room
  // for `capacity`.
  struct List {
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  struct Slot {
    RelationId relation = 0;
    uint32_t column = 0;
    Term term;  // Term::Invalid() marks an empty slot
    List list;
  };

  static size_t HashKey(RelationId relation, uint32_t column, Term term);
  // The slot of the key, or the empty slot where it would go.
  size_t FindSlot(RelationId relation, uint32_t column, Term term) const;
  // Moves every key into a fresh table of `slots` (a power of two).
  void Rehash(size_t slots);
  void Append(List* list, uint32_t position);
  PositionSpan SpanOf(const List& list) const;

  std::vector<List> by_relation_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  size_t used_slots_ = 0;
  std::vector<uint32_t> pool_;
};

// The solver's state (homomorphism.cc), kept by a HomomorphismTarget
// between its searches.
struct SearchScratch;

// An append-only homomorphism target: the positions of its facts in a
// FactTable (record numbers, e.g. chase conjunct ids) plus their FactIndex,
// kept across searches so a caller whose target only grows (the chase loop,
// level by level) indexes each fact once instead of once per search. The
// facts themselves are never copied: a search reads target fact i as
// table[ids()[i]] through the table it is handed, so the records may move
// (a growing vector) between searches as long as each search gets a table
// of their current storage. The target also keeps the solver's working
// storage (bindings, trail, windows), cleared but not freed between
// searches, so a search over a target that has stopped growing allocates
// nothing but its result; hence searches take the target mutably, one at a
// time.
class HomomorphismTarget {
 public:
  HomomorphismTarget();
  ~HomomorphismTarget();
  HomomorphismTarget(HomomorphismTarget&&) noexcept;
  HomomorphismTarget& operator=(HomomorphismTarget&&) noexcept;

  // Appends record `id` of `table` as the next target fact.
  void Append(const FactTable& table, uint32_t id) {
    index_.Add(static_cast<uint32_t>(ids_.size()), table[id]);
    ids_.push_back(id);
  }
  // Room for `facts` more facts with `postings` terms in all.
  void Reserve(size_t facts, size_t postings) {
    ids_.reserve(ids_.size() + facts);
    index_.Reserve(facts, postings);
  }
  void Clear() {
    ids_.clear();
    index_.Clear();
  }

  size_t size() const { return ids_.size(); }
  // The record number of each target fact, in target order.
  const std::vector<uint32_t>& ids() const { return ids_; }
  const FactIndex& index() const { return index_; }
  // The solver's working storage (homomorphism.cc only).
  SearchScratch& scratch() { return *scratch_; }

 private:
  std::vector<uint32_t> ids_;
  FactIndex index_;
  std::unique_ptr<SearchScratch> scratch_;
};

// Finds a homomorphism from `source` into (`target_facts`, `target_summary`).
// `target_summary` must have the same arity as source.summary(). Returns
// nullopt if none exists.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options = {});

// The same search over a prebuilt target whose facts live in `table`; the
// result's conjunct_images are target positions. For a target holding the
// same facts in the same order the result (mapping and conjunct_images)
// equals the overload above, which builds exactly such a target.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, HomomorphismTarget& target,
    const FactTable& table, const std::vector<Term>& target_summary);

// Semi-naive probe: true iff some homomorphism from `source` into
// (`target`, `target_summary`) sends at least one conjunct onto a fact at
// index >= `first_new`. It runs one search per pivot conjunct p, with the
// conjuncts before p restricted to the old facts [0, first_new), p to the
// new ones, and those after p unrestricted, so no mapping is tried twice.
// When facts [0, first_new) are known to admit no homomorphism, this
// answers exactly whether the whole target does.
bool HasHomomorphismTouching(const ConjunctiveQuery& source,
                             HomomorphismTarget& target,
                             const FactTable& table,
                             const std::vector<Term>& target_summary,
                             size_t first_new);

// Query-to-query convenience: target = q2's conjuncts and summary row.
std::optional<Homomorphism> FindQueryHomomorphism(
    const ConjunctiveQuery& source, const ConjunctiveQuery& target,
    const HomomorphismOptions& options = {});

// True iff the two queries are isomorphic: equal conjunct counts, equal
// summary arity, and injective homomorphisms both ways. This is equality
// "up to a renaming of the variables" — the sense in which chase results
// are unique (Maier–Mendelzon–Sagiv) and Lemma 2's factorization equality
// holds.
bool QueriesIsomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

}  // namespace cqchase

#endif  // CQCHASE_CORE_HOMOMORPHISM_H_
