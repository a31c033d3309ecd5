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
  // For source conjunct i, the index into the target fact vector it was
  // mapped onto. Lets callers recover e.g. chase levels of the image.
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

// The search index over a target fact vector: the facts of each relation and
// the positional posting lists (relation, column, term) -> facts. Every list
// holds fact indices in ascending order, so an index grown by Add visits
// candidates in exactly the order a one-shot index over the same vector
// does.
class FactIndex {
 public:
  // Indexes `fact` as fact number `index`; indices must be added ascending.
  void Add(size_t index, const Fact& fact);
  void Clear();

  // The facts of `relation` (empty for a relation with none).
  const std::vector<size_t>& FactsOf(RelationId relation) const;
  // The facts holding `term` at `column` of `relation`, or nullptr if none.
  const std::vector<size_t>* Postings(RelationId relation, uint32_t column,
                                      Term term) const;

 private:
  struct PosKey {
    RelationId relation;
    uint32_t column;
    Term term;

    friend bool operator==(const PosKey& a, const PosKey& b) {
      return a.relation == b.relation && a.column == b.column &&
             a.term == b.term;
    }
  };
  struct PosKeyHash {
    size_t operator()(const PosKey& k) const {
      return HashCombine(
          HashCombine(static_cast<size_t>(k.relation) + 0x9e3779b9,
                      static_cast<size_t>(k.column)),
          k.term.hash());
    }
  };

  std::vector<std::vector<size_t>> by_relation_;
  std::unordered_map<PosKey, std::vector<size_t>, PosKeyHash> positions_;
};

// An append-only homomorphism target: the facts plus their FactIndex, kept
// across searches so a caller whose target only grows (the chase loop,
// level by level) indexes each fact once instead of once per search.
class HomomorphismTarget {
 public:
  void Append(const Fact& fact) {
    index_.Add(facts_.size(), fact);
    facts_.push_back(fact);
  }
  void Clear() {
    facts_.clear();
    index_.Clear();
  }

  size_t size() const { return facts_.size(); }
  const std::vector<Fact>& facts() const { return facts_; }
  const FactIndex& index() const { return index_; }

 private:
  std::vector<Fact> facts_;
  FactIndex index_;
};

// Finds a homomorphism from `source` into (`target_facts`, `target_summary`).
// `target_summary` must have the same arity as source.summary(). Returns
// nullopt if none exists.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options = {});

// The same search over a prebuilt target: for equal fact vectors the result
// (mapping and conjunct_images) equals the overload above.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const HomomorphismTarget& target,
    const std::vector<Term>& target_summary);

// Semi-naive probe: true iff some homomorphism from `source` into
// (`target`, `target_summary`) sends at least one conjunct onto a fact at
// index >= `first_new`. It runs one search per pivot conjunct p, with the
// conjuncts before p restricted to the old facts [0, first_new), p to the
// new ones, and those after p unrestricted, so no mapping is tried twice.
// When facts [0, first_new) are known to admit no homomorphism, this
// answers exactly whether the whole target does.
bool HasHomomorphismTouching(const ConjunctiveQuery& source,
                             const HomomorphismTarget& target,
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
