// Fact: one atom over a relation — a conjunct of a query, a row of a database
// instance, or a conjunct of a chase. All three roles share this type, which
// is what lets Theorem 1's "view the chase as a database" be a no-op here.
#ifndef CQCHASE_CQ_FACT_H_
#define CQCHASE_CQ_FACT_H_

#include <string>
#include <vector>

#include "base/hash.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"
#include "symbols/term.h"

namespace cqchase {

struct Fact {
  RelationId relation = 0;
  std::vector<Term> terms;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
  friend bool operator!=(const Fact& a, const Fact& b) { return !(a == b); }

  // Deterministic total order: by relation, then pointwise term order.
  friend bool operator<(const Fact& a, const Fact& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.terms < b.terms;
  }

  size_t hash() const {
    return HashCombine(static_cast<size_t>(relation) + 0x51ed270b,
                       HashRange(terms.begin(), terms.end()));
  }

  // Renders e.g. "EMP(e, s, d)".
  std::string ToString(const Catalog& catalog,
                       const SymbolTable& symbols) const;
};

// A read-only view of facts stored in someone else's records, addressed by
// record number: the facts of a std::vector<Fact>, or the `fact` member of
// each record of a vector of larger records (the chase's conjuncts). A view
// is only as valid as the storage it was made from: after the vector
// reallocates, make a new one.
class FactTable {
 public:
  FactTable() = default;
  explicit FactTable(const std::vector<Fact>& facts)
      : base_(reinterpret_cast<const char*>(facts.data())),
        stride_(sizeof(Fact)) {}
  template <typename Record>
  FactTable(const std::vector<Record>& records, Fact Record::*member)
      : base_(records.empty()
                  ? nullptr
                  : reinterpret_cast<const char*>(&(records[0].*member))),
        stride_(sizeof(Record)) {}

  const Fact& operator[](size_t id) const {
    return *reinterpret_cast<const Fact*>(base_ + id * stride_);
  }

 private:
  const char* base_ = nullptr;
  size_t stride_ = 0;
};

// Renders a tuple of terms, e.g. "(e, 'acme')".
std::string TermsToString(const std::vector<Term>& terms,
                          const SymbolTable& symbols);

}  // namespace cqchase

template <>
struct std::hash<cqchase::Fact> {
  size_t operator()(const cqchase::Fact& f) const { return f.hash(); }
};

#endif  // CQCHASE_CQ_FACT_H_
