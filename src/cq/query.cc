#include "cq/query.h"

#include <unordered_set>

#include "base/string_util.h"

namespace cqchase {

std::vector<Term> ConjunctiveQuery::Variables() const {
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  auto visit = [&](Term t) {
    if (t.is_variable() && seen.insert(t).second) out.push_back(t);
  };
  for (Term t : summary_) visit(t);
  for (const Fact& f : conjuncts_) {
    for (Term t : f.terms) visit(t);
  }
  return out;
}

std::vector<Term> ConjunctiveQuery::AllTerms() const {
  std::vector<Term> out;
  std::unordered_set<Term> seen;
  auto visit = [&](Term t) {
    if (seen.insert(t).second) out.push_back(t);
  };
  for (Term t : summary_) visit(t);
  for (const Fact& f : conjuncts_) {
    for (Term t : f.terms) visit(t);
  }
  return out;
}

Status ConjunctiveQuery::Validate() const {
  for (const Fact& f : conjuncts_) {
    if (f.relation >= catalog_->num_relations()) {
      return Status::InvalidArgument("conjunct references unknown relation");
    }
    if (f.terms.size() != catalog_->arity(f.relation)) {
      return Status::InvalidArgument(
          StrCat("conjunct ", f.ToString(*catalog_, *symbols_),
                 " does not match the arity of relation '",
                 catalog_->relation(f.relation).name(), "' (",
                 catalog_->arity(f.relation), ")"));
    }
    for (Term t : f.terms) {
      if (!t.is_valid()) {
        return Status::InvalidArgument("conjunct contains an invalid term");
      }
    }
  }
  // Whether `t` occurs in some conjunct: a scan, not a term set, so
  // validating allocates nothing (the all-pairs duplicate check below costs
  // more anyway).
  auto in_body = [&](Term t) {
    for (const Fact& f : conjuncts_) {
      for (Term u : f.terms) {
        if (u == t) return true;
      }
    }
    return false;
  };
  for (Term t : summary_) {
    if (!t.is_valid()) {
      return Status::InvalidArgument("summary row contains an invalid term");
    }
    if (t.is_nondist_var()) {
      return Status::InvalidArgument(
          StrCat("summary row entry '", symbols_->Name(t),
                 "' is a nondistinguished variable"));
    }
    if (t.is_dist_var() && !empty_query_ && !in_body(t)) {
      return Status::InvalidArgument(
          StrCat("summary row variable '", symbols_->Name(t),
                 "' does not occur in any conjunct (unsafe query)"));
    }
  }
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    for (size_t j = i + 1; j < conjuncts_.size(); ++j) {
      if (conjuncts_[i] == conjuncts_[j]) {
        return Status::InvalidArgument(
            StrCat("duplicate conjunct ",
                   conjuncts_[i].ToString(*catalog_, *symbols_)));
      }
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString() const {
  std::string head =
      StrCat("ans",
             StrCat("(",
                    StrJoinMapped(summary_, ", ",
                                  [&](Term t) { return symbols_->DisplayName(t); }),
                    ")"));
  if (empty_query_) return StrCat(head, " :- false");
  if (conjuncts_.empty()) return head;
  return StrCat(head, " :- ",
                StrJoinMapped(conjuncts_, ", ", [&](const Fact& f) {
                  return f.ToString(*catalog_, *symbols_);
                }));
}

}  // namespace cqchase
