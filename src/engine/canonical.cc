#include "engine/canonical.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include "base/string_util.h"

namespace cqchase {

namespace {

// Renders a constant unambiguously: the length prefix delimits the name, so
// names containing quotes/commas/parentheses cannot splice into the
// surrounding key syntax and collide two different constant sequences.
void AppendConstant(std::string* out, const SymbolTable& symbols, Term t) {
  const std::string& name = symbols.Name(t);
  StrAppend(out, "c", name.size(), "#", name);
}

// The distinct variables of one query, sorted, so per-variable state
// (occurrence counts, canonical names) lives in flat arrays indexed by
// position instead of in per-term hash maps.
class VarIndex {
 public:
  explicit VarIndex(const ConjunctiveQuery& q) {
    for (Term t : q.summary()) {
      if (t.is_variable()) vars_.push_back(t);
    }
    for (const Fact& f : q.conjuncts()) {
      for (Term t : f.terms) {
        if (t.is_variable()) vars_.push_back(t);
      }
    }
    std::sort(vars_.begin(), vars_.end());
    vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
  }

  size_t size() const { return vars_.size(); }
  size_t operator()(Term var) const {
    return static_cast<size_t>(
        std::lower_bound(vars_.begin(), vars_.end(), var) - vars_.begin());
  }

 private:
  std::vector<Term> vars_;
};

// Assigns canonical names on first use: d0,d1,… for DVs, n0,n1,… for NDVs.
// Constants keep their interned names (their identity is shared across the
// whole task and must survive canonicalization).
class Namer {
 public:
  Namer(const SymbolTable& symbols, const VarIndex& index)
      : symbols_(symbols), index_(index), names_(index.size(), kUnnamed) {}

  // Forgets every assignment, for the next refinement round.
  void Reset() {
    std::fill(names_.begin(), names_.end(), kUnnamed);
    next_d_ = next_n_ = 0;
  }

  // Names `t` if it has no name yet, without rendering it.
  void Touch(Term t) {
    if (t.is_variable()) NumberOf(t);
  }

  void Append(std::string* out, Term t) {
    if (t.is_constant()) {
      AppendConstant(out, symbols_, t);
      return;
    }
    StrAppend(out, t.is_dist_var() ? 'd' : 'n', NumberOf(t));
  }

 private:
  static constexpr size_t kUnnamed = static_cast<size_t>(-1);

  size_t NumberOf(Term var) {
    size_t& name = names_[index_(var)];
    if (name == kUnnamed) name = var.is_dist_var() ? next_d_++ : next_n_++;
    return name;
  }

  const SymbolTable& symbols_;
  const VarIndex& index_;
  std::vector<size_t> names_;
  size_t next_d_ = 0;
  size_t next_n_ = 0;
};

void AppendFact(std::string* out, const Fact& f, Namer& namer) {
  StrAppend(out, "R", f.relation, "(");
  for (size_t i = 0; i < f.terms.size(); ++i) {
    if (i != 0) *out += ',';
    namer.Append(out, f.terms[i]);
  }
  *out += ')';
}

void AppendSummary(std::string* out, const std::vector<Term>& summary,
                   Namer& namer) {
  *out += '(';
  for (size_t i = 0; i < summary.size(); ++i) {
    if (i != 0) *out += ',';
    namer.Append(out, summary[i]);
  }
  *out += ')';
}

// Naming-free signature of one conjunct, built only from isomorphism
// invariants: the relation, constants by name, and for each variable its
// kind, its first occurrence within this conjunct (the local equality
// pattern), its total occurrence count across the query, and the summary
// positions it fills.
void AppendInitialSignature(std::string* out, const Fact& f,
                            const std::vector<Term>& summary,
                            const VarIndex& index,
                            const std::vector<size_t>& counts,
                            const SymbolTable& symbols) {
  StrAppend(out, "R", f.relation, "(");
  for (size_t i = 0; i < f.terms.size(); ++i) {
    if (i != 0) *out += ',';
    Term t = f.terms[i];
    if (t.is_constant()) {
      AppendConstant(out, symbols, t);
      continue;
    }
    size_t first = i;
    for (size_t j = 0; j < i; ++j) {
      if (f.terms[j] == t) {
        first = j;
        break;
      }
    }
    StrAppend(out, t.is_dist_var() ? 'd' : 'n', "@", first, "#",
              counts[index(t)], "s");
    for (size_t j = 0; j < summary.size(); ++j) {
      if (summary[j] == t) StrAppend(out, j, ".");
    }
  }
  *out += ')';
}

// One refinement round's conjunct signatures, rendered back to back into a
// single buffer; signature i is the slice [begin[i], end[i]).
struct Signatures {
  std::string text;
  std::vector<size_t> begin;
  std::vector<size_t> end;

  explicit Signatures(size_t n) : begin(n), end(n) {}

  std::string_view operator[](size_t i) const {
    return std::string_view(text).substr(begin[i], end[i] - begin[i]);
  }
  bool operator==(const Signatures& other) const {
    for (size_t i = 0; i < begin.size(); ++i) {
      if ((*this)[i] != other[i]) return false;
    }
    return true;
  }
};

// Appends the canonical form of `q` (see CanonicalQueryKey) to `*out`.
void AppendQueryKey(std::string* out, const ConjunctiveQuery& q) {
  const SymbolTable& symbols = q.symbols();
  const VarIndex index(q);
  Namer namer(symbols, index);
  if (q.is_empty_query()) {
    *out += "Q{!EMPTY";
    AppendSummary(out, q.summary(), namer);
    *out += '}';
    return;
  }

  const std::vector<Fact>& conjuncts = q.conjuncts();
  std::vector<size_t> counts(index.size(), 0);
  for (const Fact& f : conjuncts) {
    for (Term t : f.terms) {
      if (t.is_variable()) ++counts[index(t)];
    }
  }

  std::vector<size_t> order(conjuncts.size());
  std::iota(order.begin(), order.end(), 0);
  Signatures sigs(conjuncts.size());
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sigs.begin[i] = sigs.text.size();
    AppendInitialSignature(&sigs.text, conjuncts[i], q.summary(), index,
                           counts, symbols);
    sigs.end[i] = sigs.text.size();
  }
  const auto by_signature = [&sigs](size_t a, size_t b) {
    return sigs[a] < sigs[b];
  };

  // Refinement rounds: order by signature, rename by first occurrence in
  // that order, re-sign with the full canonical rendering. Two rounds past
  // the initial invariant signatures are enough to reach a fixpoint on
  // everything short of highly symmetric queries (whose ties only cost cache
  // misses — see header).
  Signatures next(conjuncts.size());
  next.text.reserve(sigs.text.size());
  for (int round = 0; round < 3; ++round) {
    std::stable_sort(order.begin(), order.end(), by_signature);
    namer.Reset();
    for (Term t : q.summary()) namer.Touch(t);
    next.text.clear();
    for (size_t i : order) {
      next.begin[i] = next.text.size();
      AppendFact(&next.text, conjuncts[i], namer);
      next.end[i] = next.text.size();
    }
    if (next == sigs) break;
    std::swap(sigs, next);
  }

  std::stable_sort(order.begin(), order.end(), by_signature);
  namer.Reset();
  out->reserve(out->size() + sigs.text.size() + conjuncts.size() +
              4 * q.summary().size() + 8);
  *out += "Q{";
  AppendSummary(out, q.summary(), namer);
  *out += ':';
  for (size_t i : order) {
    AppendFact(out, conjuncts[i], namer);
    *out += ';';
  }
  *out += '}';
}

}  // namespace

std::string CanonicalQueryKey(const ConjunctiveQuery& q) {
  std::string out;
  AppendQueryKey(&out, q);
  return out;
}

std::string CanonicalSigmaKey(const DependencySet& deps) {
  std::vector<std::string> parts;
  parts.reserve(deps.size());
  for (const FunctionalDependency& fd : deps.fds()) {
    std::string p = StrCat("F", fd.relation, ":");
    for (uint32_t c : fd.lhs) p += StrCat(c, ",");
    p += StrCat(">", fd.rhs);
    parts.push_back(std::move(p));
  }
  for (const InclusionDependency& ind : deps.inds()) {
    std::string p = StrCat("I", ind.lhs_relation, "[");
    for (uint32_t c : ind.lhs_columns) p += StrCat(c, ",");
    p += StrCat("]<=", ind.rhs_relation, "[");
    for (uint32_t c : ind.rhs_columns) p += StrCat(c, ",");
    p += "]";
    parts.push_back(std::move(p));
  }
  std::sort(parts.begin(), parts.end());
  std::string out = "S{";
  for (const std::string& p : parts) {
    out += p;
    out += ";";
  }
  out += "}";
  return out;
}

std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             const DependencySet& deps, ChaseVariant variant) {
  return CanonicalTaskKey(q, q_prime, CanonicalSigmaKey(deps), variant);
}

std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             std::string_view sigma_key, ChaseVariant variant) {
  std::string out =
      StrCat("V", static_cast<int>(variant), "|", sigma_key, "|");
  AppendQueryKey(&out, q);
  out += "|=>|";
  AppendQueryKey(&out, q_prime);
  return out;
}

}  // namespace cqchase
