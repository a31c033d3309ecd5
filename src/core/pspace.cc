#include "core/pspace.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "chase/chase.h"
#include "core/containment.h"

namespace cqchase {

namespace {

// Applies a certificate mapping to one term (constants fixed).
Term ApplyMapping(const std::unordered_map<Term, Term>& mapping, Term t) {
  if (t.is_constant()) return t;
  auto it = mapping.find(t);
  return it == mapping.end() ? Term::Invalid() : it->second;
}

}  // namespace

Result<StreamingVerifyReport> StreamingVerifyCertificate(
    const ContainmentCertificate& certificate, const ConjunctiveQuery& q,
    const ConjunctiveQuery& q_prime, const DependencySet& deps,
    SymbolTable& symbols, uint32_t window) {
  StreamingVerifyReport report;
  auto reject = [&](std::string why) {
    report.valid = false;
    report.rejection = std::move(why);
    return report;
  };
  if (window < 2) {
    return Status::InvalidArgument(
        "window must be >= 2: a step always references its parent one level "
        "up");
  }
  if (certificate.q_is_empty) {
    // Delegate the (small) FD-chase recomputation to the full verifier.
    Status status = VerifyCertificate(certificate, q, q_prime, deps, symbols);
    report.valid = status.ok();
    if (!status.ok()) report.rejection = status.ToString();
    return report;
  }

  // --- Non-derivation checks (all small: |Q|, |Q'|, |Σ|). ------------------
  // Roots must be chase_Σ[F](Q): recompute via the full verifier on a
  // truncated certificate with no steps and no mapping obligations is not
  // directly possible, so recompute the FD chase here.
  {
    DependencySet fds = deps.FdsOnly();
    Chase fd_chase(&q.catalog(), &symbols, &fds, ChaseVariant::kRequired, {});
    CQCHASE_RETURN_IF_ERROR(fd_chase.Init(q));
    CQCHASE_ASSIGN_OR_RETURN(ChaseOutcome outcome, fd_chase.Run());
    if (outcome == ChaseOutcome::kEmptyQuery) {
      return reject("FD chase of Q clashes but certificate does not say so");
    }
    std::vector<Fact> expected = fd_chase.AliveFacts();
    std::vector<Fact> got = certificate.roots;
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    if (expected != got) return reject("roots differ from chase_FD(Q)");
    if (fd_chase.summary() != certificate.summary) {
      return reject("summary differs from chase_FD(Q)");
    }
  }

  // Precompute, per certificate fact index that some conjunct of Q' maps
  // onto, the expected image fact h(conjunct). Checked when the stream
  // passes that index.
  if (certificate.conjunct_images.size() != q_prime.conjuncts().size()) {
    return reject("conjunct image list has wrong length");
  }
  std::unordered_map<size_t, std::vector<Fact>> expected_images;
  for (size_t i = 0; i < q_prime.conjuncts().size(); ++i) {
    const Fact& src = q_prime.conjuncts()[i];
    Fact image;
    image.relation = src.relation;
    image.terms.reserve(src.terms.size());
    for (Term t : src.terms) {
      Term mapped = ApplyMapping(certificate.mapping, t);
      if (!mapped.is_valid()) {
        return reject(StrCat("conjunct ", i, ": unmapped variable"));
      }
      image.terms.push_back(mapped);
    }
    expected_images[certificate.conjunct_images[i]].push_back(
        std::move(image));
  }
  // Summary row of Q' must map pointwise onto the certificate summary.
  if (q_prime.summary().size() != certificate.summary.size()) {
    return reject("summary arity mismatch");
  }
  for (size_t i = 0; i < certificate.summary.size(); ++i) {
    Term mapped = ApplyMapping(certificate.mapping, q_prime.summary()[i]);
    if (!mapped.is_valid() || mapped != certificate.summary[i]) {
      return reject(StrCat("summary position ", i, " not preserved"));
    }
  }

  // --- The streaming pass over the derivation. -----------------------------
  // Window state: for each of the last `window` levels, the facts (by
  // certificate index) and the symbols they introduced.
  struct LevelWindow {
    uint32_t level = 0;
    std::unordered_map<size_t, Fact> facts;
    std::unordered_set<Term> terms;
  };
  std::deque<LevelWindow> windows;
  auto window_symbols = [&]() {
    size_t n = 0;
    for (const LevelWindow& w : windows) n += w.terms.size();
    return n;
  };
  auto check_image = [&](size_t index, const Fact& fact) -> bool {
    auto it = expected_images.find(index);
    if (it == expected_images.end()) return true;
    for (const Fact& expected : it->second) {
      if (expected != fact) return false;
    }
    expected_images.erase(it);
    return true;
  };

  windows.push_back(LevelWindow{0, {}, {}});
  for (size_t i = 0; i < certificate.roots.size(); ++i) {
    windows.back().facts.emplace(i, certificate.roots[i]);
    windows.back().terms.insert(certificate.roots[i].terms.begin(),
                                certificate.roots[i].terms.end());
    if (!check_image(i, certificate.roots[i])) {
      return reject(StrCat("root ", i, ": image mismatch"));
    }
  }
  windows.back().terms.insert(certificate.summary.begin(),
                              certificate.summary.end());
  report.peak_window_symbols = window_symbols();
  report.total_symbols = windows.back().terms.size();

  std::unordered_set<Term> all_terms = windows.front().terms;  // stats only
  for (size_t i = 0; i < certificate.steps.size(); ++i) {
    const DerivationStep& step = certificate.steps[i];
    const size_t self_index = certificate.roots.size() + i;
    if (step.ind_index >= deps.inds().size()) {
      return reject(StrCat("step ", i, ": IND index out of range"));
    }
    const InclusionDependency& ind = deps.inds()[step.ind_index];

    // Locate the parent inside the window.
    const Fact* parent = nullptr;
    uint32_t parent_level = 0;
    for (const LevelWindow& w : windows) {
      auto it = w.facts.find(step.parent);
      if (it != w.facts.end()) {
        parent = &it->second;
        parent_level = w.level;
        break;
      }
    }
    if (parent == nullptr) {
      return reject(StrCat("step ", i,
                           ": parent is outside the ", window,
                           "-level window (symbol span violates the class "
                           "bound, or steps are out of level order)"));
    }
    const uint32_t level = parent_level + 1;
    if (level < windows.back().level) {
      return reject(StrCat("step ", i, ": levels not non-decreasing"));
    }
    if (level > windows.back().level) {
      windows.push_back(LevelWindow{level, {}, {}});
      while (windows.size() > window) windows.pop_front();
      report.levels = level;
    }

    if (parent->relation != ind.lhs_relation ||
        step.fact.relation != ind.rhs_relation ||
        step.fact.terms.size() != q.catalog().arity(ind.rhs_relation)) {
      return reject(StrCat("step ", i, ": shape does not match its IND"));
    }
    std::vector<bool> copied(step.fact.terms.size(), false);
    for (size_t k = 0; k < ind.width(); ++k) {
      if (step.fact.terms[ind.rhs_columns[k]] !=
          parent->terms[ind.lhs_columns[k]]) {
        return reject(StrCat("step ", i, ": c'[Y] != c[X]"));
      }
      copied[ind.rhs_columns[k]] = true;
    }
    for (size_t col = 0; col < step.fact.terms.size(); ++col) {
      Term t = step.fact.terms[col];
      if (copied[col]) continue;
      if (!t.is_nondist_var()) {
        return reject(StrCat("step ", i, ": column ", col, " not an NDV"));
      }
      for (const LevelWindow& w : windows) {
        if (w.terms.count(t) > 0) {
          return reject(StrCat("step ", i, ": NDV in column ", col,
                               " is not fresh within the window"));
        }
      }
    }
    windows.back().facts.emplace(self_index, step.fact);
    for (Term t : step.fact.terms) {
      windows.back().terms.insert(t);
      all_terms.insert(t);
    }
    if (!check_image(self_index, step.fact)) {
      return reject(StrCat("step ", i, ": image mismatch"));
    }
    report.peak_window_symbols =
        std::max(report.peak_window_symbols, window_symbols());
  }
  report.total_symbols = all_terms.size();
  if (!expected_images.empty()) {
    return reject("some conjunct images point at facts not in the "
                  "certificate");
  }
  report.valid = true;
  return report;
}

Result<StreamingContainmentReport> StreamingSingleConjunctContainment(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, SymbolTable& symbols,
    const StreamingContainmentOptions& options) {
  CQCHASE_RETURN_IF_ERROR(q.Validate());
  CQCHASE_RETURN_IF_ERROR(q_prime.Validate());
  if (!deps.ContainsOnlyInds()) {
    return Status::FailedPrecondition(
        "streaming containment requires an IND-only Sigma");
  }
  if (q_prime.conjuncts().size() != 1) {
    return Status::FailedPrecondition(
        "streaming containment requires a single-conjunct Q'");
  }
  if (q.summary().size() != q_prime.summary().size()) {
    return Status::InvalidArgument("output arity mismatch");
  }

  StreamingContainmentReport report;
  const Fact& pattern = q_prime.conjuncts()[0];

  // A single-conjunct Q' maps into the chase iff one chase conjunct matches
  // the pattern with a consistent variable assignment that also sends Q''s
  // summary row onto Q's (the chase of an IND-only Σ never rewrites the
  // summary).
  auto matches = [&](const Fact& fact) {
    if (fact.relation != pattern.relation) return false;
    std::unordered_map<Term, Term> assignment;
    for (size_t col = 0; col < pattern.terms.size(); ++col) {
      Term s = pattern.terms[col];
      Term d = fact.terms[col];
      if (s.is_constant()) {
        if (s != d) return false;
        continue;
      }
      auto [it, inserted] = assignment.emplace(s, d);
      if (!inserted && it->second != d) return false;
    }
    for (size_t i = 0; i < q_prime.summary().size(); ++i) {
      Term s = q_prime.summary()[i];
      Term expected = q.summary()[i];
      if (s.is_constant()) {
        if (s != expected) return false;
        continue;
      }
      auto it = assignment.find(s);
      // Safety guarantees summary DVs occur in the conjunct.
      if (it == assignment.end() || it->second != expected) return false;
    }
    return true;
  };

  const uint64_t bound =
      Theorem2LevelBound(1, deps.size(), deps.MaxIndWidth());

  // Frontier NDVs are minted like chase NDVs: lock-free from a leased
  // block, unindexed, and every block returned on exit (no frontier term
  // escapes this call).
  SymbolTable::NdvShard shard = symbols.CreateShard();
  std::vector<Fact> frontier = q.conjuncts();
  for (const Fact& f : frontier) {
    for (Term t : f.terms) shard.MintAbove(t);
  }
  report.peak_frontier = frontier.size();
  for (uint32_t level = 0;; ++level) {
    report.conjuncts_streamed += frontier.size();
    for (const Fact& fact : frontier) {
      if (matches(fact)) {
        report.contained = true;
        report.decided_at_level = level;
        return report;
      }
    }
    if (level >= bound) {
      report.contained = false;  // Lemma 5: no deeper witness can exist
      return report;
    }
    if (level >= options.max_level) {
      return Status::ResourceExhausted(
          StrCat("undecided at level cap ", options.max_level));
    }
    // O-chase expansion: every IND applies once to every frontier conjunct.
    std::vector<Fact> next;
    for (size_t pos = 0; pos < frontier.size(); ++pos) {
      const Fact& fact = frontier[pos];
      for (uint32_t i = 0; i < deps.inds().size(); ++i) {
        const InclusionDependency& ind = deps.inds()[i];
        if (ind.lhs_relation != fact.relation) continue;
        Fact child;
        child.relation = ind.rhs_relation;
        child.terms.resize(q.catalog().arity(ind.rhs_relation));
        for (size_t k = 0; k < ind.width(); ++k) {
          child.terms[ind.rhs_columns[k]] = fact.terms[ind.lhs_columns[k]];
        }
        for (uint32_t col = 0; col < child.terms.size(); ++col) {
          if (child.terms[col].is_valid()) continue;
          child.terms[col] = shard.MakeChaseNdv(
              NdvProvenance{col, pos, i, level + 1});
        }
        next.push_back(std::move(child));
        if (next.size() > options.max_frontier) {
          return Status::ResourceExhausted(
              StrCat("frontier exceeded ", options.max_frontier,
                     " conjuncts at level ", level + 1));
        }
      }
    }
    if (next.empty()) {
      report.contained = false;  // chase saturated
      return report;
    }
    report.peak_frontier = std::max(report.peak_frontier, next.size());
    frontier = std::move(next);
  }
}

}  // namespace cqchase
