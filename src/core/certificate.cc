#include "core/certificate.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "base/string_util.h"
#include "chase/chase.h"

namespace cqchase {

size_t ContainmentCertificate::SizeInSymbols() const {
  size_t n = summary.size() + mapping.size();
  for (const Fact& f : roots) n += f.terms.size();
  for (const DerivationStep& s : steps) n += s.fact.terms.size();
  return n;
}

std::string ContainmentCertificate::ToString(const Catalog& catalog,
                                             const SymbolTable& symbols) const {
  if (q_is_empty) return "certificate: Q is empty under Sigma\n";
  // Chase NDVs render from the copied provenance, byte-identical to what
  // the chase's own table rendered; every other term from the table.
  auto name = [&](Term t, bool display) {
    auto it = ndv_provenance.find(t);
    if (it != ndv_provenance.end()) {
      return SymbolTable::ChaseNdvName(t.id(), it->second);
    }
    return display ? symbols.DisplayName(t) : symbols.Name(t);
  };
  auto fact = [&](const Fact& f) {
    return StrCat(catalog.relation(f.relation).name(), "(",
                  StrJoinMapped(f.terms, ", ",
                                [&](Term t) { return name(t, true); }),
                  ")");
  };
  std::string out = "roots (chase_FD(Q)):\n";
  for (size_t i = 0; i < roots.size(); ++i) {
    StrAppend(&out, "  [", i, "] ", fact(roots[i]), "\n");
  }
  out += "derivation:\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    StrAppend(&out, "  [", roots.size() + i, "] ", fact(steps[i].fact),
              "  <- [", steps[i].parent, "] via IND #", steps[i].ind_index,
              "\n");
  }
  StrAppend(&out, "summary: (",
            StrJoinMapped(summary, ", ", [&](Term t) { return name(t, false); }),
            ")\n");
  return out;
}

namespace {

// The deterministic FD-only chase of Q that VerifyCertificate compares the
// roots against. Outcome plus the resulting facts and summary.
struct FdChaseResult {
  bool empty_query = false;
  std::vector<Fact> facts;
  std::vector<Term> summary;
};

Result<FdChaseResult> RunFdChase(const ConjunctiveQuery& q,
                                 const DependencySet& deps,
                                 SymbolTable& symbols,
                                 const ChaseLimits& limits) {
  FdChaseResult out;
  DependencySet fds = deps.FdsOnly();
  Chase chase(&q.catalog(), &symbols, &fds, ChaseVariant::kRequired, limits);
  CQCHASE_RETURN_IF_ERROR(chase.Init(q));
  CQCHASE_ASSIGN_OR_RETURN(ChaseOutcome outcome, chase.Run());
  if (outcome == ChaseOutcome::kEmptyQuery) {
    out.empty_query = true;
    return out;
  }
  out.facts = chase.AliveFacts();
  out.summary = chase.summary();
  return out;
}

bool SameFactMultiset(std::vector<Fact> a, std::vector<Fact> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

bool CertifiableSigma(const DependencySet& deps, const Catalog& catalog) {
  // Certificates require derivations free of post-IND FD rewrites, which
  // Lemma 2 guarantees exactly for the paper's decidable classes.
  return deps.ContainsOnlyInds() || deps.ContainsOnlyFds() || deps.empty() ||
         deps.IsKeyBased(catalog);
}

ContainmentCertificate ExtractCertificateFromChase(const Chase& chase,
                                                   const Homomorphism& hom) {
  // Extract the image conjuncts and their ordinary-arc ancestors. The walk
  // is O(cone): ids are dense creation indices, so each parent hop is one
  // Chase::ConjunctById array lookup — no id map over the whole prefix,
  // which matters because the engine calls this while holding a shared
  // chase entry's lock against a prefix other askers may have driven far
  // deeper than this witness needs. Parent pointers are merge-redirected by
  // the chase, so they resolve to the live ancestor; the columnar
  // SegmentStore (bulk core) supplies the dependency label per hop below.
  std::vector<const ChaseConjunct*> alive = chase.AliveConjuncts();
  std::set<uint64_t> needed;
  for (size_t fact_index : hom.conjunct_images) {
    const ChaseConjunct* c = alive[fact_index];
    while (true) {
      if (!needed.insert(c->id).second) break;
      if (!c->parent.has_value()) break;
      const ChaseConjunct* parent = chase.ConjunctById(*c->parent);
      if (parent == nullptr || !parent->alive) break;  // defensively stop
      c = parent;
    }
  }

  ContainmentCertificate cert;
  // Roots: every alive level-0 conjunct — this *is* chase_Σ[F](Q) (for
  // IND-only Σ, Q itself).
  std::unordered_map<uint64_t, size_t> index_of_id;
  for (const ChaseConjunct* c : alive) {
    if (c->level != 0) continue;
    index_of_id[c->id] = cert.roots.size();
    cert.roots.push_back(c->fact);
  }
  cert.summary = chase.summary();
  // Steps: needed non-root conjuncts in creation order (parents precede
  // children by construction).
  for (const ChaseConjunct* c : alive) {
    if (c->level == 0 || needed.count(c->id) == 0) continue;
    DerivationStep step;
    // Dependency label: the segment edge that minted this conjunct (bulk
    // core), falling back to the per-conjunct record (scalar core). The two
    // agree whenever both exist — segments are the columnar mint history.
    std::optional<SegmentEdge> edge = chase.segments().EdgeOf(c->id);
    step.ind_index =
        edge.has_value() ? edge->ind_index : c->parent_ind.value_or(0);
    step.parent = index_of_id.at(*c->parent);
    step.fact = c->fact;
    index_of_id[c->id] = cert.roots.size() + cert.steps.size();
    cert.steps.push_back(std::move(step));
  }
  cert.mapping = hom.mapping;
  const SymbolTable& symbols = chase.symbols();
  auto copy_provenance = [&](const Fact& f) {
    for (Term t : f.terms) {
      if (!SymbolTable::IsChaseRegionNdv(t) ||
          cert.ndv_provenance.count(t) != 0) {
        continue;
      }
      if (std::optional<NdvProvenance> p = symbols.Provenance(t)) {
        cert.ndv_provenance.emplace(t, *p);
      }
    }
  };
  for (const Fact& f : cert.roots) copy_provenance(f);
  for (const DerivationStep& step : cert.steps) copy_provenance(step.fact);
  cert.conjunct_images.reserve(hom.conjunct_images.size());
  for (size_t fact_index : hom.conjunct_images) {
    cert.conjunct_images.push_back(index_of_id.at(alive[fact_index]->id));
  }
  return cert;
}

Status VerifyCertificate(const ContainmentCertificate& certificate,
                         const ConjunctiveQuery& q,
                         const ConjunctiveQuery& q_prime,
                         const DependencySet& deps, SymbolTable& symbols) {
  CQCHASE_RETURN_IF_ERROR(q.Validate());
  CQCHASE_RETURN_IF_ERROR(q_prime.Validate());
  if (q.summary().size() != q_prime.summary().size()) {
    return Status::InvalidArgument("output arity mismatch");
  }

  // 1. Recompute chase_Σ[F](Q) and compare.
  ChaseLimits limits;
  CQCHASE_ASSIGN_OR_RETURN(FdChaseResult fd_chase,
                           RunFdChase(q, deps, symbols, limits));
  if (certificate.q_is_empty) {
    if (!fd_chase.empty_query) {
      return Status::InvalidArgument(
          "certificate claims Q is empty under Sigma, but the FD chase of Q "
          "does not clash");
    }
    return Status::OK();
  }
  if (fd_chase.empty_query) {
    return Status::InvalidArgument(
        "the FD chase of Q clashes but the certificate does not say so");
  }
  if (!SameFactMultiset(certificate.roots, fd_chase.facts)) {
    return Status::InvalidArgument(
        "certificate roots differ from chase_FD(Q)");
  }
  if (certificate.summary != fd_chase.summary) {
    return Status::InvalidArgument(
        "certificate summary differs from the summary of chase_FD(Q)");
  }

  // 2. Check the derivation: parents precede, INDs are in Σ, copied columns
  //    match, all other columns hold globally fresh, pairwise distinct NDVs.
  std::unordered_set<Term> seen;
  for (const Fact& f : certificate.roots) {
    seen.insert(f.terms.begin(), f.terms.end());
  }
  seen.insert(certificate.summary.begin(), certificate.summary.end());
  for (size_t i = 0; i < certificate.steps.size(); ++i) {
    const DerivationStep& step = certificate.steps[i];
    const size_t self_index = certificate.roots.size() + i;
    if (step.parent >= self_index) {
      return Status::InvalidArgument(
          StrCat("step ", i, ": parent does not precede the step"));
    }
    if (step.ind_index >= deps.inds().size()) {
      return Status::InvalidArgument(
          StrCat("step ", i, ": IND index out of range"));
    }
    const InclusionDependency& ind = deps.inds()[step.ind_index];
    const Fact& parent = certificate.FactAt(step.parent);
    if (parent.relation != ind.lhs_relation ||
        step.fact.relation != ind.rhs_relation) {
      return Status::InvalidArgument(
          StrCat("step ", i, ": relations do not match the labelled IND"));
    }
    if (step.fact.terms.size() != q.catalog().arity(ind.rhs_relation)) {
      return Status::InvalidArgument(StrCat("step ", i, ": arity mismatch"));
    }
    std::vector<bool> copied(step.fact.terms.size(), false);
    for (size_t k = 0; k < ind.width(); ++k) {
      if (step.fact.terms[ind.rhs_columns[k]] !=
          parent.terms[ind.lhs_columns[k]]) {
        return Status::InvalidArgument(
            StrCat("step ", i, ": c'[Y] != c[X] for the labelled IND"));
      }
      copied[ind.rhs_columns[k]] = true;
    }
    for (size_t col = 0; col < step.fact.terms.size(); ++col) {
      if (copied[col]) continue;
      Term t = step.fact.terms[col];
      if (!t.is_nondist_var()) {
        return Status::InvalidArgument(StrCat(
            "step ", i, ": non-copied column ", col, " is not an NDV"));
      }
      if (!seen.insert(t).second) {
        return Status::InvalidArgument(StrCat(
            "step ", i, ": NDV in column ", col, " is not globally fresh"));
      }
    }
    // Copied symbols become visible for later freshness checks too.
    for (Term t : step.fact.terms) seen.insert(t);
  }

  // 3. Check the homomorphism.
  if (q_prime.is_empty_query()) {
    return Status::InvalidArgument(
        "Q' is the empty query: containment cannot be certified by a "
        "homomorphism (it requires Q to be empty under Sigma)");
  }
  if (certificate.conjunct_images.size() != q_prime.conjuncts().size()) {
    return Status::InvalidArgument("conjunct image list has wrong length");
  }
  auto apply = [&](Term t) -> Term {
    if (t.is_constant()) return t;
    auto it = certificate.mapping.find(t);
    return it == certificate.mapping.end() ? Term::Invalid() : it->second;
  };
  for (size_t i = 0; i < q_prime.conjuncts().size(); ++i) {
    const Fact& src = q_prime.conjuncts()[i];
    const size_t image_index = certificate.conjunct_images[i];
    if (image_index >= certificate.NumFacts()) {
      return Status::InvalidArgument(
          StrCat("conjunct ", i, ": image index out of range"));
    }
    const Fact& dst = certificate.FactAt(image_index);
    if (src.relation != dst.relation ||
        src.terms.size() != dst.terms.size()) {
      return Status::InvalidArgument(
          StrCat("conjunct ", i, ": image relation/arity mismatch"));
    }
    for (size_t col = 0; col < src.terms.size(); ++col) {
      Term mapped = apply(src.terms[col]);
      if (!mapped.is_valid() || mapped != dst.terms[col]) {
        return Status::InvalidArgument(StrCat(
            "conjunct ", i, ": mapping is not a homomorphism at column ",
            col));
      }
    }
  }
  if (q_prime.summary().size() != certificate.summary.size()) {
    return Status::InvalidArgument("summary arity mismatch");
  }
  for (size_t i = 0; i < certificate.summary.size(); ++i) {
    Term mapped = apply(q_prime.summary()[i]);
    if (!mapped.is_valid() || mapped != certificate.summary[i]) {
      return Status::InvalidArgument(
          StrCat("summary position ", i, ": not preserved by the mapping"));
    }
  }
  return Status::OK();
}

}  // namespace cqchase
