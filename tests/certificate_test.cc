#include "core/certificate.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "gen/generators.h"
#include "gen/scenarios.h"

namespace cqchase {
namespace {

// Builds and fully verifies a certificate, returning it for tamper tests.
ContainmentCertificate BuildVerified(const ConjunctiveQuery& q,
                                     const ConjunctiveQuery& q_prime,
                                     const DependencySet& deps,
                                     SymbolTable& symbols) {
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(q, q_prime, deps, symbols);
  EXPECT_TRUE(cert.ok()) << cert.status();
  EXPECT_TRUE(cert->has_value());
  Status verified = VerifyCertificate(**cert, q, q_prime, deps, symbols);
  EXPECT_TRUE(verified.ok()) << verified;
  return **cert;
}

TEST(CertificateTest, IntroExampleProducesVerifiableCertificate) {
  Scenario s = EmpDepScenario();
  // Q2 ⊆ Q1 needs the IND: the certificate must contain one derivation step
  // (the DEP conjunct the chase adds).
  ContainmentCertificate cert =
      BuildVerified(s.queries[1], s.queries[0], s.deps, *s.symbols);
  EXPECT_EQ(cert.roots.size(), 1u);
  EXPECT_EQ(cert.steps.size(), 1u);
  EXPECT_FALSE(cert.q_is_empty);
}

TEST(CertificateTest, NoDependencyDirectionNeedsNoSteps) {
  Scenario s = EmpDepScenario();
  DependencySet empty;
  // Q1 ⊆ Q2 holds without dependencies: certificate is pure homomorphism.
  ContainmentCertificate cert =
      BuildVerified(s.queries[0], s.queries[1], empty, *s.symbols);
  EXPECT_TRUE(cert.steps.empty());
}

TEST(CertificateTest, NonContainmentYieldsNoCertificate) {
  Scenario s = EmpDepScenario();
  DependencySet empty;
  // Q2 ⊆ Q1 fails without the IND.
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(s.queries[1], s.queries[0], empty, *s.symbols);
  ASSERT_TRUE(cert.ok());
  EXPECT_FALSE(cert->has_value());
}

TEST(CertificateTest, KeyBasedScenarioCertifies) {
  Scenario s = KeyBasedEmpDepScenario();
  ContainmentCertificate cert =
      BuildVerified(s.queries[1], s.queries[0], s.deps, *s.symbols);
  EXPECT_GE(cert.steps.size(), 1u);
}

TEST(CertificateTest, EmptyQueryCertificate) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  SymbolTable symbols;
  DependencySet fd = *ParseDependencies(catalog, "R: 1 -> 2");
  ConjunctiveQuery clash =
      *ParseQuery(catalog, symbols, "ans(x) :- R(x, '1'), R(x, '2')");
  ConjunctiveQuery other = *ParseQuery(catalog, symbols, "ans(u) :- R(u, u)");
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(clash, other, fd, symbols);
  ASSERT_TRUE(cert.ok()) << cert.status();
  ASSERT_TRUE(cert->has_value());
  EXPECT_TRUE((*cert)->q_is_empty);
  EXPECT_TRUE(VerifyCertificate(**cert, clash, other, fd, symbols).ok());
}

// The rendered certificate, for golden comparisons: any change to which
// witness is found, how its derivation is extracted, or how chase NDVs are
// minted moves these bytes.
std::string CertificateText(const ConjunctiveQuery& q,
                            const ConjunctiveQuery& q_prime,
                            const DependencySet& deps, SymbolTable& symbols,
                            const ContainmentOptions& options = {}) {
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(q, q_prime, deps, symbols, options);
  if (!cert.ok()) return cert.status().ToString();
  if (!cert->has_value()) return "not contained";
  return (*cert)->ToString(q.catalog(), symbols);
}

TEST(CertificateTest, BuiltCertificateBytesArePinned) {
  // bench_certificates' chain family: Σ = {R[2] ⊆ R[1]}, Q = R(x, y), Q' a
  // chain of `hops` R-hops off x, whose witness descends hops - 1 levels.
  const std::vector<std::pair<size_t, std::string>> chains = {
      {1,
       "roots (chase_FD(Q)):\n"
       "  [0] R(x, y)\n"
       "derivation:\n"
       "summary: (x)\n"},
      {2,
       "roots (chase_FD(Q)):\n"
       "  [0] R(x, y)\n"
       "derivation:\n"
       "  [1] R(y, n2147483648[A1,c0,i0,L1])  <- [0] via IND #0\n"
       "summary: (x)\n"},
      {4,
       "roots (chase_FD(Q)):\n"
       "  [0] R(x, y)\n"
       "derivation:\n"
       "  [1] R(y, n2147483648[A1,c0,i0,L1])  <- [0] via IND #0\n"
       "  [2] R(n2147483648[A1,c0,i0,L1], n2147483649[A1,c1,i0,L2])  <- [1] "
       "via IND #0\n"
       "  [3] R(n2147483649[A1,c1,i0,L2], n2147483650[A1,c2,i0,L3])  <- [2] "
       "via IND #0\n"
       "summary: (x)\n"},
      {8,
       "roots (chase_FD(Q)):\n"
       "  [0] R(x, y)\n"
       "derivation:\n"
       "  [1] R(y, n2147483648[A1,c0,i0,L1])  <- [0] via IND #0\n"
       "  [2] R(n2147483648[A1,c0,i0,L1], n2147483649[A1,c1,i0,L2])  <- [1] "
       "via IND #0\n"
       "  [3] R(n2147483649[A1,c1,i0,L2], n2147483650[A1,c2,i0,L3])  <- [2] "
       "via IND #0\n"
       "  [4] R(n2147483650[A1,c2,i0,L3], n2147483651[A1,c3,i0,L4])  <- [3] "
       "via IND #0\n"
       "  [5] R(n2147483651[A1,c3,i0,L4], n2147483652[A1,c4,i0,L5])  <- [4] "
       "via IND #0\n"
       "  [6] R(n2147483652[A1,c4,i0,L5], n2147483653[A1,c5,i0,L6])  <- [5] "
       "via IND #0\n"
       "  [7] R(n2147483653[A1,c5,i0,L6], n2147483654[A1,c6,i0,L7])  <- [6] "
       "via IND #0\n"
       "summary: (x)\n"},
  };
  for (const auto& [hops, expected] : chains) {
    Catalog catalog;
    ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
    SymbolTable symbols;
    DependencySet deps = *ParseDependencies(catalog, "R[2] <= R[1]");
    ConjunctiveQuery q = *ParseQuery(catalog, symbols, "ans(x) :- R(x, y)");
    std::string text = "ans(x) :- ";
    std::string prev = "x";
    for (size_t i = 1; i <= hops; ++i) {
      if (i > 1) text += ", ";
      std::string cur = "a" + std::to_string(i);
      text += "R(" + prev + ", " + cur + ")";
      prev = cur;
    }
    ConjunctiveQuery q_prime = *ParseQuery(catalog, symbols, text);
    ContainmentOptions options;
    options.limits.max_level = static_cast<uint32_t>(hops) + 2;
    EXPECT_EQ(CertificateText(q, q_prime, deps, symbols, options), expected)
        << hops << " hops";
  }

  Scenario s = EmpDepScenario();
  EXPECT_EQ(CertificateText(s.queries[1], s.queries[0], s.deps, *s.symbols),
            "roots (chase_FD(Q)):\n"
            "  [0] EMP(e, sq, d)\n"
            "derivation:\n"
            "  [1] DEP(d, n2147483648[A1,c0,i0,L1])  <- [0] via IND #0\n"
            "summary: (e)\n");

  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  SymbolTable symbols;
  DependencySet fd = *ParseDependencies(catalog, "R: 1 -> 2");
  ConjunctiveQuery clash =
      *ParseQuery(catalog, symbols, "ans(x) :- R(x, '1'), R(x, '2')");
  ConjunctiveQuery other = *ParseQuery(catalog, symbols, "ans(u) :- R(u, u)");
  EXPECT_EQ(CertificateText(clash, other, fd, symbols),
            "certificate: Q is empty under Sigma\n");
}

TEST(CertificateTest, GeneralMixedSetsAreRejected) {
  Scenario s = Section4Scenario();  // FD + IND, not key-based
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(s.queries[0], s.queries[1], s.deps, *s.symbols);
  ASSERT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), StatusCode::kUnimplemented);
}

// --- Tamper tests: the verifier must reject every corruption. --------------

class TamperTest : public ::testing::Test {
 protected:
  TamperTest() : scenario_(EmpDepScenario()) {
    cert_ = BuildVerified(scenario_.queries[1], scenario_.queries[0],
                          scenario_.deps, *scenario_.symbols);
  }

  Status Verify(const ContainmentCertificate& cert) {
    return VerifyCertificate(cert, scenario_.queries[1], scenario_.queries[0],
                             scenario_.deps, *scenario_.symbols);
  }

  Scenario scenario_;
  ContainmentCertificate cert_;
};

TEST_F(TamperTest, RejectsForgedRoot) {
  ContainmentCertificate bad = cert_;
  // Claim an extra root the FD chase never produced.
  bad.roots.push_back(bad.roots[0]);
  bad.roots.back().terms[0] = bad.roots[0].terms[1];
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsWrongIndLabel) {
  ASSERT_FALSE(cert_.steps.empty());
  ContainmentCertificate bad = cert_;
  bad.steps[0].ind_index = 999;
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsBrokenCopyColumns) {
  ASSERT_FALSE(cert_.steps.empty());
  ContainmentCertificate bad = cert_;
  // DEP(dept, loc): column 0 is copied from EMP's dept; corrupt it.
  bad.steps[0].fact.terms[0] = bad.steps[0].fact.terms[1];
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsStaleNdv) {
  ASSERT_FALSE(cert_.steps.empty());
  ContainmentCertificate bad = cert_;
  // Replace the fresh NDV by a symbol that already occurs in the roots.
  bad.steps[0].fact.terms[1] = bad.roots[0].terms[0];
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsBrokenHomomorphism) {
  ContainmentCertificate bad = cert_;
  for (auto& [from, to] : bad.mapping) {
    to = bad.roots[0].terms[1];  // send everything to one symbol
  }
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsOutOfRangeImage) {
  ContainmentCertificate bad = cert_;
  ASSERT_FALSE(bad.conjunct_images.empty());
  bad.conjunct_images[0] = 12345;
  EXPECT_FALSE(Verify(bad).ok());
}

TEST_F(TamperTest, RejectsParentCycle) {
  ASSERT_FALSE(cert_.steps.empty());
  ContainmentCertificate bad = cert_;
  bad.steps[0].parent = bad.roots.size();  // step claims itself as parent
  EXPECT_FALSE(Verify(bad).ok());
}

// --- Randomized round-trips -------------------------------------------------

class CertificateProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CertificateProperty, PlantedContainmentsRoundTrip) {
  Scenario s = Fig1Scenario();
  Rng rng(GetParam());
  Result<ConjunctiveQuery> q_prime =
      PlantedSuperQuery(rng, s.queries[0], s.deps, *s.symbols,
                        /*extra_conjuncts=*/2, /*chase_depth=*/3);
  ASSERT_TRUE(q_prime.ok()) << q_prime.status();
  Result<std::optional<ContainmentCertificate>> cert =
      BuildCertificate(s.queries[0], *q_prime, s.deps, *s.symbols);
  ASSERT_TRUE(cert.ok()) << cert.status();
  ASSERT_TRUE(cert->has_value());
  Status verified =
      VerifyCertificate(**cert, s.queries[0], *q_prime, s.deps, *s.symbols);
  EXPECT_TRUE(verified.ok()) << verified;
  // Theorem 2's point: the certificate is small — polynomial in the input.
  EXPECT_LE((*cert)->SizeInSymbols(),
            1000 * (s.queries[0].size() + q_prime->size() + s.deps.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateProperty,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace cqchase
