// The verdict store's wire format: primitive round-trips, bounds-checked
// reads on truncated input, checksummed framing, and the verdict-entry
// codec's refusal to cast unvalidated bytes into enums. Everything here is
// the "hostile input" half of the store's trust model — a byte that cannot
// be verified must fail decode, never become a verdict — plus the pinned
// schema fingerprint every store header and remote hello carries.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "engine/canonical.h"
#include "engine/serialize.h"
#include "engine/sigma_class.h"

namespace cqchase {
namespace {

StoredVerdict SampleVerdict() {
  StoredVerdict v;
  v.contained = true;
  v.chase_outcome = 1;  // kTruncated
  v.sigma_class = 3;    // kIndOnly
  v.strategy = 3;       // kIterativeDeepening
  v.witness_max_level = 7;
  v.chase_levels = 9;
  v.level_bound = 123456789ULL;
  v.chase_conjuncts = 424242ULL;
  v.certified = true;
  v.certificate_depth = 5;
  return v;
}

void ExpectEqualVerdicts(const StoredVerdict& a, const StoredVerdict& b) {
  EXPECT_EQ(a.contained, b.contained);
  EXPECT_EQ(a.chase_outcome, b.chase_outcome);
  EXPECT_EQ(a.sigma_class, b.sigma_class);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.witness_max_level, b.witness_max_level);
  EXPECT_EQ(a.chase_levels, b.chase_levels);
  EXPECT_EQ(a.level_bound, b.level_bound);
  EXPECT_EQ(a.chase_conjuncts, b.chase_conjuncts);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.certificate_depth, b.certificate_depth);
}

// --- primitives --------------------------------------------------------------

TEST(WireTest, PrimitiveRoundTrip) {
  std::string buf;
  wire::PutU8(buf, 0xAB);
  wire::PutU32(buf, 0xDEADBEEFu);
  wire::PutU64(buf, std::numeric_limits<uint64_t>::max() - 1);
  wire::PutString(buf, "canonical|key|bytes");
  wire::PutString(buf, "");  // empty strings are legal

  wire::ByteReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s, empty;
  ASSERT_TRUE(r.ReadU8(&u8));
  ASSERT_TRUE(r.ReadU32(&u32));
  ASSERT_TRUE(r.ReadU64(&u64));
  ASSERT_TRUE(r.ReadString(&s));
  ASSERT_TRUE(r.ReadString(&empty));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max() - 1);
  EXPECT_EQ(s, "canonical|key|bytes");
  EXPECT_EQ(empty, "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, TruncatedReadsFailAndStick) {
  std::string buf;
  wire::PutU32(buf, 42);
  buf.pop_back();  // 3 of 4 bytes

  wire::ByteReader r(buf);
  uint32_t v = 7;
  EXPECT_FALSE(r.ReadU32(&v));
  EXPECT_FALSE(r.ok());
  // Once bad, always bad: no read after a failure may "succeed".
  uint8_t b = 0;
  EXPECT_FALSE(r.ReadU8(&b));
}

TEST(WireTest, StringLengthPrefixBeyondBufferFails) {
  std::string buf;
  wire::PutU32(buf, 1000);  // claims 1000 bytes follow
  buf += "short";
  wire::ByteReader r(buf);
  std::string s;
  EXPECT_FALSE(r.ReadString(&s));
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, Fnv1a64MatchesKnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(wire::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(wire::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(wire::Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

// --- framing -----------------------------------------------------------------

TEST(WireTest, FramedRoundTrip) {
  std::string buf;
  wire::PutFramed(buf, "payload one");
  wire::PutFramed(buf, "");
  wire::PutFramed(buf, std::string(1000, 'x'));

  wire::ByteReader r(buf);
  std::string p;
  ASSERT_TRUE(wire::ReadFramed(r, &p).ok());
  EXPECT_EQ(p, "payload one");
  ASSERT_TRUE(wire::ReadFramed(r, &p).ok());
  EXPECT_EQ(p, "");
  ASSERT_TRUE(wire::ReadFramed(r, &p).ok());
  EXPECT_EQ(p, std::string(1000, 'x'));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, FrameChecksumMismatchDetected) {
  std::string buf;
  wire::PutFramed(buf, "some payload bytes");
  buf.back() ^= 0x01;  // flip one payload bit

  wire::ByteReader r(buf);
  std::string p;
  Status s = wire::ReadFramed(r, &p);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, TruncatedFrameDetected) {
  std::string buf;
  wire::PutFramed(buf, "some payload bytes");
  buf.resize(buf.size() - 5);  // torn mid-payload

  wire::ByteReader r(buf);
  std::string p;
  EXPECT_FALSE(wire::ReadFramed(r, &p).ok());
}

// --- verdict entries ---------------------------------------------------------

TEST(VerdictEntryTest, RoundTripAllFields) {
  const std::string key = "V1|sigma-key|task-key";
  std::string buf;
  EncodeVerdictEntry(key, SampleVerdict(), buf);

  wire::ByteReader r(buf);
  std::string decoded_key;
  StoredVerdict decoded;
  ASSERT_TRUE(DecodeVerdictEntry(r, &decoded_key, &decoded).ok());
  EXPECT_EQ(decoded_key, key);
  ExpectEqualVerdicts(decoded, SampleVerdict());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(VerdictEntryTest, TruncatedEntryRejected) {
  std::string buf;
  EncodeVerdictEntry("key", SampleVerdict(), buf);
  for (size_t cut = 1; cut < buf.size(); cut += 7) {
    wire::ByteReader r(std::string_view(buf.data(), buf.size() - cut));
    std::string key;
    StoredVerdict v;
    EXPECT_FALSE(DecodeVerdictEntry(r, &key, &v).ok())
        << "cut " << cut << " bytes";
  }
}

TEST(VerdictEntryTest, OutOfRangeEnumsRejected) {
  auto encode_with = [](uint8_t outcome, uint8_t sigma, uint8_t strategy) {
    StoredVerdict v = SampleVerdict();
    v.chase_outcome = outcome;
    v.sigma_class = sigma;
    v.strategy = strategy;
    std::string buf;
    EncodeVerdictEntry("k", v, buf);
    return buf;
  };
  auto decodes = [](const std::string& buf) {
    wire::ByteReader r(buf);
    std::string key;
    StoredVerdict v;
    return DecodeVerdictEntry(r, &key, &v).ok();
  };
  // The SigmaClass boundary tracks the kMaxSigmaClass sentinel: adding an
  // enumerator moves both sides of this check automatically instead of
  // silently widening (or failing to widen) what the decoder accepts.
  const uint8_t max_sigma = static_cast<uint8_t>(kMaxSigmaClass);
  EXPECT_TRUE(decodes(encode_with(2, max_sigma, 4)));  // maxima of each enum
  EXPECT_FALSE(decodes(encode_with(3, 0, 0)));  // ChaseOutcome past end
  EXPECT_FALSE(decodes(encode_with(0, max_sigma + 1, 0)));  // SigmaClass past
  EXPECT_FALSE(decodes(encode_with(0, 0, 5)));  // DecisionStrategy past end
  EXPECT_FALSE(decodes(encode_with(255, 255, 255)));
}

TEST(VerdictEntryTest, NonBooleanFlagRejected) {
  std::string buf;
  EncodeVerdictEntry("k", SampleVerdict(), buf);
  // The `contained` flag is the byte right after the 4-byte key length and
  // 1-byte key "k".
  ASSERT_GT(buf.size(), 5u);
  buf[5] = 2;
  wire::ByteReader r(buf);
  std::string key;
  StoredVerdict v;
  EXPECT_FALSE(DecodeVerdictEntry(r, &key, &v).ok());
}

TEST(SchemaTest, FingerprintIsPinned) {
  // Every store file header and every remote hello carries this value: a
  // silent change quarantines every existing store and refuses every peer.
  // Re-capture it only together with a kStoreFormatVersion or
  // kCanonicalKeySchemeVersion bump, never as a side effect of a refactor.
  EXPECT_EQ(kStoreFormatVersion, 2u);
  EXPECT_EQ(kCanonicalKeySchemeVersion, 2u);
  EXPECT_EQ(StoreSchemaFingerprint(), 0x8a6dbea025939a82ULL);
}

}  // namespace
}  // namespace cqchase
