#include "engine/serialize.h"

#include <utility>

#include "base/string_util.h"
#include "chase/chase.h"
#include "engine/canonical.h"
#include "engine/sigma_class.h"

namespace cqchase {

namespace wire {

bool ByteReader::ReadU8(uint8_t* v) {
  if (!ok_ || remaining() < 1) {
    ok_ = false;
    return false;
  }
  *v = static_cast<uint8_t>(bytes_[pos_++]);
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (!ok_ || remaining() < 4) {
    ok_ = false;
    return false;
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (!ok_ || remaining() < 8) {
    ok_ = false;
    return false;
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool ByteReader::ReadString(std::string* v) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  if (remaining() < len) {
    ok_ = false;
    return false;
  }
  v->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::ReadBytes(size_t n, std::string_view* v) {
  if (!ok_ || remaining() < n) {
    ok_ = false;
    return false;
  }
  *v = bytes_.substr(pos_, n);
  pos_ += n;
  return true;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void PutFramed(std::string& out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU64(out, Fnv1a64(payload));
  out.append(payload.data(), payload.size());
}

Status ReadFramed(ByteReader& reader, std::string* payload) {
  uint32_t size = 0;
  uint64_t checksum = 0;
  if (!reader.ReadU32(&size) || !reader.ReadU64(&checksum)) {
    return Status::InvalidArgument("truncated frame header");
  }
  std::string_view body;
  if (!reader.ReadBytes(size, &body)) {
    return Status::InvalidArgument("frame body shorter than its length prefix");
  }
  if (Fnv1a64(body) != checksum) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  payload->assign(body.data(), body.size());
  return Status::OK();
}

}  // namespace wire

uint64_t StoreSchemaFingerprint() {
  // The descriptor names every field of the entry encoding in order. Any
  // layout change edits it (and bumps kStoreFormatVersion); any
  // canonical-key drift changes the scheme version mixed in below. Either
  // way every existing store quarantines: old keys could collide with new
  // keys of *different* tasks, so no migration is attempted.
  static constexpr char kLayout[] =
      "v2:key:s|contained:u8|chase_outcome:u8|sigma_class:u8|strategy:u8|"
      "witness_max_level:u32|chase_levels:u32|level_bound:u64|"
      "chase_conjuncts:u64|certified:u8|certificate_depth:u32|"
      "confidence:u8|lineage_known:u8|sigma_fp:u64|used_fps:u32+u64[]";
  uint64_t h = wire::Fnv1a64(kLayout);
  h = h * 0x100000001b3ULL + kStoreFormatVersion;
  h = h * 0x100000001b3ULL + kCanonicalKeySchemeVersion;
  return h;
}

void EncodeVerdictEntry(const std::string& key, const StoredVerdict& verdict,
                        std::string& out) {
  wire::PutString(out, key);
  wire::PutU8(out, verdict.contained ? 1 : 0);
  wire::PutU8(out, verdict.chase_outcome);
  wire::PutU8(out, verdict.sigma_class);
  wire::PutU8(out, verdict.strategy);
  wire::PutU32(out, verdict.witness_max_level);
  wire::PutU32(out, verdict.chase_levels);
  wire::PutU64(out, verdict.level_bound);
  wire::PutU64(out, verdict.chase_conjuncts);
  wire::PutU8(out, verdict.certified ? 1 : 0);
  wire::PutU32(out, verdict.certificate_depth);
  wire::PutU8(out, verdict.confidence);
  wire::PutU8(out, verdict.lineage_known ? 1 : 0);
  wire::PutU64(out, verdict.sigma_fp);
  wire::PutU32(out, static_cast<uint32_t>(verdict.used_fps.size()));
  for (uint64_t fp : verdict.used_fps) wire::PutU64(out, fp);
}

Status DecodeVerdictEntry(wire::ByteReader& reader, std::string* key,
                          StoredVerdict* verdict) {
  StoredVerdict v;
  uint8_t contained = 0;
  uint8_t certified = 0;
  if (!reader.ReadString(key) || !reader.ReadU8(&contained) ||
      !reader.ReadU8(&v.chase_outcome) || !reader.ReadU8(&v.sigma_class) ||
      !reader.ReadU8(&v.strategy) || !reader.ReadU32(&v.witness_max_level) ||
      !reader.ReadU32(&v.chase_levels) || !reader.ReadU64(&v.level_bound) ||
      !reader.ReadU64(&v.chase_conjuncts) || !reader.ReadU8(&certified) ||
      !reader.ReadU32(&v.certificate_depth)) {
    return Status::InvalidArgument("truncated verdict entry");
  }
  uint8_t lineage_known = 0;
  uint32_t used_count = 0;
  if (!reader.ReadU8(&v.confidence) || !reader.ReadU8(&lineage_known) ||
      !reader.ReadU64(&v.sigma_fp) || !reader.ReadU32(&used_count)) {
    return Status::InvalidArgument("truncated verdict entry lineage");
  }
  // Count sanity before any allocation: a hostile count cannot name more
  // fingerprints than bytes remain to hold them.
  if (used_count > reader.remaining() / 8) {
    return Status::InvalidArgument(StrCat(
        "verdict entry used-set count ", used_count, " exceeds its bytes"));
  }
  v.used_fps.resize(used_count);
  for (uint32_t i = 0; i < used_count; ++i) {
    if (!reader.ReadU64(&v.used_fps[i])) {
      return Status::InvalidArgument("truncated verdict entry used set");
    }
  }
  if (v.confidence > static_cast<uint8_t>(VerdictConfidence::kMonotoneBound)) {
    return Status::InvalidArgument(
        StrCat("verdict entry has unknown confidence ", int{v.confidence}));
  }
  if (contained > 1 || certified > 1 || lineage_known > 1) {
    return Status::InvalidArgument("verdict entry has a non-boolean flag");
  }
  // Range-validate before any cast back to the enums: a byte from disk is
  // not a ChaseOutcome / SigmaClass / DecisionStrategy until proven one.
  if (v.chase_outcome > static_cast<uint8_t>(ChaseOutcome::kEmptyQuery)) {
    return Status::InvalidArgument(StrCat(
        "verdict entry has unknown chase outcome ", int{v.chase_outcome}));
  }
  if (v.sigma_class > static_cast<uint8_t>(kMaxSigmaClass)) {
    return Status::InvalidArgument(
        StrCat("verdict entry has unknown sigma class ", int{v.sigma_class}));
  }
  if (v.strategy >= static_cast<uint8_t>(kNumStrategies)) {
    return Status::InvalidArgument(
        StrCat("verdict entry has unknown strategy ", int{v.strategy}));
  }
  v.contained = contained == 1;
  v.certified = certified == 1;
  v.lineage_known = lineage_known == 1;
  *verdict = std::move(v);
  return Status::OK();
}

}  // namespace cqchase
