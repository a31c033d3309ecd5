// Wire format of the persistent verdict store: little-endian fixed-width
// primitives, length-prefixed strings, FNV-1a-checksummed framing, and the
// (canonical key → StoredVerdict) entry codec shared by the snapshot file
// and the write-behind append log.
//
// Trust model: everything read back from disk is treated as hostile input —
// every decode is bounds-checked, every frame is checksummed, and every enum
// is range-validated before it is cast. A verdict store is only a cache, so
// the correct response to any undecodable byte is "recompute", never "trust".
//
// Versioning has two layers:
//   * kStoreFormatVersion — the byte layout of the files themselves. Bump it
//     whenever the encoding below changes shape; only this version is
//     decoded, so a file of any other version is quarantined and rebuilt.
//   * StoreSchemaFingerprint() — a hash over the layout descriptor AND the
//     canonical-key scheme version (engine/canonical.h). Verdicts are keyed
//     by canonical task keys; if the canonicalizer's output format ever
//     changes, old keys could collide with new ones for *different* tasks,
//     so a fingerprint mismatch invalidates the whole store (it is
//     quarantined and rebuilt, see engine/store.h).
#ifndef CQCHASE_ENGINE_SERIALIZE_H_
#define CQCHASE_ENGINE_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace cqchase {

namespace wire {

// --- primitives (little-endian, fixed width) ---------------------------------

inline void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// u32 byte length + raw bytes.
inline void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

// Bounds-checked sequential reader over an in-memory byte buffer. Every
// Read* returns false (and leaves the output untouched) once the buffer is
// exhausted or a length prefix points past the end; `ok()` stays false from
// the first failed read on.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadString(std::string* v);
  // Raw view of the next `n` bytes, advancing past them.
  bool ReadBytes(size_t n, std::string_view* v);

  bool ok() const { return ok_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over `bytes` (64-bit offset basis / prime). Not cryptographic —
// it guards against torn writes and bit rot, not adversaries with write
// access to the store directory.
uint64_t Fnv1a64(std::string_view bytes);

// --- checksummed framing -----------------------------------------------------

// Appends one framed record: u32 payload size, u64 FNV-1a(payload), payload.
// The frame is the unit of torn-write recovery in the append log: a crash
// mid-append leaves a frame that fails its length or checksum test, and the
// reader salvages everything before it.
void PutFramed(std::string& out, std::string_view payload);

// Reads one framed record into `payload`. kInvalidArgument on a truncated
// frame or a checksum mismatch; the reader position is then unspecified and
// the caller must stop consuming.
Status ReadFramed(ByteReader& reader, std::string* payload);

}  // namespace wire

// --- verdict entries ---------------------------------------------------------

// Byte-layout version of the snapshot and log files, the only one decoded.
// History:
//   1 — key + verdict fields + certificate metadata
//   2 — Σ-lineage: confidence / lineage_known / sigma_fp / used-dependency
//       fingerprint list, appended after the v1 fields.
inline constexpr uint32_t kStoreFormatVersion = 2;

// File magics ("CQVS" / "CQVL" little-endian).
inline constexpr uint32_t kSnapshotMagic = 0x53565143u;
inline constexpr uint32_t kLogMagic = 0x4C565143u;

// Hash of the entry layout descriptor + the canonical-key scheme version;
// see the header comment for why key-scheme drift must invalidate the store.
uint64_t StoreSchemaFingerprint();

// How far a cached verdict's claim extends after schema evolution re-tagged
// it (engine/lineage.h owns the re-tagging rules).
enum class VerdictConfidence : uint8_t {
  // The verdict is exact for the Σ its key names: either it was decided
  // under that Σ, or every dependency the deciding chase used survived the
  // edit unchanged (the chase replays identically, so the verdict bit is
  // the one a fresh decision would produce).
  kExact = 0,
  // One direction is guaranteed by chase monotonicity — a contained entry
  // survived Σ additions (the chase only grew), a not-contained entry
  // survived removals (the counterexample still satisfies the subset). The
  // stored `contained` bit is correct under the *current* Σ; the metadata
  // around it (levels, bounds) describes the original decision.
  kMonotoneBound = 1,
};

// One persisted verdict: the cacheable subset of an EngineOutcome — the
// ContainmentReport minus its witness homomorphism (which references live
// chase facts and cannot survive the process), the Σ class and strategy that
// produced it, optional certificate metadata, and (v2) the Σ-lineage that
// lets the verdict survive a schema edit. The certificate metadata records
// that the producing computation also extracted a Theorem 2 certificate and
// how deep its derivation ran; the certificate itself is not persisted (a
// store hit can never serve one — certificate requests bypass caches by
// design).
struct StoredVerdict {
  bool contained = false;
  uint8_t chase_outcome = 0;  // ChaseOutcome
  uint8_t sigma_class = 0;    // SigmaClass
  uint8_t strategy = 0;       // DecisionStrategy
  uint32_t witness_max_level = 0;
  uint32_t chase_levels = 0;
  uint64_t level_bound = 0;
  uint64_t chase_conjuncts = 0;
  // Certificate metadata (telemetry, not a servable proof).
  bool certified = false;
  uint32_t certificate_depth = 0;
  // --- Σ-lineage (v2) ---
  uint8_t confidence = 0;  // VerdictConfidence
  // True when used_fps is a sound over-approximation of the dependencies the
  // deciding chase fired (engine/lineage.h). False for non-chase strategies
  // and monotone survivors of a previous delta (their used-set described
  // the pre-edit Σ) — such entries are "touched" under
  // any removal of a dependency and can only survive monotonically.
  bool lineage_known = false;
  // SigmaFingerprint (analysis/delta.h) of the Σ the entry's key names.
  uint64_t sigma_fp = 0;
  // Per-dependency fingerprints of the used dependencies, sorted ascending.
  // Fingerprints, not node indices: self-describing across processes and
  // invariant under the delta itself (re-tagging never remaps them).
  std::vector<uint64_t> used_fps;
};

// Appends the unframed (key, verdict) entry encoding to `out` (always the
// current kStoreFormatVersion layout).
void EncodeVerdictEntry(const std::string& key, const StoredVerdict& verdict,
                        std::string& out);

// Decodes one kStoreFormatVersion entry. kInvalidArgument on truncation or
// an out-of-range enum value (the persisted byte must name a ChaseOutcome /
// SigmaClass / DecisionStrategy / VerdictConfidence this build knows, or the
// entry is untrusted).
Status DecodeVerdictEntry(wire::ByteReader& reader, std::string* key,
                          StoredVerdict* verdict);

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_SERIALIZE_H_
