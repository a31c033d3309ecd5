// Columnar level segments and chase-side bookkeeping shared by the scalar
// and bulk chase cores.
//
// A *segment* holds every conjunct minted by applying one IND across the
// level-L frontier of a chase — the set-at-a-time analogue of the paper's
// one-conjunct-at-a-time IND chase rule (the shape VLog's TGChase gives each
// rule-application node). Segments are column-major: column c of all rows
// minted by that (level, IND) application lives in one contiguous Term
// vector, and every row carries provenance (minted conjunct id + source
// conjunct id). The SegmentStore indexes minted ids so certificate
// extraction can resolve "which dependency created conjunct #n" in O(1)
// instead of scanning the arc list.
//
// Provenance caveat: segment rows record the *mint-time* source id. When a
// later FD merge dedupes conjuncts, Chase redirects ChaseConjunct::parent
// (and the arcs) to the surviving id, but segments are immutable history —
// consumers that need the live ancestor must follow ChaseConjunct::parent
// and use the segment edge only for the dependency label.
#ifndef CQCHASE_CHASE_SEGMENT_H_
#define CQCHASE_CHASE_SEGMENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cq/fact.h"
#include "schema/catalog.h"
#include "symbols/term.h"

namespace cqchase {

// Monotone counters and phase timers for one chase. Both cores fill the
// shared counters (steps, fd_merges, index_rebuilds); the segment/bulk
// fields stay zero under the scalar core. Timers are accumulated at batch
// granularity only — never one clock read per row.
struct ChaseStats {
  uint64_t steps = 0;            // FD + IND chase-rule applications
  uint64_t fd_merges = 0;        // FD rule firings (term identifications)
  uint64_t index_rebuilds = 0;   // witness/pending (scalar) or witness-group
                                 // (bulk) rebuilds from scratch
  uint64_t segments_built = 0;   // non-empty (level, IND) segments finalized
  uint64_t bulk_batches = 0;     // level-frontier sweeps started
  uint64_t bulk_ind_applications = 0;  // (conjunct, IND) pairs processed
                                       // inside sweeps
  uint64_t max_batch_rows = 0;   // widest frontier swept in one batch
  uint64_t inds_pruned = 0;      // bulk: INDs statically unreachable from the
                                 // initial relations (reliance analysis) —
                                 // no mask bit, no witness group, no work
  uint64_t witness_groups_pruned = 0;  // bulk: distinct rhs projections whose
                                       // witness index was never built because
                                       // every IND sharing it was pruned
  double prepare_ms = 0.0;  // bulk: instantiating the chase's reachable
                            // slice of its ChasePlan (PrepareBulk)
  double join_ms = 0.0;    // bulk: witness probes + NDV minting sweeps
  double retain_ms = 0.0;  // bulk: frontier collection/sort + witness-group
                           // (re)builds
  double fd_ms = 0.0;      // full FD saturation phases (both cores)
};

// All conjuncts minted by one (level, IND) application, as a SegmentStore
// holds them: a view into the store's pooled arrays, valid until the store
// next grows. Column c of minted row r is terms[c * rows() + r];
// minted_ids/source_ids are row-aligned.
struct ColumnSegment {
  uint32_t level = 0;      // level of the minted conjuncts (source + 1)
  uint32_t ind_index = 0;  // index into DependencySet::inds()
  RelationId relation = 0;  // rhs relation of the IND
  uint32_t arity = 0;
  size_t num_rows = 0;
  const Term* terms = nullptr;
  const uint64_t* minted_ids = nullptr;
  const uint64_t* source_ids = nullptr;  // mint-time sources (caveat above)

  size_t rows() const { return num_rows; }

  // Reassembles row r as a Fact (tests / debugging; the chase itself keeps
  // the authoritative row in conjuncts_).
  Fact RowFact(size_t r) const;
};

// A segment still being minted: the rows one IND has minted so far in an
// open bulk sweep, row-major. Sweep scratch: Reset reuses the storage, so a
// warm builder allocates nothing per row.
struct SegmentBuilder {
  uint32_t level = 0;
  uint32_t ind_index = 0;
  RelationId relation = 0;
  uint32_t arity = 0;
  std::vector<Term> terms;  // row r's column c at terms[r * arity + c]
  std::vector<uint64_t> minted_ids;
  std::vector<uint64_t> source_ids;

  size_t rows() const { return minted_ids.size(); }
  void Reset(uint32_t level, uint32_t ind_index, RelationId relation,
             uint32_t arity);
  // Appends the fact's terms plus the provenance row.
  void AppendRow(const Fact& fact, uint64_t minted_id, uint64_t source_id);
};

// Provenance edge for one minted conjunct: which segment row created it.
struct SegmentEdge {
  uint32_t segment = 0;  // index into SegmentStore::segments()
  uint32_t row = 0;
  uint64_t source_id = 0;
  uint32_t ind_index = 0;
};

// Every segment of one chase, pooled: one term array (each segment's
// columns in turn), one minted-id and one source-id array (each segment's
// rows in turn), and a small record per segment. Adding a segment appends
// to the pools, so the store allocates only as the pools double, not per
// segment.
class SegmentStore {
 public:
  // Views of the stored segments, oldest first.
  std::vector<ColumnSegment> segments() const;

  // O(1): the segment row that minted conjunct `id`, or nullopt for level-0
  // roots and scalar-minted conjuncts.
  std::optional<SegmentEdge> EdgeOf(uint64_t id) const;

  // Stores the builder's rows as the next segment (column-major). An empty
  // builder adds nothing.
  void Add(const SegmentBuilder& segment);

  size_t TotalRows() const { return minted_ids_.size(); }
  bool empty() const { return records_.empty(); }

 private:
  static constexpr uint64_t kNoEdge = ~uint64_t{0};

  struct Record {
    uint32_t level;
    uint32_t ind_index;
    RelationId relation;
    uint32_t arity;
    size_t first_row;   // into minted_ids_ / source_ids_
    size_t rows;
    size_t first_term;  // into terms_
  };

  std::vector<Record> records_;
  std::vector<Term> terms_;
  std::vector<uint64_t> minted_ids_;
  std::vector<uint64_t> source_ids_;
  // minted id -> packed (segment << 32 | row); kNoEdge when absent.
  std::vector<uint64_t> edge_of_id_;
};

// Dense (IND × conjunct-id) bitmap: which INDs the discipline has already
// considered for which conjunct. Replaces a std::set<pair<ind, id>> — the
// old representation made merge-time inheritance a full-set scan and the
// per-conjunct pending check a log-time probe per IND; here both are a few
// word ops, and the bulk core reads whole rows as masks.
class ConsideredSet {
 public:
  // Must be called before use; wipes all bits.
  void Reset(size_t num_inds);

  size_t words_per_row() const { return words_; }

  bool Test(uint32_t ind, uint64_t id) const;
  void Set(uint32_t ind, uint64_t id);

  // OR `from`'s row into `to`'s: an IND applied to either copy of a merged
  // conjunct has been applied to the survivor.
  void Inherit(uint64_t from, uint64_t to);

  // Raw row for conjunct `id`, or nullptr if no bit of the row was ever set
  // (treat as all-zero). Valid until the next Set/Inherit.
  const uint64_t* Row(uint64_t id) const;

 private:
  void EnsureRow(uint64_t id);

  size_t words_ = 0;
  std::vector<uint64_t> bits_;  // rows_ * words_, row-major by conjunct id
};

}  // namespace cqchase

#endif  // CQCHASE_CHASE_SEGMENT_H_
