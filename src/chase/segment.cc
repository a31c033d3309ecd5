#include "chase/segment.h"

#include <cassert>

namespace cqchase {

Fact ColumnSegment::RowFact(size_t r) const {
  Fact f;
  f.relation = relation;
  f.terms.reserve(arity);
  for (uint32_t c = 0; c < arity; ++c) f.terms.push_back(terms[c * rows() + r]);
  return f;
}

void SegmentBuilder::Reset(uint32_t level_in, uint32_t ind_index_in,
                           RelationId relation_in, uint32_t arity_in) {
  level = level_in;
  ind_index = ind_index_in;
  relation = relation_in;
  arity = arity_in;
  terms.clear();
  minted_ids.clear();
  source_ids.clear();
}

void SegmentBuilder::AppendRow(const Fact& fact, uint64_t minted_id,
                               uint64_t source_id) {
  assert(fact.relation == relation && fact.terms.size() == arity);
  terms.insert(terms.end(), fact.terms.begin(), fact.terms.end());
  minted_ids.push_back(minted_id);
  source_ids.push_back(source_id);
}

std::vector<ColumnSegment> SegmentStore::segments() const {
  std::vector<ColumnSegment> out;
  out.reserve(records_.size());
  for (const Record& r : records_) {
    ColumnSegment seg;
    seg.level = r.level;
    seg.ind_index = r.ind_index;
    seg.relation = r.relation;
    seg.arity = r.arity;
    seg.num_rows = r.rows;
    seg.terms = terms_.data() + r.first_term;
    seg.minted_ids = minted_ids_.data() + r.first_row;
    seg.source_ids = source_ids_.data() + r.first_row;
    out.push_back(seg);
  }
  return out;
}

std::optional<SegmentEdge> SegmentStore::EdgeOf(uint64_t id) const {
  if (id >= edge_of_id_.size() || edge_of_id_[id] == kNoEdge) {
    return std::nullopt;
  }
  const uint64_t packed = edge_of_id_[id];
  SegmentEdge edge;
  edge.segment = static_cast<uint32_t>(packed >> 32);
  edge.row = static_cast<uint32_t>(packed & 0xffffffffu);
  const Record& record = records_[edge.segment];
  edge.source_id = source_ids_[record.first_row + edge.row];
  edge.ind_index = record.ind_index;
  return edge;
}

void SegmentStore::Add(const SegmentBuilder& segment) {
  const size_t rows = segment.rows();
  if (rows == 0) return;
  const uint32_t seg_index = static_cast<uint32_t>(records_.size());
  records_.push_back(Record{segment.level, segment.ind_index,
                            segment.relation, segment.arity,
                            minted_ids_.size(), rows, terms_.size()});
  for (uint32_t c = 0; c < segment.arity; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      terms_.push_back(segment.terms[r * segment.arity + c]);
    }
  }
  for (uint32_t r = 0; r < rows; ++r) {
    const uint64_t id = segment.minted_ids[r];
    if (id >= edge_of_id_.size()) edge_of_id_.resize(id + 1, kNoEdge);
    edge_of_id_[id] = (uint64_t{seg_index} << 32) | r;
  }
  minted_ids_.insert(minted_ids_.end(), segment.minted_ids.begin(),
                     segment.minted_ids.end());
  source_ids_.insert(source_ids_.end(), segment.source_ids.begin(),
                     segment.source_ids.end());
}

void ConsideredSet::Reset(size_t num_inds) {
  words_ = (num_inds + 63) / 64;
  bits_.clear();
}

bool ConsideredSet::Test(uint32_t ind, uint64_t id) const {
  const size_t word = id * words_ + ind / 64;
  if (word >= bits_.size()) return false;
  return (bits_[word] >> (ind % 64)) & 1;
}

void ConsideredSet::EnsureRow(uint64_t id) {
  const size_t need = (id + 1) * words_;
  if (bits_.size() < need) bits_.resize(need, 0);
}

void ConsideredSet::Set(uint32_t ind, uint64_t id) {
  EnsureRow(id);
  bits_[id * words_ + ind / 64] |= uint64_t{1} << (ind % 64);
}

void ConsideredSet::Inherit(uint64_t from, uint64_t to) {
  if ((from + 1) * words_ > bits_.size()) return;  // `from` row is all-zero
  EnsureRow(to);
  for (size_t w = 0; w < words_; ++w) {
    bits_[to * words_ + w] |= bits_[from * words_ + w];
  }
}

const uint64_t* ConsideredSet::Row(uint64_t id) const {
  if (words_ == 0 || (id + 1) * words_ > bits_.size()) return nullptr;
  return &bits_[id * words_];
}

}  // namespace cqchase
