#include "engine/canonical.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <deque>
#include <numeric>
#include <string_view>
#include <vector>

#include "base/string_util.h"

namespace cqchase {

namespace {

// Search-tree nodes one query's tie search may refine past its first leaf.
// Twin pruning settles stars and copies of one conjunct in a single path,
// and automorphism pruning other repeated components in O(|Q|^2) nodes, so
// only queries of dozens of interchangeable components reach the budget;
// they render their first leaf instead.
constexpr size_t kTieSearchBudget = 256;

// Canonical labelling of one query's incidence structure.
//
// Nodes are the conjuncts and the distinct variables; an edge joins a
// conjunct to the variable at each of its argument positions, labelled by
// the position, and the summary row is one more pseudo-conjunct whose
// positions are the summary's. Colours start from relation ids (conjuncts)
// and variable kinds; constants are fixed colours ranked by name. Colour
// refinement splits cells until the partition is stable, a conjunct cell
// still tied afterwards is split by individualizing each member in turn
// (McKay & Piperno, "Practical graph isomorphism, II", 2014), and the
// winner is the least leaf by its rendering as an integer sequence. Every
// colour is a rank of values built from relation ids, kinds, positions and
// constant names, so the key never depends on interned term ids: stores
// and peers in other processes agree on it.
//
// One Labeller lives per thread and keeps its buffers between queries, so a
// key build allocates only for a query larger than any before it.
class Labeller {
 public:
  // Appends the canonical form of `q` to `*out`. Returns false when the tie
  // search ran out of budget and rendered its first leaf instead of the
  // least: still an isomorphic copy of `q`, so the key stays sound.
  bool Append(std::string* out, const ConjunctiveQuery& q) {
    Load(q);
    bool complete = true;
    const uint32_t* order = nullptr;
    if (!q.is_empty_query()) {
      if (levels_.empty()) levels_.emplace_back();
      Level& root = levels_[0];
      root.ccol.resize(n_);
      root.vcol.resize(m_);
      for (size_t i = 0; i < n_; ++i) root.ccol[i] = q.conjuncts()[i].relation;
      for (size_t v = 0; v < m_; ++v) root.vcol[v] = vars_[v].is_dist_var();
      root.nc = root.nv = 0;
      Refine(root);
      Grow(order_, n_);
      if (root.nc == n_) {
        // Refinement alone ordered every conjunct: the only leaf.
        for (uint32_t i = 0; i < n_; ++i) order_[root.ccol[i]] = i;
        order = order_.data();
      } else {
        have_first_ = exhausted_ = false;
        nodes_ = 0;
        unwind_to_ = kNone;
        Grow(path_, n_);
        Visit(0, /*on_first_path=*/true);
        complete = !exhausted_;
        order = complete ? best_order_.data() : first_order_.data();
      }
    }
    Render(out, q, order);
    return complete;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // One search-tree node's partition: dense colour ranks of the conjuncts
  // and variables, and how many classes each has.
  struct Level {
    std::vector<uint32_t> ccol;
    std::vector<uint32_t> vcol;
    uint32_t nc = 0;
    uint32_t nv = 0;
  };

  // Indexes the query: distinct variables and constants, one code per term
  // occurrence (a constant's rank below k_, k_ + variable index above), and
  // each variable's incidences.
  void Load(const ConjunctiveQuery& q) {
    q_ = &q;
    const std::vector<Fact>& conjuncts = q.conjuncts();
    n_ = conjuncts.size();

    // Number the distinct terms through an open-addressing table; a
    // constant's number is tagged until the names have ranked it.
    constexpr uint32_t kConstTag = 1u << 31;
    size_t occurrences = q.summary().size();
    for (const Fact& f : conjuncts) occurrences += f.terms.size();
    size_t slots = 16;
    while (slots < 2 * occurrences) slots *= 2;
    Grow(slot_key_, slots);
    Grow(slot_code_, slots);
    std::fill(slot_key_.begin(), slot_key_.begin() + slots, 0);
    vars_.clear();
    consts_.clear();
    const auto number = [&](Term t) -> uint32_t {
      const uint64_t key =
          (uint64_t{static_cast<uint8_t>(t.kind())} << 32 | t.id()) + 1;
      for (size_t i = Mix(key) & (slots - 1);; i = (i + 1) & (slots - 1)) {
        if (slot_key_[i] == key) return slot_code_[i];
        if (slot_key_[i] != 0) continue;
        slot_key_[i] = key;
        std::vector<Term>& terms = t.is_constant() ? consts_ : vars_;
        slot_code_[i] = static_cast<uint32_t>(terms.size()) |
                        (t.is_constant() ? kConstTag : 0);
        terms.push_back(t);
        return slot_code_[i];
      }
    };
    summary_codes_.clear();
    for (Term t : q.summary()) summary_codes_.push_back(number(t));
    Grow(fact_begin_, n_ + 1);
    codes_.clear();
    for (size_t i = 0; i < n_; ++i) {
      fact_begin_[i] = static_cast<uint32_t>(codes_.size());
      for (Term t : conjuncts[i].terms) codes_.push_back(number(t));
    }
    fact_begin_[n_] = static_cast<uint32_t>(codes_.size());
    m_ = vars_.size();
    k_ = static_cast<uint32_t>(consts_.size());

    // One Name() per distinct constant; ranks follow the names alone.
    Grow(names_, k_);
    for (size_t i = 0; i < k_; ++i) names_[i] = q.symbols().Name(consts_[i]);
    Grow(by_rank_, k_);
    std::iota(by_rank_.begin(), by_rank_.begin() + k_, 0u);
    std::sort(by_rank_.begin(), by_rank_.begin() + k_,
              [this](uint32_t a, uint32_t b) { return names_[a] < names_[b]; });
    Grow(rank_, k_);
    for (uint32_t r = 0; r < k_; ++r) rank_[by_rank_[r]] = r;
    const auto recode = [&](uint32_t& c) {
      c = (c & kConstTag) != 0 ? rank_[c & ~kConstTag] : k_ + c;
    };
    for (uint32_t& c : summary_codes_) recode(c);
    for (uint32_t& c : codes_) recode(c);

    // Per position, the first position of its conjunct holding the same
    // term: the conjunct's equality pattern.
    Grow(first_at_, codes_.size());
    for (size_t i = 0; i < n_; ++i) {
      const uint32_t begin = fact_begin_[i];
      for (uint32_t j = begin; j < fact_begin_[i + 1]; ++j) {
        uint32_t first = begin;
        while (codes_[first] != codes_[j]) ++first;
        first_at_[j] = first - begin;
      }
    }

    // Incidences per variable (CSR), the summary as pseudo-conjunct n_.
    inc_begin_.assign(m_ + 1, 0);
    const auto count = [this](uint32_t c) {
      if (c >= k_) ++inc_begin_[c - k_ + 1];
    };
    for (uint32_t c : summary_codes_) count(c);
    for (uint32_t c : codes_) count(c);
    for (size_t v = 0; v < m_; ++v) inc_begin_[v + 1] += inc_begin_[v];
    const size_t incidences = inc_begin_[m_];
    Grow(inc_node_, incidences);
    Grow(inc_pos_, incidences);
    cursor_.assign(inc_begin_.begin(), inc_begin_.end() - 1);
    const auto place = [this](uint32_t c, uint32_t node, uint32_t pos) {
      if (c < k_) return;
      const uint32_t at = cursor_[c - k_]++;
      inc_node_[at] = node;
      inc_pos_[at] = pos;
    };
    for (uint32_t p = 0; p < summary_codes_.size(); ++p) {
      place(summary_codes_[p], static_cast<uint32_t>(n_), p);
    }
    for (uint32_t i = 0; i < n_; ++i) {
      for (uint32_t j = fact_begin_[i]; j < fact_begin_[i + 1]; ++j) {
        place(codes_[j], i, j - fact_begin_[i]);
      }
    }
    // A variable's owner: the one conjunct holding all its occurrences,
    // when it is not in the summary either.
    Grow(owner_, m_);
    for (size_t v = 0; v < m_; ++v) {
      uint32_t owner = inc_node_[inc_begin_[v]];
      for (uint32_t j = inc_begin_[v] + 1; j < inc_begin_[v + 1]; ++j) {
        if (inc_node_[j] != owner) owner = kNone;
      }
      owner_[v] = owner == n_ ? kNone : owner;
    }
    Grow(ids_, std::max(n_, m_));
    Grow(ranks_, std::max(n_, m_));
    Grow(hashes_, std::max(n_, m_));
    Grow(names_of_vars_, m_);
  }

  // 64-bit finalizer (MurmurHash3's fmix64) of `x` offset by a constant,
  // since fmix64(0) = 0 would let a multiset sum of zeros collide with its
  // neighbours: a fixed function, so colours agree across processes and
  // builds.
  static uint64_t Mix(uint64_t x) {
    x ^= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  // Scratch arrays only grow, so a key build after a larger one allocates
  // nothing; every reader bounds its loop by the current query's sizes.
  template <typename T>
  static void Grow(std::vector<T>& v, size_t size) {
    if (v.size() < size) v.resize(size);
  }

  // Re-colours col[0, size) by the dense rank of (col[id], hashes_[id]),
  // and returns the number of classes. Ranking by the old colour first
  // keeps every cell where it was and only splits it.
  uint32_t Rank(size_t size, uint32_t* col) {
    std::iota(ids_.begin(), ids_.begin() + size, 0u);
    const auto less = [&](uint32_t a, uint32_t b) {
      if (col[a] != col[b]) return col[a] < col[b];
      return hashes_[a] < hashes_[b];
    };
    std::sort(ids_.begin(), ids_.begin() + size, less);
    uint32_t rank = 0;
    for (size_t i = 0; i < size; ++i) {
      if (i != 0 && less(ids_[i - 1], ids_[i])) ++rank;
      ranks_[ids_[i]] = rank;
    }
    std::copy(ranks_.begin(), ranks_.begin() + size, col);
    return size == 0 ? 0 : rank + 1;
  }

  // Refines `level` until neither side's partition splits further. Each
  // signature tuple is folded into a 64-bit hash before ranking: a
  // collision can only leave a cell coarser, which costs search but never
  // the key, because leaves are compared exactly.
  void Refine(Level& level) {
    uint32_t* ccol = level.ccol.data();
    uint32_t* vcol = level.vcol.data();
    for (;;) {
      // A conjunct's signature: per position, the colour of its term and
      // the conjunct's equality pattern there (equal colours imply one
      // relation, hence one arity).
      for (size_t i = 0; i < n_; ++i) {
        uint64_t h = 0;
        for (uint32_t j = fact_begin_[i]; j < fact_begin_[i + 1]; ++j) {
          const uint32_t c = codes_[j];
          const uint64_t colour = c < k_ ? c : k_ + vcol[c - k_];
          h = Mix(h ^ (colour << 32 | first_at_[j]));
        }
        hashes_[i] = h;
      }
      const uint32_t nc = Rank(n_, ccol);
      // Discrete conjuncts fix the leaf; the variables' colours are not
      // read again.
      if (nc == n_) {
        level.nc = nc;
        return;
      }
      // A variable's signature: the multiset of (conjunct colour, position)
      // over its incidences, the summary's conjunct colour above all others.
      for (size_t v = 0; v < m_; ++v) {
        uint64_t h = 0;
        for (uint32_t j = inc_begin_[v]; j < inc_begin_[v + 1]; ++j) {
          const uint64_t node = inc_node_[j] == n_ ? kNone : ccol[inc_node_[j]];
          h += Mix(node << 32 | inc_pos_[j]);
        }
        hashes_[v] = Mix(h);
      }
      const uint32_t nv = Rank(m_, vcol);
      if (nc == level.nc && nv == level.nv) return;
      level.nc = nc;
      level.nv = nv;
    }
  }

  // Depth-first individualization-refinement below the node at `depth`.
  // Two prunings keep the least leaf: a node whose leading conjuncts
  // already render worse than the best leaf's is dropped, and a node on the
  // first path skips children in the orbit of an explored sibling under
  // the automorphisms found so far that fix its prefix.
  void Visit(size_t depth, bool on_first_path) {
    const std::vector<uint32_t>& ccol = levels_[depth].ccol;
    if (levels_[depth].nc == n_) {
      Leaf(depth);
      return;
    }
    std::fill(ranks_.begin(), ranks_.begin() + levels_[depth].nc, 0u);
    for (uint32_t c : ccol) ++ranks_[c];
    if (have_first_) {
      // Refinement only splits cells in place, so the leading singleton
      // cells are the first conjuncts of every leaf below.
      uint32_t fixed = 0;
      while (ranks_[fixed] == 1) ++fixed;
      for (uint32_t i = 0; i < n_; ++i) {
        if (ccol[i] < fixed) order_[ccol[i]] = i;
      }
      BuildCert(fixed);
      if (std::lexicographical_compare(best_cert_.begin(),
                                       best_cert_.begin() + cert_.size(),
                                       cert_.begin(), cert_.end())) {
        return;
      }
    }
    // Target cell: the first conjunct colour held by two or more.
    uint32_t target = 0;
    while (ranks_[target] < 2) ++target;
    const uint32_t size = ranks_[target];
    uint32_t lead = 0;
    while (ccol[lead] != target) ++lead;
    // When every member is a twin of the first, each order of the cell is
    // an automorphic image of the others: one child individualizes them all,
    // in index order.
    bool twins = true;
    for (uint32_t c = lead + 1; twins && c < n_; ++c) {
      twins = ccol[c] != target || Twins(lead, c);
    }

    if (levels_.size() <= depth + 1) levels_.emplace_back();
    for (uint32_t c = lead; c < n_ && !(twins && c > lead); ++c) {
      const Level& node = levels_[depth];
      if (ccol[c] != target) continue;
      if (on_first_path && have_first_ && Find(orbits_[depth], c) != c) {
        continue;
      }
      if (have_first_ && ++nodes_ > kTieSearchBudget) {
        exhausted_ = true;
        return;
      }
      Level& child = levels_[depth + 1];
      child.ccol = node.ccol;
      child.vcol = node.vcol;
      // Individualize c (or the whole twin cell): it keeps the target
      // colour, the rest of the cell moves just past it.
      const uint32_t split = twins ? size - 1 : 1;
      uint32_t next = target;
      for (uint32_t i = 0; i < n_; ++i) {
        uint32_t& col = child.ccol[i];
        if (col > target) {
          col += split;
        } else if (col == target) {
          col = twins ? next++ : target + (i != c);
        }
      }
      child.nc = node.nc + split;
      child.nv = node.nv;
      Refine(child);
      path_[depth] = c;
      Visit(depth + 1,
            on_first_path && (!have_first_ || first_path_[depth] == c));
      if (exhausted_) return;
      if (unwind_to_ != kNone) {
        if (unwind_to_ < depth) return;
        unwind_to_ = kNone;
      }
    }
  }

  // True when swapping conjuncts a and b, together with the variables that
  // occur nowhere else (position by position), is an automorphism: the two
  // agree on every other term and on where their own variables repeat.
  bool Twins(uint32_t a, uint32_t b) const {
    if (q_->conjuncts()[a].relation != q_->conjuncts()[b].relation) {
      return false;
    }
    for (uint32_t ja = fact_begin_[a], jb = fact_begin_[b];
         ja < fact_begin_[a + 1]; ++ja, ++jb) {
      const uint32_t ca = codes_[ja];
      const uint32_t cb = codes_[jb];
      if (ca == cb) continue;
      if (ca < k_ || cb < k_ || owner_[ca - k_] != a || owner_[cb - k_] != b ||
          first_at_[ja] != first_at_[jb]) {
        return false;
      }
    }
    return true;
  }

  // The first `count` conjuncts of order_ as integers, into cert_: per
  // conjunct its relation, then each term as a constant rank or as its
  // first-occurrence name and kind.
  void BuildCert(size_t count) {
    ResetNames();
    cert_.clear();
    for (size_t k = 0; k < count; ++k) {
      const uint32_t i = order_[k];
      cert_.push_back(q_->conjuncts()[i].relation);
      for (uint32_t j = fact_begin_[i]; j < fact_begin_[i + 1]; ++j) {
        const uint32_t c = codes_[j];
        cert_.push_back(c < k_ ? c : k_ + 2 * NameOf(c - k_) + IsNdv(c - k_));
      }
    }
  }

  void Leaf(size_t depth) {
    const std::vector<uint32_t>& ccol = levels_[depth].ccol;
    for (uint32_t i = 0; i < n_; ++i) order_[ccol[i]] = i;
    BuildCert(n_);
    if (!have_first_) {
      have_first_ = true;
      first_cert_ = best_cert_ = cert_;
      first_order_ = best_order_ = order_;
      first_path_.assign(path_.begin(), path_.begin() + depth);
      best_path_ = first_path_;
      if (orbits_.size() < depth) orbits_.resize(depth);
      for (size_t d = 0; d < depth; ++d) {
        Grow(orbits_[d], n_);
        std::iota(orbits_[d].begin(), orbits_[d].begin() + n_, 0u);
      }
      return;
    }
    const bool first_twin = cert_ == first_cert_;
    if (first_twin || cert_ == best_cert_) {
      // An automorphism maps that earlier leaf onto this one, fixing the
      // path prefix the two share, so the rest of this subtree is the image
      // of a subtree already searched. It also joins orbits at every
      // first-path node whose prefix it fixes.
      const std::vector<uint32_t>& twin_path =
          first_twin ? first_path_ : best_path_;
      const std::vector<uint32_t>& twin_order =
          first_twin ? first_order_ : best_order_;
      size_t diverge = 0;
      while (path_[diverge] == twin_path[diverge]) ++diverge;
      for (size_t d = 0; d <= diverge; ++d) {
        for (size_t p = 0; p < n_; ++p) {
          Union(orbits_[d], twin_order[p], order_[p]);
        }
        if (path_[d] != first_path_[d]) break;
      }
      unwind_to_ = static_cast<uint32_t>(diverge);
      return;
    }
    if (cert_ < best_cert_) {
      best_cert_ = cert_;
      best_order_ = order_;
      best_path_.assign(path_.begin(), path_.begin() + depth);
    }
  }

  static uint32_t Find(std::vector<uint32_t>& parent, uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }

  // Keeps each orbit's least member as its root, so a child is explored
  // only when it is the first of its orbit.
  static void Union(std::vector<uint32_t>& parent, uint32_t a, uint32_t b) {
    a = Find(parent, a);
    b = Find(parent, b);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }

  // Canonical variable names, d0,d1,… / n0,n1,… by first occurrence, the
  // summary row first.
  void ResetNames() {
    std::fill(names_of_vars_.begin(), names_of_vars_.begin() + m_, kNone);
    next_d_ = next_n_ = 0;
    for (uint32_t c : summary_codes_) {
      if (c >= k_) NameOf(c - k_);
    }
  }
  uint32_t IsNdv(uint32_t v) const { return vars_[v].is_dist_var() ? 0 : 1; }
  uint32_t NameOf(uint32_t v) {
    uint32_t& name = names_of_vars_[v];
    if (name == kNone) name = IsNdv(v) ? next_n_++ : next_d_++;
    return name;
  }

  // Writes term code `c` at `p` and returns the end.
  char* PutTerm(char* p, uint32_t c) {
    if (c < k_) {
      const std::string& name = names_[by_rank_[c]];
      // The length prefix delimits the name, so names holding quotes,
      // commas or parentheses cannot splice into the key syntax.
      *p++ = 'c';
      p = std::to_chars(p, p + 10, name.size()).ptr;
      *p++ = '#';
      return std::copy(name.begin(), name.end(), p);
    }
    *p++ = IsNdv(c - k_) ? 'n' : 'd';
    return std::to_chars(p, p + 10, NameOf(c - k_)).ptr;
  }

  // Renders the key grammar once, conjuncts in `order` (none for an empty
  // query), into room sized for the longest rendering.
  void Render(std::string* out, const ConjunctiveQuery& q,
              const uint32_t* order) {
    ResetNames();
    size_t room = 16 + 16 * n_;
    const auto bound = [&](uint32_t c) {
      room += c < k_ ? 13 + names_[by_rank_[c]].size() : 12;
    };
    for (uint32_t c : summary_codes_) bound(c);
    for (uint32_t c : codes_) bound(c);
    const size_t start = out->size();
    out->resize(start + room);
    char* p = out->data() + start;
    const std::string_view head = q.is_empty_query() ? "Q{!EMPTY(" : "Q{(";
    p = std::copy(head.begin(), head.end(), p);
    for (size_t i = 0; i < summary_codes_.size(); ++i) {
      if (i != 0) *p++ = ',';
      p = PutTerm(p, summary_codes_[i]);
    }
    *p++ = ')';
    if (order != nullptr) {
      *p++ = ':';
      for (size_t k = 0; k < n_; ++k) {
        const uint32_t i = order[k];
        *p++ = 'R';
        p = std::to_chars(p, p + 10, q.conjuncts()[i].relation).ptr;
        *p++ = '(';
        for (uint32_t j = fact_begin_[i]; j < fact_begin_[i + 1]; ++j) {
          if (j != fact_begin_[i]) *p++ = ',';
          p = PutTerm(p, codes_[j]);
        }
        *p++ = ')';
        *p++ = ';';
      }
    }
    *p++ = '}';
    out->resize(static_cast<size_t>(p - out->data()));
  }

  const ConjunctiveQuery* q_ = nullptr;
  size_t n_ = 0;  // conjuncts
  size_t m_ = 0;  // distinct variables
  uint32_t k_ = 0;  // distinct constants
  std::vector<Term> vars_;
  std::vector<Term> consts_;
  std::vector<std::string> names_;  // by constant index
  std::vector<uint32_t> by_rank_;   // constant index by rank
  std::vector<uint32_t> rank_;      // rank by constant index
  std::vector<uint32_t> summary_codes_;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> first_at_;  // per code: first position of its term
  std::vector<uint32_t> fact_begin_;
  std::vector<uint32_t> inc_begin_;
  std::vector<uint32_t> inc_node_;
  std::vector<uint32_t> inc_pos_;
  std::vector<uint32_t> cursor_;
  std::vector<uint32_t> owner_;  // per variable, see Load
  std::vector<uint64_t> slot_key_;   // term table: packed term + 1, 0 free
  std::vector<uint32_t> slot_code_;
  std::vector<uint64_t> hashes_;     // per node, this round's signature
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> ranks_;
  std::vector<uint32_t> names_of_vars_;
  uint32_t next_d_ = 0;
  uint32_t next_n_ = 0;

  // Search state. A deque keeps each level's address while deeper levels
  // are added.
  std::deque<Level> levels_;
  std::vector<std::vector<uint32_t>> orbits_;  // per first-path depth
  std::vector<uint32_t> path_;
  std::vector<uint32_t> first_path_;
  std::vector<uint32_t> best_path_;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> first_order_;
  std::vector<uint32_t> best_order_;
  std::vector<uint32_t> cert_;
  std::vector<uint32_t> first_cert_;
  std::vector<uint32_t> best_cert_;
  bool have_first_ = false;
  bool exhausted_ = false;
  size_t nodes_ = 0;
  uint32_t unwind_to_ = kNone;
};

// Appends the canonical form of `q` (see CanonicalQueryKey) to `*out`;
// returns false on a tie-search budget fallback.
bool AppendQueryKey(std::string* out, const ConjunctiveQuery& q) {
  static thread_local Labeller labeller;
  return labeller.Append(out, q);
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
                             std::string_view sigma_key, ChaseVariant variant,
                             uint64_t* fallbacks) {
  // Room for both renderings (see Render) short of constant names, so the
  // key is usually allocated once.
  size_t room = sigma_key.size() + 48;
  for (const ConjunctiveQuery* query : {&q, &q_prime}) {
    room += 12 * query->summary().size();
    for (const Fact& f : query->conjuncts()) room += 16 + 12 * f.terms.size();
  }
  std::string out;
  out.reserve(room);
  StrAppend(&out, "V", static_cast<int>(variant), "|", sigma_key, "|");
  const bool q_complete = AppendQueryKey(&out, q);
  out += "|=>|";
  const bool q_prime_complete = AppendQueryKey(&out, q_prime);
  if (fallbacks != nullptr) *fallbacks += !q_complete + !q_prime_complete;
  return out;
}

}  // namespace cqchase
