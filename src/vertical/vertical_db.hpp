// Horizontal → vertical database transformation (paper §5.2.2 / §6.3).
//
// A PairKey packs a 2-itemset {i, j} (i < j) into one 64-bit word. A
// PairIndex maps the pairs a transformation wants to dense slots, so pair
// tid-lists live in a plain vector indexed by slot — no hashing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "data/horizontal.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

/// Packed 2-itemset key: high word = smaller item, low word = larger item.
using PairKey = std::uint64_t;

constexpr PairKey make_pair_key(Item a, Item b) {
  return a < b ? (static_cast<PairKey>(a) << 32) | b
               : (static_cast<PairKey>(b) << 32) | a;
}

constexpr Item pair_first(PairKey key) {
  return static_cast<Item>(key >> 32);
}

constexpr Item pair_second(PairKey key) {
  return static_cast<Item>(key & 0xffffffffULL);
}

/// Tid-lists of single items over a span of transactions. Lists come out
/// sorted because transactions are visited in tid order.
std::vector<TidList> invert_items(std::span<const Transaction> transactions,
                                  Item num_items);

class TriangleCounter;

/// An exact-offset fill found a block whose tids did not exactly fill the
/// slice its counts reserved: the per-block counts disagree with the data.
class InversionMismatch : public std::logic_error {
 public:
  InversionMismatch(PairKey pair, Count written, Count reserved);

  PairKey pair() const { return pair_; }

 private:
  PairKey pair_;
};

/// Hash-free index of the 2-itemsets a vertical transformation builds
/// (paper §5.2.2). Slot s is the position of the s-th pair in the list
/// the index was built from, so lists indexed by slot come out in that
/// list's order. Items that occur in some pair get dense ranks in item
/// order; a u32 triangle over the ranks maps each rank pair to its slot or
/// to kNoSlot. Inversion drops a transaction's unranked items first and
/// probes only the pairs of the rest. Built once, the index is read-only
/// and shared by any number of concurrent fills.
class PairIndex {
 public:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// A pair listed twice keeps its first slot (the later slot never
  /// fills). Throws std::invalid_argument for a key that is not a pair
  /// {a < b}.
  explicit PairIndex(std::span<const PairKey> pairs);

  /// Number of slots (the length of the list the index was built from).
  std::size_t size() const { return pairs_.size(); }

  PairKey pair(std::size_t slot) const { return pairs_[slot]; }

  /// Slot of `key`, or kNoSlot when it is not indexed.
  std::uint32_t slot(PairKey key) const;

  /// Append each transaction's tid to the list of every indexed pair it
  /// contains (lists.size() == size()). Transaction items must be strictly
  /// ascending, as HorizontalDatabase guarantees. Spans appended in tid
  /// order keep every list sorted.
  void invert(std::span<const Transaction> transactions,
              std::span<TidList> lists) const;

  /// The tid-lists of every slot over `transactions`, each reserved to its
  /// exact support in `counter` — the L2 counts of the same transactions.
  std::vector<TidList> invert(std::span<const Transaction> transactions,
                              const TriangleCounter& counter) const;

  /// Exact-offset fill of one block (paper §6.3). Each lists[s] is already
  /// sized to its global length; this block's tids of slot s go to
  /// positions [begin[s], end[s]). Blocks are disjoint, ascending tid
  /// ranges with back-to-back slices, so concurrent fills of all blocks
  /// produce the globally sorted lists with no merge. Throws
  /// InversionMismatch unless every slice ends exactly full.
  void fill_block(std::span<const Transaction> block,
                  std::span<TidList> lists, std::span<const Count> begin,
                  std::span<const Count> end) const;

 private:
  template <typename Hit>
  void scan(std::span<const Transaction> transactions, Hit&& hit) const;

  std::vector<PairKey> pairs_;
  std::vector<std::uint32_t> rank_;       ///< item -> rank or kNoSlot
  std::vector<std::size_t> row_base_;     ///< rank a -> triangle row offset
  std::vector<std::uint32_t> triangle_;   ///< rank pair -> slot or kNoSlot
};

/// Tid-lists of the given 2-itemsets over a span of transactions, keyed by
/// pair: a PairIndex inversion moved into a map, for callers that want
/// keyed access. Only pairs present in `pairs` are materialized.
std::unordered_map<PairKey, TidList> invert_pairs(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs);

/// Upper-triangular 2-itemset support counter (paper §5.1): local counts of
/// all C(N,2) pairs in one pass over a horizontal partition, O(1) space per
/// pair, no hash structures.
class TriangleCounter {
 public:
  explicit TriangleCounter(Item num_items);

  /// Count every 2-subset of every transaction in the span.
  void count(std::span<const Transaction> transactions);

  /// Support of pair {a, b}; a != b.
  Count get(Item a, Item b) const;

  /// Element-wise accumulate another counter (the sum-reduction step).
  void merge(const TriangleCounter& other);

  Item num_items() const { return num_items_; }

  /// All pairs whose count is >= minsup, in lexicographic order.
  std::vector<PairKey> frequent_pairs(Count minsup) const;

  /// Direct access for the Memory Channel reduction (row-major triangle).
  std::span<const Count> raw() const { return counts_; }
  std::span<Count> raw() { return counts_; }

 private:
  std::size_t index(Item a, Item b) const;

  Item num_items_;
  std::vector<Count> counts_;
};

}  // namespace eclat
