#include "vertical/vertical_db.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace eclat {

std::vector<TidList> invert_items(std::span<const Transaction> transactions,
                                  Item num_items) {
  std::vector<TidList> lists(num_items);
  for (const Transaction& t : transactions) {
    for (Item item : t.items) {
      ECLAT_DCHECK(item < num_items);
      lists[item].push_back(t.tid);
    }
  }
  return lists;
}

InversionMismatch::InversionMismatch(PairKey pair, Count written,
                                     Count reserved)
    : std::logic_error(
          "vertical: a block wrote " + std::to_string(written) +
          " tids of pair {" + std::to_string(pair_first(pair)) + ", " +
          std::to_string(pair_second(pair)) + "} into a slice of " +
          std::to_string(reserved) + "; its block counts are inconsistent"),
      pair_(pair) {}

PairIndex::PairIndex(std::span<const PairKey> pairs)
    : pairs_(pairs.begin(), pairs.end()) {
  Item max_item = 0;
  for (const PairKey key : pairs_) {
    if (pair_first(key) >= pair_second(key)) {
      throw std::invalid_argument("PairIndex: key " + std::to_string(key) +
                                  " is not a pair {a < b}");
    }
    max_item = std::max(max_item, pair_second(key));
  }
  rank_.assign(pairs_.empty() ? 0 : std::size_t{max_item} + 1, kNoSlot);
  for (const PairKey key : pairs_) {
    rank_[pair_first(key)] = 0;
    rank_[pair_second(key)] = 0;
  }
  std::uint32_t ranks = 0;
  for (std::uint32_t& rank : rank_) {
    if (rank != kNoSlot) rank = ranks++;
  }
  // Row-major upper triangle over ranks, as in TriangleCounter: cell
  // (a, b), a < b, sits at a*R - a*(a+1)/2 + (b - a - 1). row_base_ folds
  // everything but b into one term; the unsigned wrap for a = 0 cancels
  // once b >= 1 is added.
  const std::size_t r = ranks;
  row_base_.resize(r);
  for (std::size_t a = 0; a < r; ++a) {
    row_base_[a] = a * r - a * (a + 1) / 2 - a - 1;
  }
  triangle_.assign(r < 2 ? 0 : r * (r - 1) / 2, kNoSlot);
  for (std::size_t s = 0; s < pairs_.size(); ++s) {
    const Item a = pair_first(pairs_[s]);
    const Item b = pair_second(pairs_[s]);
    std::uint32_t& cell = triangle_[row_base_[rank_[a]] + rank_[b]];
    if (cell == kNoSlot) cell = static_cast<std::uint32_t>(s);
  }
}

std::uint32_t PairIndex::slot(PairKey key) const {
  const Item a = pair_first(key);
  const Item b = pair_second(key);
  if (a >= b || b >= rank_.size() || rank_[a] == kNoSlot ||
      rank_[b] == kNoSlot) {
    return kNoSlot;
  }
  return triangle_[row_base_[rank_[a]] + rank_[b]];
}

template <typename Hit>
void PairIndex::scan(std::span<const Transaction> transactions,
                     Hit&& hit) const {
  std::vector<std::uint32_t> ranked;
  for (const Transaction& t : transactions) {
    // Items are strictly ascending (HorizontalDatabase's invariant), and
    // ranks ascend with items, so `ranked` is strictly ascending too.
    ECLAT_DCHECK(is_sorted_itemset(t.items));
    ranked.clear();
    for (const Item item : t.items) {
      if (item >= rank_.size()) continue;
      const std::uint32_t rank = rank_[item];
      if (rank != kNoSlot) ranked.push_back(rank);
    }
    for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
      const std::uint32_t* row = triangle_.data() + row_base_[ranked[i]];
      for (std::size_t j = i + 1; j < ranked.size(); ++j) {
        const std::uint32_t s = row[ranked[j]];
        if (s != kNoSlot) hit(s, t.tid);
      }
    }
  }
}

void PairIndex::invert(std::span<const Transaction> transactions,
                       std::span<TidList> lists) const {
  if (lists.size() != size()) {
    throw std::invalid_argument("PairIndex::invert: one list per slot");
  }
  scan(transactions,
       [&](std::uint32_t s, Tid tid) { lists[s].push_back(tid); });
}

std::vector<TidList> PairIndex::invert(
    std::span<const Transaction> transactions,
    const TriangleCounter& counter) const {
  std::vector<TidList> lists(size());
  for (std::size_t s = 0; s < size(); ++s) {
    lists[s].reserve(
        counter.get(pair_first(pairs_[s]), pair_second(pairs_[s])));
  }
  invert(transactions, lists);
  return lists;
}

void PairIndex::fill_block(std::span<const Transaction> block,
                           std::span<TidList> lists,
                           std::span<const Count> begin,
                           std::span<const Count> end) const {
  if (lists.size() != size() || begin.size() != size() ||
      end.size() != size()) {
    throw std::invalid_argument(
        "PairIndex::fill_block: one list and one offset per slot");
  }
  std::vector<Count> cursor(begin.begin(), begin.end());
  scan(block, [&](std::uint32_t s, Tid tid) {
    ECLAT_DCHECK(cursor[s] < end[s] && end[s] <= lists[s].size());
    lists[s][cursor[s]++] = tid;
  });
  for (std::size_t s = 0; s < size(); ++s) {
    if (cursor[s] != end[s]) {
      throw InversionMismatch(pairs_[s], cursor[s] - begin[s],
                              end[s] - begin[s]);
    }
  }
}

std::unordered_map<PairKey, TidList> invert_pairs(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs) {
  const PairIndex index(pairs);
  std::vector<TidList> filled(index.size());
  index.invert(transactions, filled);
  std::unordered_map<PairKey, TidList> lists;
  lists.reserve(pairs.size());
  // emplace keeps the first slot of a repeated pair: the one that filled.
  for (std::size_t s = 0; s < index.size(); ++s) {
    lists.emplace(pairs[s], std::move(filled[s]));
  }
  return lists;
}

TriangleCounter::TriangleCounter(Item num_items) : num_items_(num_items) {
  if (num_items < 2) {
    throw std::invalid_argument("TriangleCounter needs >= 2 items");
  }
  const std::size_t n = num_items;
  counts_.assign(n * (n - 1) / 2, 0);
}

std::size_t TriangleCounter::index(Item a, Item b) const {
  if (a > b) std::swap(a, b);
  if (a == b || b >= num_items_) {
    throw std::out_of_range("invalid pair for TriangleCounter");
  }
  // Row-major upper triangle: rows 0..a-1 hold (n-1) + (n-2) + ... +
  // (n-a) = a*n - a*(a+1)/2 cells, then offset by b within row a.
  // All math in std::size_t: a*(a+1) wraps 32-bit Item arithmetic once
  // the item universe passes ~92k.
  const std::size_t n = num_items_;
  const std::size_t row = a;
  const std::size_t row_start = row * n - row * (row + 1) / 2;
  return row_start + (b - a - 1);
}

void TriangleCounter::count(std::span<const Transaction> transactions) {
  for (const Transaction& t : transactions) {
    const Itemset& items = t.items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        ++counts_[index(items[i], items[j])];
      }
    }
  }
}

Count TriangleCounter::get(Item a, Item b) const {
  return counts_[index(a, b)];
}

void TriangleCounter::merge(const TriangleCounter& other) {
  if (other.num_items_ != num_items_) {
    throw std::invalid_argument("TriangleCounter size mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::vector<PairKey> TriangleCounter::frequent_pairs(Count minsup) const {
  std::vector<PairKey> pairs;
  for (Item a = 0; a + 1 < num_items_; ++a) {
    for (Item b = a + 1; b < num_items_; ++b) {
      if (counts_[index(a, b)] >= minsup) {
        pairs.push_back(make_pair_key(a, b));
      }
    }
  }
  return pairs;
}

}  // namespace eclat
