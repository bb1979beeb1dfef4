#include "vertical/vertical_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "gen/quest.hpp"

namespace eclat {
namespace {

std::vector<Transaction> sample_transactions() {
  return {
      {0, {0, 1, 2}},
      {1, {1, 2}},
      {2, {0, 2}},
      {3, {0, 1, 2, 3}},
  };
}

TEST(PairKey, PacksAndUnpacksCanonically) {
  const PairKey key = make_pair_key(3, 9);
  EXPECT_EQ(pair_first(key), 3u);
  EXPECT_EQ(pair_second(key), 9u);
  EXPECT_EQ(make_pair_key(9, 3), key);  // order-insensitive
}

TEST(PairKey, OrdersLexicographically) {
  EXPECT_LT(make_pair_key(1, 2), make_pair_key(1, 3));
  EXPECT_LT(make_pair_key(1, 9), make_pair_key(2, 3));
}

TEST(InvertItems, BuildsSortedTidLists) {
  const auto transactions = sample_transactions();
  const std::vector<TidList> lists = invert_items(transactions, 4);
  ASSERT_EQ(lists.size(), 4u);
  EXPECT_EQ(lists[0], (TidList{0, 2, 3}));
  EXPECT_EQ(lists[1], (TidList{0, 1, 3}));
  EXPECT_EQ(lists[2], (TidList{0, 1, 2, 3}));
  EXPECT_EQ(lists[3], (TidList{3}));
}

TEST(InvertPairs, BuildsOnlyRequestedPairs) {
  const auto transactions = sample_transactions();
  const std::vector<PairKey> pairs = {make_pair_key(0, 1),
                                      make_pair_key(1, 2)};
  const auto lists = invert_pairs(transactions, pairs);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists.at(make_pair_key(0, 1)), (TidList{0, 3}));
  EXPECT_EQ(lists.at(make_pair_key(1, 2)), (TidList{0, 1, 3}));
}

TEST(InvertPairs, PairTidlistEqualsItemTidlistIntersection) {
  // Property: for any pair {a,b}, tidlist(ab) == tidlist(a) ∩ tidlist(b).
  const HorizontalDatabase db = [&] {
    gen::QuestConfig config;
    config.num_transactions = 500;
    config.num_items = 30;
    config.num_patterns = 10;
    config.avg_pattern_length = 3;
    config.avg_transaction_length = 6;
    return gen::QuestGenerator(config).generate();
  }();
  const std::vector<TidList> items =
      invert_items(db.transactions(), db.num_items());
  std::vector<PairKey> pairs;
  for (Item a = 0; a < 10; ++a) {
    for (Item b = a + 1; b < 10; ++b) pairs.push_back(make_pair_key(a, b));
  }
  const auto lists = invert_pairs(db.transactions(), pairs);
  for (PairKey key : pairs) {
    EXPECT_EQ(lists.at(key),
              intersect(items[pair_first(key)], items[pair_second(key)]));
  }
}

// The hashed inversion PairIndex replaced, kept as the reference: one
// map probe per item pair per transaction.
std::unordered_map<PairKey, TidList> hashed_invert(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs) {
  std::unordered_map<PairKey, TidList> lists;
  for (PairKey key : pairs) lists.emplace(key, TidList{});
  for (const Transaction& t : transactions) {
    for (std::size_t i = 0; i < t.items.size(); ++i) {
      for (std::size_t j = i + 1; j < t.items.size(); ++j) {
        const auto it = lists.find(make_pair_key(t.items[i], t.items[j]));
        if (it != lists.end()) it->second.push_back(t.tid);
      }
    }
  }
  return lists;
}

// A random database over `num_items` items: about a quarter of the
// transactions are empty, and items >= num_items / 2 are rare.
HorizontalDatabase random_db(Rng& rng, std::size_t size, Item num_items) {
  std::vector<Transaction> transactions;
  for (std::size_t t = 0; t < size; ++t) {
    Itemset items;
    if (rng.below(4) != 0) {
      for (Item item = 0; item < num_items; ++item) {
        const std::uint64_t odds = item < num_items / 2 ? 3 : 12;
        if (rng.below(odds) == 0) items.push_back(item);
      }
    }
    transactions.push_back({static_cast<Tid>(t), std::move(items)});
  }
  return HorizontalDatabase(std::move(transactions), num_items);
}

// A random subset of the pairs over items [0, num_items + 2) in random
// order: some pairs never occur, and some items are in no pair.
std::vector<PairKey> random_pairs(Rng& rng, Item num_items) {
  std::vector<PairKey> pairs;
  const std::uint64_t keep = 1 + rng.below(4);
  for (Item a = 0; a < num_items + 2; ++a) {
    for (Item b = a + 1; b < num_items + 2; ++b) {
      if (rng.below(keep) == 0) pairs.push_back(make_pair_key(a, b));
    }
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  pairs.resize(rng.below(pairs.size() + 1));
  return pairs;
}

// Exact-offset fill over `blocks`, the way the threads backend does it:
// per-block counts give each block's slice of each presized list.
std::vector<TidList> block_offset_fill(const HorizontalDatabase& db,
                                       const PairIndex& index,
                                       const std::vector<Block>& blocks) {
  const std::size_t P = index.size();
  std::vector<Count> offsets((blocks.size() + 1) * P, 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    TriangleCounter counter(std::max<Item>(db.num_items(), 2));
    counter.count(db.view(blocks[b]));
    for (std::size_t s = 0; s < P; ++s) {
      const PairKey key = index.pair(s);
      const bool counted = pair_second(key) < db.num_items();
      offsets[(b + 1) * P + s] =
          offsets[b * P + s] +
          (counted ? counter.get(pair_first(key), pair_second(key)) : 0);
    }
  }
  std::vector<TidList> lists(P);
  for (std::size_t s = 0; s < P; ++s) {
    lists[s].resize(offsets[blocks.size() * P + s]);
  }
  const std::span<const Count> rows(offsets);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    index.fill_block(db.view(blocks[b]), lists, rows.subspan(b * P, P),
                     rows.subspan((b + 1) * P, P));
  }
  return lists;
}

TEST(PairIndex, MatchesHashedInversionOnRandomDatabases) {
  Rng rng(20240613);
  for (int round = 0; round < 60; ++round) {
    // Every sixth round is smaller than some block counts (W > |D|).
    const std::size_t size = round % 6 == 1 ? round % 5 : rng.below(40);
    const Item num_items = static_cast<Item>(2 + rng.below(14));
    const HorizontalDatabase db = random_db(rng, size, num_items);
    const std::vector<PairKey> pairs =
        round % 10 == 0 ? std::vector<PairKey>{} : random_pairs(rng, num_items);
    const auto reference = hashed_invert(db.transactions(), pairs);
    const PairIndex index(pairs);
    ASSERT_EQ(index.size(), pairs.size());

    std::vector<TidList> appended(index.size());
    index.invert(db.transactions(), appended);
    for (std::size_t s = 0; s < pairs.size(); ++s) {
      EXPECT_EQ(index.slot(pairs[s]), s);
      EXPECT_EQ(appended[s], reference.at(pairs[s]))
          << "round " << round << " slot " << s;
    }
    const auto adapted = invert_pairs(db.transactions(), pairs);
    EXPECT_EQ(adapted, reference) << "round " << round;

    for (std::size_t W = 1; W <= 7; ++W) {
      const std::vector<TidList> filled =
          block_offset_fill(db, index, db.block_partition(W));
      EXPECT_EQ(filled, appended) << "round " << round << " W=" << W;
    }
  }
}

TEST(PairIndex, PresizedInversionReservesExactSupports) {
  gen::QuestConfig config;
  config.num_transactions = 300;
  config.num_items = 20;
  config.num_patterns = 8;
  config.avg_pattern_length = 3;
  config.avg_transaction_length = 5;
  const HorizontalDatabase db = gen::QuestGenerator(config).generate();
  TriangleCounter counter(db.num_items());
  counter.count(db.transactions());
  const std::vector<PairKey> pairs = counter.frequent_pairs(1);
  const PairIndex index(pairs);
  const std::vector<TidList> lists = index.invert(db.transactions(), counter);
  const auto reference = hashed_invert(db.transactions(), pairs);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    EXPECT_EQ(lists[s], reference.at(pairs[s]));
    EXPECT_EQ(lists[s].capacity(), lists[s].size());
  }
}

TEST(PairIndex, UnindexedPairsAndRepeatsHaveNoExtraSlot) {
  const std::vector<PairKey> pairs = {make_pair_key(2, 7), make_pair_key(0, 2),
                                      make_pair_key(2, 7)};
  const PairIndex index(pairs);
  EXPECT_EQ(index.slot(make_pair_key(2, 7)), 0u);  // first slot wins
  EXPECT_EQ(index.slot(make_pair_key(0, 2)), 1u);
  EXPECT_EQ(index.slot(make_pair_key(0, 7)), PairIndex::kNoSlot);
  EXPECT_EQ(index.slot(make_pair_key(3, 4)), PairIndex::kNoSlot);
  EXPECT_EQ(index.slot(make_pair_key(7, 90)), PairIndex::kNoSlot);
  EXPECT_THROW(PairIndex(std::vector<PairKey>{make_pair_key(4, 4)}),
               std::invalid_argument);
}

TEST(PairIndex, InconsistentBlockCountsRaiseTypedError) {
  const auto transactions = sample_transactions();
  const std::vector<PairKey> pairs = {make_pair_key(0, 1),
                                      make_pair_key(1, 2)};
  const PairIndex index(pairs);
  // {0,1} occurs in tids 0 and 3, {1,2} in 0, 1 and 3. Block 0 = tids
  // 0..1, block 1 = tids 2..3. Claim one tid too many for {1,2} in block 0.
  const std::span<const Transaction> all(transactions);
  const std::vector<Count> begin0 = {0, 0};
  const std::vector<Count> end0 = {1, 3};
  const std::vector<Count> end1 = {2, 4};
  std::vector<TidList> lists = {TidList(2), TidList(4)};
  try {
    index.fill_block(all.subspan(0, 2), lists, begin0, end0);
    FAIL() << "an under-filled slice must not pass";
  } catch (const InversionMismatch& e) {
    EXPECT_EQ(e.pair(), make_pair_key(1, 2));
  }
  // The consistent offsets fill the same lists exactly.
  const std::vector<Count> good_end0 = {1, 2};
  const std::vector<Count> good_end1 = {2, 3};
  lists = {TidList(2), TidList(3)};
  index.fill_block(all.subspan(0, 2), lists, begin0, good_end0);
  index.fill_block(all.subspan(2, 2), lists, good_end0, good_end1);
  EXPECT_EQ(lists[0], (TidList{0, 3}));
  EXPECT_EQ(lists[1], (TidList{0, 1, 3}));
  // An over-counted last block is caught the same way.
  lists = {TidList(2), TidList(4)};
  index.fill_block(all.subspan(0, 2), lists, begin0, good_end0);
  EXPECT_THROW(index.fill_block(all.subspan(2, 2), lists, good_end0, end1),
               InversionMismatch);
}

TEST(TriangleCounter, CountsAllPairsOfEachTransaction) {
  TriangleCounter counter(4);
  const auto transactions = sample_transactions();
  counter.count(transactions);
  EXPECT_EQ(counter.get(0, 1), 2u);  // tids 0, 3
  EXPECT_EQ(counter.get(0, 2), 3u);  // tids 0, 2, 3
  EXPECT_EQ(counter.get(1, 2), 3u);  // tids 0, 1, 3
  EXPECT_EQ(counter.get(0, 3), 1u);
  EXPECT_EQ(counter.get(2, 3), 1u);
  EXPECT_EQ(counter.get(3, 1), 1u);  // arguments commute
}

TEST(TriangleCounter, IndexingCoversWholeTriangleWithoutCollision) {
  // Bump each pair exactly once via single-pair transactions and verify
  // every cell reads back 1 (no aliasing in the triangular indexing).
  constexpr Item kN = 17;
  TriangleCounter counter(kN);
  std::vector<Transaction> transactions;
  Tid tid = 0;
  for (Item a = 0; a < kN; ++a) {
    for (Item b = a + 1; b < kN; ++b) {
      transactions.push_back({tid++, {a, b}});
    }
  }
  counter.count(transactions);
  for (Item a = 0; a < kN; ++a) {
    for (Item b = a + 1; b < kN; ++b) {
      EXPECT_EQ(counter.get(a, b), 1u) << "pair " << a << "," << b;
    }
  }
}

TEST(TriangleCounter, MergeAccumulatesElementwise) {
  TriangleCounter a(3);
  TriangleCounter b(3);
  std::vector<Transaction> first = {{0, {0, 1}}};
  std::vector<Transaction> second = {{1, {0, 1}}, {2, {1, 2}}};
  a.count(first);
  b.count(second);
  a.merge(b);
  EXPECT_EQ(a.get(0, 1), 2u);
  EXPECT_EQ(a.get(1, 2), 1u);
  EXPECT_EQ(a.get(0, 2), 0u);
}

TEST(TriangleCounter, MergeRejectsSizeMismatch) {
  TriangleCounter a(3);
  TriangleCounter b(4);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(TriangleCounter, FrequentPairsSortedAndThresholded) {
  TriangleCounter counter(4);
  counter.count(sample_transactions());
  const std::vector<PairKey> frequent = counter.frequent_pairs(2);
  ASSERT_EQ(frequent.size(), 3u);
  EXPECT_EQ(frequent[0], make_pair_key(0, 1));
  EXPECT_EQ(frequent[1], make_pair_key(0, 2));
  EXPECT_EQ(frequent[2], make_pair_key(1, 2));
  EXPECT_TRUE(std::is_sorted(frequent.begin(), frequent.end()));
}

TEST(TriangleCounter, InvalidArgumentsThrow) {
  TriangleCounter counter(3);
  EXPECT_THROW(counter.get(1, 1), std::out_of_range);
  EXPECT_THROW(counter.get(0, 3), std::out_of_range);
  EXPECT_THROW(TriangleCounter{1}, std::invalid_argument);
}

}  // namespace
}  // namespace eclat
