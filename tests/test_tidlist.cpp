#include "vertical/tidlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "eclat/compute_frequent.hpp"
#include "vertical/bitset_tidlist.hpp"
#include "vertical/chunked_tidlist.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/tidset.hpp"

namespace eclat {
namespace {

TEST(TidList, IsValidTidlist) {
  EXPECT_TRUE(is_valid_tidlist(TidList{}));
  EXPECT_TRUE(is_valid_tidlist(TidList{5}));
  EXPECT_TRUE(is_valid_tidlist(TidList{1, 2, 9}));
  EXPECT_FALSE(is_valid_tidlist(TidList{1, 1}));
  EXPECT_FALSE(is_valid_tidlist(TidList{2, 1}));
}

TEST(TidList, IntersectMatchesPaperExample) {
  // Paper §4.2: T(AB) = {1,5,7,10,50}, T(AC) = {1,4,7,10,11}
  // => T(ABC) = {1,7,10}.
  const TidList ab = {1, 5, 7, 10, 50};
  const TidList ac = {1, 4, 7, 10, 11};
  EXPECT_EQ(intersect(ab, ac), (TidList{1, 7, 10}));
}

TEST(TidList, IntersectEdgeCases) {
  EXPECT_TRUE(intersect(TidList{}, TidList{}).empty());
  EXPECT_TRUE(intersect(TidList{1, 2}, TidList{}).empty());
  EXPECT_TRUE(intersect(TidList{1, 3}, TidList{2, 4}).empty());
  EXPECT_EQ(intersect(TidList{1, 2, 3}, TidList{1, 2, 3}),
            (TidList{1, 2, 3}));
}

TEST(TidList, IntersectionSizeAgreesWithIntersect) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 300; ++t) {
      if (rng.uniform() < 0.3) a.push_back(t);
      if (rng.uniform() < 0.3) b.push_back(t);
    }
    EXPECT_EQ(intersection_size(a, b), intersect(a, b).size());
  }
}

TEST(TidList, ShortCircuitReturnsExactResultWhenFrequent) {
  const TidList a = {1, 2, 3, 4, 5, 6};
  const TidList b = {2, 4, 6, 8};
  const auto result = intersect_short_circuit(a, b, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, (TidList{2, 4, 6}));
}

TEST(TidList, ShortCircuitRejectsWhenBoundTooSmall) {
  const TidList a = {1, 2, 3};
  const TidList b = {4, 5, 6, 7};
  // |a| = 3 < minsup = 4: rejected before scanning.
  EXPECT_FALSE(intersect_short_circuit(a, b, 4).has_value());
}

TEST(TidList, ShortCircuitRejectsAfterEnoughMismatches) {
  // Intersection is {100}; with minsup 2 the scan must abort and report
  // infrequent.
  const TidList a = {1, 3, 5, 100};
  const TidList b = {2, 4, 6, 100};
  EXPECT_FALSE(intersect_short_circuit(a, b, 2).has_value());
}

TEST(TidList, ShortCircuitBoundaryExactlyMinsup) {
  const TidList a = {1, 2, 3};
  const TidList b = {1, 2, 3};
  const auto result = intersect_short_circuit(a, b, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 3u);
}

TEST(TidList, ShortCircuitAgreesWithPlainIntersect) {
  Rng rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 200; ++t) {
      if (rng.uniform() < 0.4) a.push_back(t);
      if (rng.uniform() < 0.4) b.push_back(t);
    }
    const TidList exact = intersect(a, b);
    for (Count minsup : {1u, 5u, 20u, 100u}) {
      const auto fast = intersect_short_circuit(a, b, minsup);
      if (exact.size() >= minsup) {
        ASSERT_TRUE(fast.has_value());
        EXPECT_EQ(*fast, exact);
      } else {
        EXPECT_FALSE(fast.has_value());
      }
    }
  }
}

TEST(TidList, GallopAgreesWithMergeOnSkewedInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    TidList small;
    TidList large;
    for (Tid t = 0; t < 2000; ++t) {
      if (rng.uniform() < 0.005) small.push_back(t);
      if (rng.uniform() < 0.5) large.push_back(t);
    }
    EXPECT_EQ(intersect_gallop(small, large), intersect(small, large));
    EXPECT_EQ(intersect_gallop(large, small), intersect(large, small));
  }
}

TEST(TidList, GallopEdgeCases) {
  EXPECT_TRUE(intersect_gallop(TidList{}, TidList{1, 2}).empty());
  EXPECT_EQ(intersect_gallop(TidList{5}, TidList{1, 5, 9}), (TidList{5}));
  EXPECT_TRUE(intersect_gallop(TidList{10}, TidList{1, 2, 3}).empty());
}

TEST(TidList, DifferenceAndUnion) {
  const TidList a = {1, 2, 3, 5};
  const TidList b = {2, 4, 5};
  EXPECT_EQ(difference(a, b), (TidList{1, 3}));
  EXPECT_EQ(difference(b, a), (TidList{4}));
  EXPECT_EQ(unite(a, b), (TidList{1, 2, 3, 4, 5}));
}

TEST(TidList, IntersectionAlgebraProperties) {
  // Property sweep: |a ∩ b| + |a \ b| = |a|, and a ∩ b == b ∩ a.
  Rng rng(4321);
  for (int trial = 0; trial < 50; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 500; ++t) {
      if (rng.uniform() < 0.2) a.push_back(t);
      if (rng.uniform() < 0.6) b.push_back(t);
    }
    const TidList ab = intersect(a, b);
    EXPECT_EQ(ab, intersect(b, a));
    EXPECT_EQ(ab.size() + difference(a, b).size(), a.size());
    EXPECT_EQ(unite(a, b).size(), a.size() + b.size() - ab.size());
    EXPECT_TRUE(is_valid_tidlist(ab));
  }
}

TidList random_list(Rng& rng, Tid universe, double density) {
  TidList out;
  for (Tid t = 0; t < universe; ++t) {
    if (rng.uniform() < density) out.push_back(t);
  }
  return out;
}

// Adversarial operand pairs every kernel must agree on: disjoint ranges,
// nested lists, single elements, and empties.
std::vector<std::pair<TidList, TidList>> adversarial_pairs() {
  return {
      {{}, {}},
      {{5}, {}},
      {{}, {0, 1, 2}},
      {{0, 1, 2, 3}, {4, 5, 6, 7}},            // disjoint ranges
      {{0, 2, 4, 6}, {1, 3, 5, 7}},            // disjoint interleaved
      {{10, 20, 30, 40}, {20, 30}},            // nested
      {{63}, {63}},                            // word-boundary single
      {{64}, {63, 64, 65}},                    // straddles a word edge
      {{0, 63, 64, 127, 128}, {63, 128}},      // word-boundary pattern
      {{7}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},   // single vs run
  };
}

TEST(BitsetTidList, RoundTripAcrossWordBoundaries) {
  Rng rng(11);
  for (Tid universe : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      const TidList tids = random_list(rng, universe, density);
      BitsetTidList bits;
      bits.assign(tids, universe);
      EXPECT_EQ(bits.count(), tids.size());
      EXPECT_EQ(bits.to_tidlist(), tids);
      for (Tid t = 0; t < universe; ++t) {
        EXPECT_EQ(bits.test(t),
                  std::binary_search(tids.begin(), tids.end(), t));
      }
      EXPECT_FALSE(bits.test(universe));      // out of range: never set
      EXPECT_FALSE(bits.test(universe + 1));
    }
  }
}

TEST(BitsetTidList, AndMatchesSparseIntersect) {
  Rng rng(22);
  constexpr Tid kUniverse = 400;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.3);
    const TidList b = random_list(rng, kUniverse, 0.3);
    BitsetTidList ba, bb, result;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    result.assign_and(ba, bb);
    EXPECT_EQ(result.to_tidlist(), intersect(a, b));
  }
}

TEST(BitsetTidList, BoundedAndAbortsExactlyWhenInfrequent) {
  Rng rng(33);
  constexpr Tid kUniverse = 512;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.2);
    const TidList b = random_list(rng, kUniverse, 0.2);
    const TidList exact = intersect(a, b);
    BitsetTidList ba, bb;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    for (Count minsup : {1u, 4u, 16u, 64u, 512u}) {
      BitsetTidList result;
      const bool ok = result.assign_and_bounded(ba, bb, minsup, nullptr);
      EXPECT_EQ(ok, exact.size() >= minsup);
      if (ok) {
        EXPECT_EQ(result.to_tidlist(), exact);
      }
      const auto count = BitsetTidList::and_count(ba, bb, minsup, nullptr);
      EXPECT_EQ(count.has_value(), exact.size() >= minsup);
      if (count) {
        EXPECT_EQ(*count, exact.size());
      }
    }
  }
}

TEST(BitsetTidList, AndNotAndMinusSparseMatchDifference) {
  Rng rng(44);
  constexpr Tid kUniverse = 320;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.4);
    const TidList b = random_list(rng, kUniverse, 0.4);
    const TidList exact = difference(a, b);
    BitsetTidList ba, bb;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    for (std::size_t budget : {std::size_t{0}, std::size_t{10},
                               std::size_t{kUniverse}}) {
      BitsetTidList andnot;
      const bool ok = andnot.assign_andnot_bounded(ba, bb, budget, nullptr);
      EXPECT_EQ(ok, exact.size() <= budget);
      if (ok) {
        EXPECT_EQ(andnot.to_tidlist(), exact);
      }
      BitsetTidList minus;
      const bool ok2 = minus.assign_minus_sparse(ba, b, budget, nullptr);
      EXPECT_EQ(ok2, exact.size() <= budget);
      if (ok2) {
        EXPECT_EQ(minus.to_tidlist(), exact);
      }
    }
  }
}

TEST(TidSet, PrefersDenseAtTheDocumentedThreshold) {
  // Dense iff size * 128 >= universe; the boundary itself goes dense.
  EXPECT_EQ(TidSet::preferred_rep(0, 128), TidRep::kSparse);  // empty
  EXPECT_EQ(TidSet::preferred_rep(1, 128), TidRep::kDense);
  EXPECT_EQ(TidSet::preferred_rep(10, 1280), TidRep::kDense);
  EXPECT_NE(TidSet::preferred_rep(9, 1280), TidRep::kDense);
  EXPECT_EQ(TidSet::preferred_rep(10, 1279), TidRep::kDense);
}

TEST(TidSet, SeedRepresentationFollowsKernel) {
  const TidList tids = {0, 10, 20, 30};  // density 4/640 — under threshold
  constexpr Tid kUniverse = 640;
  for (IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
        IntersectKernel::kGallop}) {
    TidSet set;
    seed_tidset(tids, kUniverse, kernel, set, nullptr);
    EXPECT_FALSE(set.dense()) << kernel_name(kernel);
  }
  TidSet forced;
  seed_tidset(tids, kUniverse, IntersectKernel::kBitset, forced, nullptr);
  EXPECT_TRUE(forced.dense());
  TidSet adaptive;
  seed_tidset(tids, kUniverse, IntersectKernel::kAuto, adaptive, nullptr);
  EXPECT_FALSE(adaptive.dense());  // 4·128 < 640
  TidSet adaptive_dense;
  seed_tidset(tids, 256, IntersectKernel::kAuto, adaptive_dense, nullptr);
  EXPECT_TRUE(adaptive_dense.dense());  // 4·128 >= 256
  EXPECT_EQ(adaptive_dense.to_tidlist(), tids);
}

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kChunked, IntersectKernel::kAuto};

TEST(TidSet, IntersectionAgreesWithReferenceAcrossKernels) {
  Rng rng(55);
  constexpr Tid kUniverse = 1024;
  std::vector<std::pair<TidList, TidList>> cases = adversarial_pairs();
  // Density sweep including both sides of the 1/128 threshold and a skewed
  // pair that triggers the gallop arm of kAuto.
  for (double da : {0.004, 0.0625, 0.3}) {
    for (double db : {0.004, 0.0625, 0.3}) {
      cases.emplace_back(random_list(rng, kUniverse, da),
                         random_list(rng, kUniverse, db));
    }
  }
  cases.emplace_back(random_list(rng, kUniverse, 0.002),
                     random_list(rng, kUniverse, 0.9));

  for (const auto& [a, b] : cases) {
    const TidList exact = intersect(a, b);
    const Tid universe = kUniverse;
    for (IntersectKernel kernel : kAllKernels) {
      for (Count minsup : {1u, 3u, 40u}) {
        TidSet sa, sb, out;
        seed_tidset(a, universe, kernel, sa, nullptr);
        seed_tidset(b, universe, kernel, sb, nullptr);
        const bool ok =
            intersect_into(sa, sb, minsup, kernel, universe, out, nullptr);
        EXPECT_EQ(ok, exact.size() >= minsup) << kernel_name(kernel);
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }

        const std::optional<Count> support =
            intersect_support(sa, sb, minsup, kernel, nullptr);
        EXPECT_EQ(support.has_value(), exact.size() >= minsup)
            << kernel_name(kernel);
        if (support) {
          EXPECT_EQ(*support, exact.size());
        }
      }
    }
  }
}

TEST(TidSet, DifferenceAgreesWithReferenceAcrossKernels) {
  Rng rng(66);
  constexpr Tid kUniverse = 1024;
  std::vector<std::pair<TidList, TidList>> cases = adversarial_pairs();
  for (double da : {0.004, 0.3}) {
    for (double db : {0.004, 0.3}) {
      cases.emplace_back(random_list(rng, kUniverse, da),
                         random_list(rng, kUniverse, db));
    }
  }
  for (const auto& [a, b] : cases) {
    const TidList exact = difference(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (std::size_t budget : {std::size_t{0}, std::size_t{5},
                                 std::size_t{kUniverse}}) {
        TidSet sa, sb, out;
        seed_tidset(a, kUniverse, kernel, sa, nullptr);
        seed_tidset(b, kUniverse, kernel, sb, nullptr);
        const bool ok = difference_into(sa, sb, budget, kernel, kUniverse,
                                        out, nullptr);
        EXPECT_EQ(ok, exact.size() <= budget) << kernel_name(kernel);
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, IntersectWithKernelAgreesAcrossAllKernels) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const TidList a = random_list(rng, 500, 0.25);
    const TidList b = random_list(rng, 500, 0.25);
    const TidList exact = intersect(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (Count minsup : {1u, 10u, 200u}) {
        const std::optional<TidList> result =
            intersect_with_kernel(a, b, minsup, kernel, nullptr);
        EXPECT_EQ(result.has_value(), exact.size() >= minsup)
            << kernel_name(kernel);
        if (result) {
          EXPECT_EQ(*result, exact) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, StatsCountElementsActuallyVisited) {
  // a exhausts before b is ever advanced: the merge visits |a| elements
  // plus none of b, so tids_scanned must be 100 — not |a| + |b| = 300
  // as the pre-counting bug reported.
  TidList a, b;
  for (Tid t = 0; t < 100; ++t) a.push_back(t);
  for (Tid t = 100; t < 300; ++t) b.push_back(t);
  IntersectStats stats;
  const auto result =
      intersect_with_kernel(a, b, 1, IntersectKernel::kMerge, &stats);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(stats.intersections, 1u);
  EXPECT_EQ(stats.tids_scanned, 100u);
}

TEST(TidSet, StatsCountWordsActuallyScanned) {
  // Dense kernel over universe 256 = 4 words; a full AND scans exactly 4.
  TidList a, b;
  for (Tid t = 0; t < 256; t += 2) a.push_back(t);
  for (Tid t = 0; t < 256; t += 4) b.push_back(t);
  IntersectStats stats;
  TidSet sa, sb, out;
  seed_tidset(a, 256, IntersectKernel::kBitset, sa, &stats);
  seed_tidset(b, 256, IntersectKernel::kBitset, sb, &stats);
  EXPECT_EQ(stats.densified, 2u);
  ASSERT_TRUE(intersect_into(sa, sb, 1, IntersectKernel::kBitset, 256, out,
                             &stats));
  EXPECT_EQ(stats.words_scanned, 4u);
  EXPECT_EQ(out.support(), 64u);
}

TEST(TidSet, KernelNamesRoundTrip) {
  for (IntersectKernel kernel : kAllKernels) {
    const auto parsed = kernel_from_name(kernel_name(kernel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(kernel_from_name("simd").has_value());
  EXPECT_FALSE(kernel_from_name("").has_value());
}

// ---- Chunked container and SIMD-dispatch properties ----

/// Universe spanning four 2^16-tid chunks.
constexpr Tid kChunkUniverse = 1u << 18;

/// Adversarial single lists for the chunked container: chunk-boundary
/// values, run-heavy spans, single-tid chunks, and a bitset-dense chunk.
std::vector<TidList> chunked_adversarial_lists() {
  std::vector<TidList> lists;
  lists.push_back({});
  lists.push_back({0});
  lists.push_back({65535});                       // last tid of chunk 0
  lists.push_back({65536});                       // first tid of chunk 1
  lists.push_back({65535, 65536, 131071, 131072});  // both boundary sides
  TidList runs;  // run-compressed: long consecutive spans
  for (Tid t = 100; t < 5100; ++t) runs.push_back(t);
  for (Tid t = 70000; t < 70100; ++t) runs.push_back(t);
  lists.push_back(std::move(runs));
  TidList singles;  // one tid per chunk
  for (Tid c = 0; c < 4; ++c) singles.push_back(c * 65536 + 17);
  lists.push_back(std::move(singles));
  TidList dense_chunk;  // chunk 2 dense enough for its bitset container
  for (Tid t = 131072; t < 131072 + 30000; t += 2) dense_chunk.push_back(t);
  lists.push_back(std::move(dense_chunk));
  return lists;
}

TEST(ChunkedTidList, RoundTripOnAdversarialLists) {
  for (const TidList& tids : chunked_adversarial_lists()) {
    ChunkedTidList chunks;
    chunks.assign(tids, kChunkUniverse);
    EXPECT_EQ(chunks.count(), tids.size());
    EXPECT_EQ(chunks.to_tidlist(), tids);
    for (const Tid probe :
         {Tid{0}, Tid{17}, Tid{65535}, Tid{65536}, Tid{131072},
          Tid{131073}, Tid{5099}, Tid{5100}, kChunkUniverse - 1}) {
      EXPECT_EQ(chunks.test(probe),
                std::binary_search(tids.begin(), tids.end(), probe))
          << probe;
    }
    EXPECT_FALSE(chunks.test(kChunkUniverse));  // out of range: never set
  }
}

TEST(ChunkedTidList, HistogramReflectsContainerTypes) {
  // Chunk 0: 2000 scattered tids — too sparse for a bitset (card < 1024
  // needs... 2000 >= 1024, so bitset), chunk 1: a pure run, chunk 2: a
  // small array. Build each regime explicitly.
  TidList tids;
  for (Tid t = 0; t < 60000; t += 30) tids.push_back(t);  // 2000 ≥ 1024 → bitset
  for (Tid t = 65536; t < 65536 + 512; ++t) tids.push_back(t);  // 1 run, 512 card
  tids.push_back(131072 + 5);  // 1-element array
  tids.push_back(131072 + 99);
  ChunkedTidList chunks;
  chunks.assign(tids, kChunkUniverse);
  const ChunkedTidList::ContainerHistogram hist = chunks.histogram();
  EXPECT_EQ(hist.bitset, 1u);
  EXPECT_EQ(hist.run, 1u);
  EXPECT_EQ(hist.array, 1u);
  EXPECT_EQ(chunks.to_tidlist(), tids);
}

TEST(TidSet, ChunkedIntersectionAgreesOnMultiChunkInputs) {
  Rng rng(88);
  std::vector<std::pair<TidList, TidList>> cases;
  const std::vector<TidList> adversarial = chunked_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = i; j < adversarial.size(); ++j) {
      cases.emplace_back(adversarial[i], adversarial[j]);
    }
  }
  // Density grid across the array/bitset/run container regimes.
  for (double da : {0.001, 0.01, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.emplace_back(random_list(rng, kChunkUniverse, da),
                         random_list(rng, kChunkUniverse, db));
    }
  }
  for (const auto& [a, b] : cases) {
    const TidList exact = intersect(a, b);
    for (IntersectKernel kernel :
         {IntersectKernel::kChunked, IntersectKernel::kAuto}) {
      // Bounded-abort exactness: the short-circuit decision must match
      // the exact result size for minsup below, at, and above it.
      for (const Count minsup :
           {Count{1}, std::max<Count>(1, exact.size()),
            static_cast<Count>(exact.size() + 1), Count{100000}}) {
        TidSet sa, sb, out;
        seed_tidset(a, kChunkUniverse, kernel, sa, nullptr);
        seed_tidset(b, kChunkUniverse, kernel, sb, nullptr);
        const bool ok = intersect_into(sa, sb, minsup, kernel,
                                       kChunkUniverse, out, nullptr);
        EXPECT_EQ(ok, exact.size() >= minsup)
            << kernel_name(kernel) << " minsup=" << minsup;
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }
        const std::optional<Count> support =
            intersect_support(sa, sb, minsup, kernel, nullptr);
        EXPECT_EQ(support.has_value(), exact.size() >= minsup)
            << kernel_name(kernel) << " minsup=" << minsup;
        if (support) {
          EXPECT_EQ(*support, exact.size()) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, ChunkedDifferenceAgreesOnMultiChunkInputs) {
  Rng rng(99);
  std::vector<std::pair<TidList, TidList>> cases;
  const std::vector<TidList> adversarial = chunked_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = 0; j < adversarial.size(); ++j) {
      cases.emplace_back(adversarial[i], adversarial[j]);
    }
  }
  for (double da : {0.001, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.emplace_back(random_list(rng, kChunkUniverse, da),
                         random_list(rng, kChunkUniverse, db));
    }
  }
  for (const auto& [a, b] : cases) {
    const TidList exact = difference(a, b);
    for (IntersectKernel kernel :
         {IntersectKernel::kChunked, IntersectKernel::kAuto}) {
      // Budgets straddling the exact size check the abort decision.
      for (const std::size_t budget :
           {std::size_t{0}, exact.size() > 0 ? exact.size() - 1 : 0,
            exact.size(), exact.size() + 100}) {
        TidSet sa, sb, out;
        seed_tidset(a, kChunkUniverse, kernel, sa, nullptr);
        seed_tidset(b, kChunkUniverse, kernel, sb, nullptr);
        const bool ok = difference_into(sa, sb, budget, kernel,
                                        kChunkUniverse, out, nullptr);
        EXPECT_EQ(ok, exact.size() <= budget)
            << kernel_name(kernel) << " budget=" << budget;
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, OutputsByteIdenticalAcrossIsaLevels) {
  // The dispatched kernels may do different amounts of work per ISA
  // (stats are work-measures), but the mined sets must decode
  // byte-identically. Unsupported levels clamp to the best available,
  // so this runs (and passes trivially) on scalar-only hosts too.
  Rng rng(111);
  const simd::IsaLevel levels[] = {simd::IsaLevel::kScalar,
                                   simd::IsaLevel::kAvx2,
                                   simd::IsaLevel::kAvx512};
  for (int trial = 0; trial < 6; ++trial) {
    const TidList a = random_list(rng, kChunkUniverse, 0.004 * (trial + 1));
    const TidList b = random_list(rng, kChunkUniverse, 0.02);
    for (IntersectKernel kernel : kAllKernels) {
      std::optional<TidList> reference;
      for (const simd::IsaLevel level : levels) {
        simd::override_isa_level(level);
        TidSet sa, sb, out;
        seed_tidset(a, kChunkUniverse, kernel, sa, nullptr);
        seed_tidset(b, kChunkUniverse, kernel, sb, nullptr);
        ASSERT_TRUE(intersect_into(sa, sb, 1, kernel, kChunkUniverse, out,
                                   nullptr));
        const TidList decoded = out.to_tidlist();
        if (!reference) {
          reference = decoded;
        } else {
          EXPECT_EQ(decoded, *reference)
              << kernel_name(kernel) << " at " << simd::isa_name(level);
        }
      }
    }
  }
  simd::override_isa_level(std::nullopt);
}

TEST(TidSet, ScalarKernelsHonorForceOverride) {
  simd::override_isa_level(simd::IsaLevel::kScalar);
  EXPECT_EQ(simd::kernels().level, simd::IsaLevel::kScalar);
  // Under forced scalar the stats-visited counts are exact (the SIMD
  // paths may consume operands in blocks; scalar is the reference).
  TidList a, b;
  for (Tid t = 0; t < 100; ++t) a.push_back(t);
  for (Tid t = 100; t < 300; ++t) b.push_back(t);
  IntersectStats stats;
  const auto result =
      intersect_with_kernel(a, b, 1, IntersectKernel::kMerge, &stats);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(stats.tids_scanned, 100u);
  simd::override_isa_level(std::nullopt);
  EXPECT_EQ(simd::kernels().level, simd::detected_isa_level());
}

TEST(TidSet, PreferredRepFollowsThresholds) {
  // Dense at n·128 >= U, chunked at n·1024 >= U, sparse below, empty
  // sparse.
  EXPECT_EQ(TidSet::preferred_rep(0, 1024), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(8, 1024), TidRep::kDense);
  EXPECT_EQ(TidSet::preferred_rep(7, 1024), TidRep::kChunked);
  EXPECT_EQ(TidSet::preferred_rep(1, 1024), TidRep::kChunked);
  EXPECT_EQ(TidSet::preferred_rep(1, 1025), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(1, 128), TidRep::kDense);
}

TEST(TidSet, NormalizeHoldsInsideTheStayBand) {
  // 1000 tids over universe 64000: 1000·128 >= 64000 → dense.
  constexpr Tid kUniverse = 64000;
  TidList big;
  for (Tid t = 0; t < 1000; ++t) big.push_back(t * 64);
  TidSet set;
  seed_tidset(big, kUniverse, IntersectKernel::kAuto, set, nullptr);
  ASSERT_EQ(set.rep(), TidRep::kDense);

  // 250 tids: below the dense entry threshold (250·128 < 64000) but
  // inside the stay band (250·1024 >= 64000) — normalize must hold dense.
  IntersectStats stats;
  TidList mid(big.begin(), big.begin() + 250);
  set.assign_dense(mid, kUniverse);
  set.normalize(kUniverse, &stats);
  EXPECT_EQ(set.rep(), TidRep::kDense);
  EXPECT_EQ(stats.sparsified, 0u);

  // 50 tids: 50·1024 < 64000 — past the stay band, so it converts
  // (50·8192 >= 64000 keeps it chunked rather than fully sparse).
  TidList small(big.begin(), big.begin() + 50);
  set.assign_dense(small, kUniverse);
  set.normalize(kUniverse, &stats);
  EXPECT_EQ(set.rep(), TidRep::kChunked);
  EXPECT_EQ(stats.sparsified, 1u);
  EXPECT_EQ(set.to_tidlist(), small);
}


// ---- One dispatcher: every representation pair, every operation ----

/// How a test operand is built: directly in one representation, or
/// demoted to chunked over the class universe from sparse or dense, the
/// way the memory budget demotes one live set next to its siblings.
enum class Form { kSparse, kChunked, kDense, kDemotedSparse, kDemotedDense };

constexpr Form kAllForms[] = {Form::kSparse, Form::kChunked, Form::kDense,
                              Form::kDemotedSparse, Form::kDemotedDense};

TidSet build(Form form, const TidList& tids, Tid universe) {
  TidSet set;
  switch (form) {
    case Form::kSparse:
      set.assign_sparse(tids);
      break;
    case Form::kChunked:
      set.assign_chunked(tids, universe);
      break;
    case Form::kDense:
      set.assign_dense(tids, universe);
      break;
    case Form::kDemotedSparse:
      set.assign_sparse(tids);
      EXPECT_TRUE(set.demote_to_chunked(universe));
      break;
    case Form::kDemotedDense:
      set.assign_dense(tids, universe);
      EXPECT_TRUE(set.demote_to_chunked(universe));
      break;
  }
  return set;
}

/// True iff `kernel` runs on `rep`: a forced kernel holds every list in
/// its own representation, kAuto mixes all three.
bool kernel_runs_on(IntersectKernel kernel, TidRep rep) {
  switch (kernel) {
    case IntersectKernel::kBitset:
      return rep == TidRep::kDense;
    case IntersectKernel::kChunked:
      return rep == TidRep::kChunked;
    case IntersectKernel::kAuto:
      return true;
    default:
      return rep == TidRep::kSparse;
  }
}

/// Bounds just below, at and just above an exact result size.
std::vector<std::size_t> around(std::size_t exact) {
  std::vector<std::size_t> bounds = {exact, exact + 1};
  if (exact > 0) bounds.push_back(exact - 1);
  return bounds;
}

TEST(TidSet, EveryRepresentationPairAgreesWithTheReference) {
  Rng rng(909);
  std::vector<std::pair<TidList, TidList>> cases;
  cases.emplace_back(random_list(rng, kChunkUniverse, 0.01),
                     random_list(rng, kChunkUniverse, 0.03));
  // 32x skew: the gallop arm of kAuto's sparse pairs.
  cases.emplace_back(random_list(rng, kChunkUniverse, 0.0004),
                     random_list(rng, kChunkUniverse, 0.2));
  cases.emplace_back(TidList{}, random_list(rng, kChunkUniverse, 0.01));
  for (const auto& [a, b] : cases) {
    const TidList meet = intersect(a, b);
    const TidList minus = difference(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (Form fa : kAllForms) {
        for (Form fb : kAllForms) {
          const TidSet sa = build(fa, a, kChunkUniverse);
          const TidSet sb = build(fb, b, kChunkUniverse);
          if (!kernel_runs_on(kernel, sa.rep()) ||
              !kernel_runs_on(kernel, sb.rep())) {
            continue;
          }
          const std::string where = std::string(kernel_name(kernel)) +
                                    " forms " +
                                    std::to_string(static_cast<int>(fa)) +
                                    "x" +
                                    std::to_string(static_cast<int>(fb));
          for (const std::size_t minsup : around(meet.size())) {
            TidSet out;
            const bool ok =
                intersect_into(sa, sb, static_cast<Count>(minsup), kernel,
                               kChunkUniverse, out, nullptr);
            EXPECT_EQ(ok, meet.size() >= minsup) << where << " " << minsup;
            if (ok) {
              EXPECT_EQ(out.to_tidlist(), meet) << where;
            }
            const std::optional<Count> support = intersect_support(
                sa, sb, static_cast<Count>(minsup), kernel, nullptr);
            EXPECT_EQ(support.has_value(), meet.size() >= minsup)
                << where << " " << minsup;
            if (support) {
              EXPECT_EQ(*support, meet.size()) << where;
            }
          }
          for (const std::size_t budget : around(minus.size())) {
            TidSet out;
            const bool ok = difference_into(sa, sb, budget, kernel,
                                            kChunkUniverse, out, nullptr);
            EXPECT_EQ(ok, minus.size() <= budget) << where << " " << budget;
            if (ok) {
              EXPECT_EQ(out.to_tidlist(), minus) << where;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace eclat
