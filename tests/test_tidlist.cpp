#include "vertical/tidlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "eclat/compute_frequent.hpp"
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

// ---- The bitset kernel's container: bitset chunks only ----

/// `tids` as the `bitset` kernel holds them: every populated chunk a
/// span-sized bitset.
ChunkedTidList bitset_chunks(const TidList& tids, Tid universe) {
  ChunkedTidList chunks;
  chunks.assign(tids, universe, ChunkedTidList::ContainerRule::kBitsetOnly);
  return chunks;
}

TEST(BitsetTidList, RoundTripAcrossWordBoundaries) {
  Rng rng(11);
  for (Tid universe : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      const TidList tids = random_list(rng, universe, density);
      const ChunkedTidList bits = bitset_chunks(tids, universe);
      EXPECT_EQ(bits.count(), tids.size());
      EXPECT_EQ(bits.histogram().array, 0u);
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
    const ChunkedTidList ba = bitset_chunks(a, kUniverse);
    const ChunkedTidList bb = bitset_chunks(b, kUniverse);
    ChunkedTidList result;
    EXPECT_TRUE(result.assign_and_bounded(ba, bb, 0, nullptr));
    EXPECT_EQ(result.to_tidlist(), intersect(a, b));
    EXPECT_EQ(result.histogram().array, 0u);
  }
}

TEST(BitsetTidList, BoundedAndAbortsExactlyWhenInfrequent) {
  Rng rng(33);
  // 512 tids is one 8-word chunk; 20 000 is one 313-word chunk, where the
  // bound is also checked between 64-word blocks.
  for (Tid universe : {512u, 20000u}) {
    for (int trial = 0; trial < 60; ++trial) {
      const TidList a = random_list(rng, universe, 0.2);
      const TidList b = random_list(rng, universe, 0.2);
      const TidList exact = intersect(a, b);
      const ChunkedTidList ba = bitset_chunks(a, universe);
      const ChunkedTidList bb = bitset_chunks(b, universe);
      for (Count minsup :
           {Count{1}, Count{4}, Count{16}, Count{64}, Count{512},
            static_cast<Count>(exact.size()),
            static_cast<Count>(exact.size() + 1)}) {
        ChunkedTidList result;
        const bool ok = result.assign_and_bounded(ba, bb, minsup, nullptr);
        EXPECT_EQ(ok, exact.size() >= minsup);
        if (ok) {
          EXPECT_EQ(result.to_tidlist(), exact);
        }
        const auto count = ChunkedTidList::and_count(ba, bb, minsup, nullptr);
        EXPECT_EQ(count.has_value(), exact.size() >= minsup);
        if (count) {
          EXPECT_EQ(*count, exact.size());
        }
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
    const ChunkedTidList ba = bitset_chunks(a, kUniverse);
    const ChunkedTidList bb = bitset_chunks(b, kUniverse);
    for (std::size_t budget : {std::size_t{0}, std::size_t{10},
                               std::size_t{kUniverse}}) {
      ChunkedTidList andnot;
      const bool ok = andnot.assign_andnot_bounded(ba, bb, budget, nullptr);
      EXPECT_EQ(ok, exact.size() <= budget);
      if (ok) {
        EXPECT_EQ(andnot.to_tidlist(), exact);
      }
      ChunkedTidList minus;
      const bool ok2 = minus.assign_minus_sparse(ba, b, budget, nullptr);
      EXPECT_EQ(ok2, exact.size() <= budget);
      if (ok2) {
        EXPECT_EQ(minus.to_tidlist(), exact);
      }
    }
  }
}

TEST(TidSet, PrefersDenseAtTheDocumentedThreshold) {
  // A chunk is a bitset iff size * 128 >= its span; the boundary itself
  // goes bitset. The span is the part of the universe the chunk covers.
  const auto containers = [](Tid first, std::size_t size, Tid universe) {
    TidList tids(size);
    for (std::size_t i = 0; i < size; ++i) tids[i] = first + Tid(i);
    ChunkedTidList chunks;
    chunks.assign(tids, universe);
    return chunks.histogram();
  };
  const auto is_bitset = [](ChunkedTidList::ContainerHistogram h) {
    return h.bitset == 1 && h.array == 0;
  };
  const auto is_array = [](ChunkedTidList::ContainerHistogram h) {
    return h.bitset == 0 && h.array == 1;
  };
  const ChunkedTidList::ContainerHistogram empty = containers(0, 0, 128);
  EXPECT_EQ(empty.bitset + empty.array, 0u);  // empty: no chunk at all
  EXPECT_TRUE(is_bitset(containers(0, 1, 128)));
  EXPECT_TRUE(is_bitset(containers(0, 10, 1280)));
  EXPECT_TRUE(is_array(containers(0, 9, 1280)));
  EXPECT_TRUE(is_bitset(containers(0, 10, 1279)));
  // A full chunk spans 2^16 tids: bitset from 512.
  EXPECT_TRUE(is_bitset(containers(0, 512, 1u << 17)));
  EXPECT_TRUE(is_array(containers(0, 511, 1u << 17)));
  // The partial last chunk of a 65 536 + 1280 universe spans 1280 tids.
  EXPECT_TRUE(is_bitset(containers(65536, 10, 65536 + 1280)));
  EXPECT_TRUE(is_array(containers(65536, 9, 65536 + 1280)));
}

TEST(TidSet, SeedRepresentationFollowsKernel) {
  const TidList tids = {0, 10, 20, 30};  // chunk density 4/640 < 1/128
  constexpr Tid kUniverse = 640;
  for (IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
        IntersectKernel::kGallop}) {
    TidSet set;
    seed_tidset(tids, kUniverse, kernel, set, nullptr);
    EXPECT_EQ(set.rep(), TidRep::kSparse) << kernel_name(kernel);
  }
  TidSet forced;
  seed_tidset(tids, kUniverse, IntersectKernel::kBitset, forced, nullptr);
  ASSERT_EQ(forced.rep(), TidRep::kChunked);
  EXPECT_EQ(forced.chunks().histogram().bitset, 1u);  // bitsets only
  TidSet adaptive;
  seed_tidset(tids, kUniverse, IntersectKernel::kAuto, adaptive, nullptr);
  ASSERT_EQ(adaptive.rep(), TidRep::kChunked);  // 4·1024 >= 640
  EXPECT_EQ(adaptive.chunks().histogram().array, 1u);  // 4·128 < 640
  TidSet adaptive_dense;
  seed_tidset(tids, 256, IntersectKernel::kAuto, adaptive_dense, nullptr);
  ASSERT_EQ(adaptive_dense.rep(), TidRep::kChunked);
  EXPECT_EQ(adaptive_dense.chunks().histogram().bitset, 1u);  // 4·128 >= 256
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
  // Bitset kernel over universe 256 = one 4-word chunk; a full AND scans
  // exactly 4.
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

  // One 313-word chunk over 20 000 tids: evens vs odds below 16 384, all
  // tids above. Each side holds 11 808 tids, the meet only the 3 616 in
  // the last 57 words, so minsup 5000 passes the up-front bound and the
  // block check aborts after the fourth 64-word block: 0 + 64 · 57 < 5000.
  constexpr Tid kWide = 20000;
  TidList evens, odds;
  for (Tid t = 0; t < kWide; ++t) {
    if (t >= 16384 || t % 2 == 0) evens.push_back(t);
    if (t >= 16384 || t % 2 == 1) odds.push_back(t);
  }
  TidSet se, so, meet;
  seed_tidset(evens, kWide, IntersectKernel::kBitset, se, nullptr);
  seed_tidset(odds, kWide, IntersectKernel::kBitset, so, nullptr);
  IntersectStats abort_stats;
  EXPECT_FALSE(intersect_into(se, so, 5000, IntersectKernel::kBitset, kWide,
                              meet, &abort_stats));
  EXPECT_EQ(abort_stats.words_scanned, 256u);
  EXPECT_EQ(abort_stats.short_circuited, 1u);
  EXPECT_FALSE(
      intersect_support(se, so, 5000, IntersectKernel::kBitset, &abort_stats)
          .has_value());
  EXPECT_EQ(abort_stats.words_scanned, 512u);
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

/// An operand pair over its own universe.
struct UniverseCase {
  Tid universe;
  TidList a;
  TidList b;
};

/// Universes that span-sized chunks must handle: one partial word-tail
/// chunk, one 313-word chunk, a full chunk plus a one-tid chunk, and four
/// full chunks plus a 37-tid chunk.
constexpr Tid kOddUniverses[] = {100, 20000, 65537, (1u << 18) + 37};

/// Random pairs over each odd universe, one per density pair drawn from
/// `densities`; every list ends at the universe's last tid.
void add_odd_universe_cases(Rng& rng, std::initializer_list<double> densities,
                            std::vector<UniverseCase>& cases) {
  const auto ending_at_last = [&rng](Tid universe, double density) {
    TidList tids = random_list(rng, universe - 1, density);
    tids.push_back(universe - 1);
    return tids;
  };
  for (const Tid universe : kOddUniverses) {
    for (const double da : densities) {
      for (const double db : densities) {
        cases.push_back({universe, ending_at_last(universe, da),
                         ending_at_last(universe, db)});
      }
    }
  }
}

/// Adversarial single lists for the chunked container: chunk-boundary
/// values, clustered spans, single-tid chunks, and a bitset-dense chunk.
std::vector<TidList> chunked_adversarial_lists() {
  std::vector<TidList> lists;
  lists.push_back({});
  lists.push_back({0});
  lists.push_back({65535});                       // last tid of chunk 0
  lists.push_back({65536});                       // first tid of chunk 1
  lists.push_back({65535, 65536, 131071, 131072});  // both boundary sides
  TidList runs;  // clustered: consecutive spans (chunk 0 bitset, 1 array)
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
  // Partial last chunks, under both container rules.
  Rng rng(77);
  for (const Tid universe : kOddUniverses) {
    TidList tids = random_list(rng, universe - 1, 0.01);
    tids.push_back(universe - 1);
    for (const auto rule : {ChunkedTidList::ContainerRule::kByDensity,
                            ChunkedTidList::ContainerRule::kBitsetOnly}) {
      ChunkedTidList chunks;
      chunks.assign(tids, universe, rule);
      EXPECT_EQ(chunks.to_tidlist(), tids) << universe;
      EXPECT_TRUE(chunks.test(universe - 1)) << universe;
      EXPECT_FALSE(chunks.test(universe)) << universe;
    }
  }
}

TEST(ChunkedTidList, HistogramReflectsContainerTypes) {
  // An assigned chunk's container depends on its cardinality and span:
  // bitset at span/128 tids or more (512 for a full 2^16-tid chunk),
  // array below, whether the tids are scattered or consecutive. One chunk
  // per case:
  //   chunk 0: 2000 scattered tids    → bitset
  //   chunk 1: 511 consecutive tids   → array
  //   chunk 2: 2 tids                 → array
  //   chunk 3: 512 consecutive tids   → bitset
  TidList tids;
  for (Tid t = 0; t < 60000; t += 30) tids.push_back(t);
  for (Tid t = 65536; t < 65536 + 511; ++t) tids.push_back(t);
  tids.push_back(131072 + 5);
  tids.push_back(131072 + 99);
  for (Tid t = 196608 + 100; t < 196608 + 612; ++t) tids.push_back(t);
  ChunkedTidList chunks;
  chunks.assign(tids, kChunkUniverse);
  const ChunkedTidList::ContainerHistogram hist = chunks.histogram();
  EXPECT_EQ(hist.bitset, 2u);
  EXPECT_EQ(hist.array, 2u);
  EXPECT_EQ(chunks.to_tidlist(), tids);
}

TEST(TidSet, ChunkedIntersectionAgreesOnMultiChunkInputs) {
  Rng rng(88);
  std::vector<UniverseCase> cases;
  const std::vector<TidList> adversarial = chunked_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = i; j < adversarial.size(); ++j) {
      cases.push_back({kChunkUniverse, adversarial[i], adversarial[j]});
    }
  }
  // Density grid across the array and bitset container regimes.
  for (double da : {0.001, 0.01, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.push_back({kChunkUniverse, random_list(rng, kChunkUniverse, da),
                       random_list(rng, kChunkUniverse, db)});
    }
  }
  add_odd_universe_cases(rng, {0.005, 0.05}, cases);
  for (const auto& [universe, a, b] : cases) {
    const TidList exact = intersect(a, b);
    for (IntersectKernel kernel :
         {IntersectKernel::kBitset, IntersectKernel::kChunked,
          IntersectKernel::kAuto}) {
      // Bounded-abort exactness: the short-circuit decision must match
      // the exact result size for minsup below, at, and above it.
      for (const Count minsup :
           {Count{1}, std::max<Count>(1, exact.size()),
            static_cast<Count>(exact.size() + 1), Count{100000}}) {
        TidSet sa, sb, out;
        seed_tidset(a, universe, kernel, sa, nullptr);
        seed_tidset(b, universe, kernel, sb, nullptr);
        const bool ok =
            intersect_into(sa, sb, minsup, kernel, universe, out, nullptr);
        EXPECT_EQ(ok, exact.size() >= minsup)
            << kernel_name(kernel) << " U=" << universe
            << " minsup=" << minsup;
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }
        const std::optional<Count> support =
            intersect_support(sa, sb, minsup, kernel, nullptr);
        EXPECT_EQ(support.has_value(), exact.size() >= minsup)
            << kernel_name(kernel) << " U=" << universe
            << " minsup=" << minsup;
        if (support) {
          EXPECT_EQ(*support, exact.size()) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, ChunkedDifferenceAgreesOnMultiChunkInputs) {
  Rng rng(99);
  std::vector<UniverseCase> cases;
  const std::vector<TidList> adversarial = chunked_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = 0; j < adversarial.size(); ++j) {
      cases.push_back({kChunkUniverse, adversarial[i], adversarial[j]});
    }
  }
  for (double da : {0.001, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.push_back({kChunkUniverse, random_list(rng, kChunkUniverse, da),
                       random_list(rng, kChunkUniverse, db)});
    }
  }
  add_odd_universe_cases(rng, {0.005, 0.05}, cases);
  for (const auto& [universe, a, b] : cases) {
    const TidList exact = difference(a, b);
    for (IntersectKernel kernel :
         {IntersectKernel::kBitset, IntersectKernel::kChunked,
          IntersectKernel::kAuto}) {
      // Budgets straddling the exact size check the abort decision.
      for (const std::size_t budget :
           {std::size_t{0}, exact.size() > 0 ? exact.size() - 1 : 0,
            exact.size(), exact.size() + 100}) {
        TidSet sa, sb, out;
        seed_tidset(a, universe, kernel, sa, nullptr);
        seed_tidset(b, universe, kernel, sb, nullptr);
        const bool ok =
            difference_into(sa, sb, budget, kernel, universe, out, nullptr);
        EXPECT_EQ(ok, exact.size() <= budget)
            << kernel_name(kernel) << " U=" << universe
            << " budget=" << budget;
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
  // Chunked at n·1024 >= U, sparse below, empty sparse.
  EXPECT_EQ(TidSet::preferred_rep(0, 1024), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(8, 1024), TidRep::kChunked);
  EXPECT_EQ(TidSet::preferred_rep(7, 1024), TidRep::kChunked);
  EXPECT_EQ(TidSet::preferred_rep(1, 1024), TidRep::kChunked);
  EXPECT_EQ(TidSet::preferred_rep(1, 1025), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(1, 128), TidRep::kChunked);
}

TEST(TidSet, NormalizeHoldsInsideTheStayBand) {
  // 1000 tids over universe 64000: 1000·1024 >= 64000 → chunked.
  constexpr Tid kUniverse = 64000;
  TidList big;
  for (Tid t = 0; t < 1000; ++t) big.push_back(t * 64);
  TidSet set;
  seed_tidset(big, kUniverse, IntersectKernel::kAuto, set, nullptr);
  ASSERT_EQ(set.rep(), TidRep::kChunked);

  // 50 tids: below the chunked entry threshold (50·1024 < 64000) but
  // inside the stay band (50·8192 >= 64000) — normalize must hold chunked.
  IntersectStats stats;
  TidList mid(big.begin(), big.begin() + 50);
  set.assign_chunked(mid, kUniverse);
  set.normalize(kUniverse, &stats);
  EXPECT_EQ(set.rep(), TidRep::kChunked);
  EXPECT_EQ(stats.sparsified, 0u);

  // 5 tids: 5·8192 < 64000 — past the stay band, so it converts.
  TidList small(big.begin(), big.begin() + 5);
  set.assign_chunked(small, kUniverse);
  set.normalize(kUniverse, &stats);
  EXPECT_EQ(set.rep(), TidRep::kSparse);
  EXPECT_EQ(stats.sparsified, 1u);
  EXPECT_EQ(set.to_tidlist(), small);
}

// ---- One dispatcher: every representation pair, every operation ----

/// How a test operand is built: directly in one representation, or
/// demoted to compact chunked containers over the class universe from
/// sparse or chunked, the way the memory budget demotes one live set next
/// to its siblings.
enum class Form { kSparse, kChunked, kDemotedSparse, kDemotedChunked };

constexpr Form kAllForms[] = {Form::kSparse, Form::kChunked,
                              Form::kDemotedSparse, Form::kDemotedChunked};

/// `tids` in `form`; a chunked form takes the containers `kernel` holds.
TidSet build(Form form, const TidList& tids, Tid universe,
             IntersectKernel kernel) {
  TidSet set;
  switch (form) {
    case Form::kSparse:
      set.assign_sparse(tids);
      break;
    case Form::kChunked:
      set.assign_chunked(tids, universe,
                         kernel == IntersectKernel::kBitset
                             ? ChunkedTidList::ContainerRule::kBitsetOnly
                             : ChunkedTidList::ContainerRule::kByDensity);
      break;
    case Form::kDemotedSparse:
      set.assign_sparse(tids);
      EXPECT_TRUE(set.demote_to_chunked(universe));
      break;
    case Form::kDemotedChunked:
      set.assign_chunked(tids, universe);
      EXPECT_TRUE(set.demote_to_chunked(universe));
      break;
  }
  return set;
}

/// True iff `kernel` runs on `rep`: a forced kernel holds every list in
/// its own representation, kAuto mixes both.
bool kernel_runs_on(IntersectKernel kernel, TidRep rep) {
  switch (kernel) {
    case IntersectKernel::kBitset:
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
  std::vector<UniverseCase> cases;
  cases.push_back({kChunkUniverse, random_list(rng, kChunkUniverse, 0.01),
                   random_list(rng, kChunkUniverse, 0.03)});
  // 32x skew: the gallop arm of kAuto's sparse pairs.
  cases.push_back({kChunkUniverse, random_list(rng, kChunkUniverse, 0.0004),
                   random_list(rng, kChunkUniverse, 0.2)});
  cases.push_back(
      {kChunkUniverse, TidList{}, random_list(rng, kChunkUniverse, 0.01)});
  add_odd_universe_cases(rng, {0.01, 0.3}, cases);
  for (const auto& [universe, a, b] : cases) {
    const TidList meet = intersect(a, b);
    const TidList minus = difference(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (Form fa : kAllForms) {
        for (Form fb : kAllForms) {
          const TidSet sa = build(fa, a, universe, kernel);
          const TidSet sb = build(fb, b, universe, kernel);
          if (!kernel_runs_on(kernel, sa.rep()) ||
              !kernel_runs_on(kernel, sb.rep())) {
            continue;
          }
          const std::string where = std::string(kernel_name(kernel)) +
                                    " U=" + std::to_string(universe) +
                                    " forms " +
                                    std::to_string(static_cast<int>(fa)) +
                                    "x" +
                                    std::to_string(static_cast<int>(fb));
          for (const std::size_t minsup : around(meet.size())) {
            TidSet out;
            const bool ok =
                intersect_into(sa, sb, static_cast<Count>(minsup), kernel,
                               universe, out, nullptr);
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
            const bool ok = difference_into(sa, sb, budget, kernel, universe,
                                            out, nullptr);
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
