// Counters the kernel layer reports. Split out of tidset.hpp so the
// chunked container can record into the same struct without an include
// cycle. Each field has a reader: bench_e2e reports all six (its
// vertical.intersections / short_circuited / tids_scanned /
// words_scanned / rep_conversions metrics), bench_ablation_shortcircuit
// prints the first three, bench_ablation_diffsets prints tids_scanned,
// and EclatSeq.KernelCountersArePinned pins all six per kernel. Add a
// counter together with the report that reads it. Scan counters record
// work actually performed: a short-circuited abort adds only the
// elements (or words) inspected before the bound fired, never the full
// input sizes.
#pragma once

#include <cstdint>

namespace eclat {

struct IntersectStats {
  std::uint64_t intersections = 0;    ///< kernel invocations
  std::uint64_t short_circuited = 0;  ///< aborted early by the bound
  std::uint64_t tids_scanned = 0;     ///< sparse elements actually visited
  std::uint64_t words_scanned = 0;    ///< bitset words actually ANDed

  // Representation conversions between sparse and chunked (seeding a
  // chunked atom counts as densified too).
  std::uint64_t densified = 0;   ///< conversions toward denser reps
  std::uint64_t sparsified = 0;  ///< conversions toward sparser reps
};

}  // namespace eclat
