// Roaring-style hybrid tid container: the tid universe is split into
// 2^16-tid chunks and each populated chunk independently picks the
// container that intersects fastest at its own local density —
//
//   array   sorted u16 list                (sparse chunks, STTNI intersect)
//   bitset  ceil(span/64) words, 1 bit/tid (dense chunks, SIMD word-AND)
//
// where a chunk's span is the part of the universe it covers:
// min(2^16, universe − key·2^16). A universe of 20 000 tids is one
// 313-word chunk, so a bitset-only set over a small universe is the flat
// vertical bitmap plus a 12-byte directory entry (DESIGN.md §5).
//
// Chunk-local threshold, relative to the span: a chunk holding c of its
// span's tids enters the bitset container at c·128 >= span (local
// density 1/128, the crossover where the SIMD word-AND beats the STTNI
// u16 merge — bench_kernels' density sweep) and is an array below it.
// A kernel result computed as words stays a bitset until it falls 8x
// below that (the stay band, c·1024 >= span), so it is not decoded only
// to be probed word by word at the next level; a chunk's container
// therefore depends on its cardinality, its span and whether it was
// produced as words. The `bitset` kernel holds its sets under the
// bitset-only rule instead: every populated chunk is a bitset, whatever
// its cardinality. (Roaring's third, run container is left out: runs
// averaging 8+ tids do not occur in tid-lists of independent
// transactions — DESIGN.md §5.)
//
// The support bound is checked between chunks and, inside a bitset
// chunk, every 64 words, so a one-chunk universe still aborts mid-scan.
//
// Storage is pooled (one u16 pool, one word pool, one chunk-meta
// vector), and every assign/intersect reuses pool capacity, so a
// ChunkedTidList held in a TidArena slot stops allocating once warmed
// up — the same lifetime rule as TidList.
#pragma once

#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "vertical/intersect_stats.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

class ChunkedTidList {
 public:
  enum class ContainerType : std::uint8_t { kArray, kBitset };

  /// Which containers the chunks may take: by the span-relative density
  /// threshold (speed), bitsets only (the `bitset` kernel), or whichever
  /// takes fewer bytes (memory-pressure demotion: a bitset only once the
  /// chunk holds more than 4 tids per word, Roaring's space rule). Kernel
  /// outputs inherit the rule of their first operand.
  enum class ContainerRule : std::uint8_t { kByDensity, kBitsetOnly, kCompact };

  /// Chunk counts by container type (bench reporting).
  struct ContainerHistogram {
    std::size_t array = 0;
    std::size_t bitset = 0;
  };

  ChunkedTidList() = default;

  /// Rebuild in place from a sorted tid-list over [0, universe),
  /// choosing each chunk's container by `rule`.
  void assign(std::span<const Tid> tids, Tid universe,
              ContainerRule rule = ContainerRule::kByDensity);

  Tid universe() const { return universe_; }
  ContainerRule rule() const { return rule_; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  ContainerHistogram histogram() const;
  /// Bytes held by the chunk directory and payload pools (capacities, for
  /// the exec memory budget).
  std::size_t memory_bytes() const {
    return chunks_.capacity() * sizeof(Chunk) +
           u16_pool_.capacity() * sizeof(std::uint16_t) +
           word_pool_.capacity() * sizeof(std::uint64_t);
  }

  bool test(Tid t) const;

  /// Decode to a sorted tid-list, appending to `out`.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// this = a & b, short-circuiting once the running count plus
  /// Σ min(|a_k|,|b_k|) over the remaining common chunks (and, inside a
  /// bitset chunk, 64 per unscanned word) provably stays below `minsup`.
  /// Returns false iff aborted or below minsup (contents then
  /// unspecified). Requires matching universes; `this` must not alias a
  /// or b.
  bool assign_and_bounded(const ChunkedTidList& a, const ChunkedTidList& b,
                          Count minsup, IntersectStats* stats);

  /// Support-only AND with the same bound.
  static std::optional<std::size_t> and_count(const ChunkedTidList& a,
                                              const ChunkedTidList& b,
                                              Count minsup,
                                              IntersectStats* stats);

  /// this = a & ~b, aborting (between chunks, and every 64 words inside a
  /// bitset chunk) once the running count exceeds `budget` (the diffset
  /// pruning bound). Returns false iff aborted.
  bool assign_andnot_bounded(const ChunkedTidList& a,
                             const ChunkedTidList& b, std::size_t budget,
                             IntersectStats* stats);

  /// this = a \ b where b is a sorted tid-list.
  bool assign_minus_sparse(const ChunkedTidList& a, std::span<const Tid> b,
                           std::size_t budget, IntersectStats* stats);

  // ---- Sparse-list kernels (kAuto pairs a sorted tid-list with a
  // chunked operand without converting either side; the list is walked
  // chunk-slice by chunk-slice, so comparable-size pairs run a linear
  // merge per chunk instead of paying a per-element container search).
  // The result is at most as large as the sparse side, so it lands in a
  // TidList, not a chunked container. ----

  /// out = b ∩ a where b is a sorted tid-list. Short-circuits (at chunk
  /// granularity) once the running count plus the unscanned tail of b
  /// provably stays below `minsup`; returns false iff aborted or below
  /// minsup (out then unspecified).
  static bool and_sparse(const ChunkedTidList& a, std::span<const Tid> b,
                         Count minsup, TidList& out, IntersectStats* stats);

  /// Support-only variant of and_sparse.
  static std::optional<std::size_t> and_sparse_count(const ChunkedTidList& a,
                                                     std::span<const Tid> b,
                                                     Count minsup,
                                                     IntersectStats* stats);

  /// out = b \ a where b is a sorted tid-list (sparse minuend over a
  /// chunked subtrahend). Aborts (at chunk granularity) once out grows
  /// past `budget`; returns false iff aborted.
  static bool sparse_minus(std::span<const Tid> b, const ChunkedTidList& a,
                           std::size_t budget, TidList& out,
                           IntersectStats* stats);

  friend bool operator==(const ChunkedTidList& a, const ChunkedTidList& b) {
    return a.universe_ == b.universe_ && a.count_ == b.count_ &&
           a.to_tidlist() == b.to_tidlist();
  }

 private:
  struct Chunk {
    std::uint16_t key = 0;  ///< tid >> 16
    ContainerType type = ContainerType::kArray;
    std::uint32_t offset = 0;       ///< u16 pool (array elements) or word
                                    ///< pool (bitset: words_for(key) words)
    std::uint32_t cardinality = 0;  ///< tids in this chunk
  };

  static constexpr std::size_t kChunkSpan = 1U << 16;
  /// Span-relative crossover: a chunk enters the bitset container at
  /// cardinality·128 >= span (local density 1/128), and a bitset result
  /// leaves it only kStayBand times below that.
  static constexpr std::size_t kBitsetDensity = 128;
  static constexpr std::size_t kStayBand = 8;
  /// STTNI compress stores 8 u16 lanes past the true result.
  static constexpr std::size_t kU16Slack = 8;

  /// Empty container over `universe` (kernel output staging).
  void reset(Tid universe, ContainerRule rule);

  /// Tids of the universe that chunk `key` covers, and the bitset words
  /// that span takes.
  std::size_t span_of(std::uint16_t key) const;
  std::size_t words_for(std::uint16_t key) const {
    return (span_of(key) + 63) / 64;
  }
  /// Whether a chunk of `card` tids at `key` is held as a bitset.
  bool bitset_at(std::uint16_t key, std::size_t card) const;
  /// Whether a non-empty kernel result computed as a bitset stays one.
  /// Under the density rule it does down to kStayBand times below the
  /// entry threshold, so a result just under it is not decoded only to be
  /// probed word by word at the next level.
  bool keeps_bitset(std::uint16_t key, std::size_t card) const;

  std::span<const std::uint16_t> array_of(const Chunk& c) const;
  std::span<const std::uint64_t> words_of(const Chunk& c) const;

  // Output staging: stage_* grows the pool and returns the offset;
  // emit_* trims the pool to the true cardinality, converts the staged
  // payload to the other container when the rule asks for it, appends
  // the chunk, and accumulates count_. A staged region must be emitted
  // (or dropped) before the next stage_* call (the pools may reallocate).
  std::uint32_t stage_u16(std::size_t capacity);
  void emit_array(std::uint16_t key, std::uint32_t offset, std::size_t card);
  /// Staged words keep whatever the pool held: the word kernels and
  /// copies overwrite every one, so only the bit-setting paths (assign,
  /// array→bitset) pay for stage_zeroed_words.
  std::uint32_t stage_words(std::uint16_t key);
  std::uint32_t stage_zeroed_words(std::uint16_t key);
  void emit_words(std::uint16_t key, std::uint32_t offset, std::size_t card);

  /// Copy one chunk of another container verbatim into this one.
  void copy_chunk(const ChunkedTidList& src, const Chunk& c);

  // Pairwise chunk kernels (ca from a, cb from b, same key): intersect /
  // subtract into a freshly staged+emitted chunk of *this. A bitset
  // operand is handed to the word-slice kernels below. `need` is how many
  // tids this chunk must contribute for the whole result to still reach
  // minsup, `allowance` how many it may contribute within the budget;
  // the word kernels check them every 64 words and return false (nullopt)
  // once they provably fail, leaving no chunk behind.
  bool and_pair(const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
                const ChunkedTidList& b, std::size_t need,
                IntersectStats* stats);
  static std::optional<std::size_t> and_pair_count(
      const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
      const ChunkedTidList& b, std::size_t need, IntersectStats* stats);
  bool andnot_pair(const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
                   const ChunkedTidList& b, std::size_t allowance,
                   IntersectStats* stats);

  // Chunk ∩/\ a bitset chunk's words (same key, same span).
  bool and_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                       std::span<const std::uint64_t> bw, std::size_t need,
                       IntersectStats* stats);
  static std::optional<std::size_t> and_chunk_words_count(
      const Chunk& ca, const ChunkedTidList& a,
      std::span<const std::uint64_t> bw, std::size_t need,
      IntersectStats* stats);
  bool andnot_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                          std::span<const std::uint64_t> bw,
                          std::size_t allowance, IntersectStats* stats);

  /// ca \ {bn sorted in-chunk u16 values, get(i) yielding the i-th} into
  /// a staged+emitted chunk. Templated on the accessor so the subtrahend
  /// can be an array chunk (u16) or a slice of a flat tid-list (u32)
  /// without a conversion buffer. Defined in the .cpp (only used there).
  template <typename Get>
  void andnot_chunk_sparse(const Chunk& ca, const ChunkedTidList& a,
                           std::size_t bn, const Get& get,
                           IntersectStats* stats);

  /// Cache-line-aligned storage for the word pool: with only malloc's
  /// 16-byte alignment the SIMD word kernels split loads across lines,
  /// which cost a 313-word intersection ~15% (DESIGN.md §5).
  template <typename T>
  struct LineAligned {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    LineAligned() = default;
    template <typename U>
    explicit LineAligned(const LineAligned<U>& /*other*/) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t /*n*/) { ::operator delete(p, kAlign); }
    friend bool operator==(const LineAligned&, const LineAligned&) {
      return true;
    }
  };

  std::vector<Chunk> chunks_;            // sorted by key
  std::vector<std::uint16_t> u16_pool_;  // array chunk elements
  std::vector<std::uint64_t, LineAligned<std::uint64_t>>
      word_pool_;  // bitset chunk payloads
  std::size_t words_used_ = 0;  // live prefix of word_pool_; the rest is
                                // staging reused without re-zeroing
  Tid universe_ = 0;
  std::size_t count_ = 0;
  ContainerRule rule_ = ContainerRule::kByDensity;
};

}  // namespace eclat
