// Adaptive tid-set layer: every tid-list in the mining recursion is held
// sparse (sorted vector of tids), chunked (roaring-style hybrid
// container), or dense (flat BitsetTidList).
//
// Each operation (intersect_into, intersect_support, difference_into)
// has one dispatch, on the operands' representations: one arm per
// representation pair, shared by every kernel. The kernel decides only
//   - the seed representation (seed_tidset): sparse for the paper's
//     kernels, dense for kBitset, chunked for kChunked, chosen per list
//     by the density thresholds for kAuto;
//   - the sparse×sparse algorithm: the paper kernels name theirs, kAuto
//     gallops on a 32× length skew and otherwise merges, bounded once
//     minsup > 1;
//   - whether the result is normalized (kAuto only).
// A forced kernel therefore meets only its own representation pair.
//
// Density thresholds (kAuto): a list of n tids over universe U goes
// dense when n · 128 >= U (measured crossover: the SIMD word AND's
// U/64-word scan beats the chunked containers from density 1/128 up),
// chunked when n · 1024 >= U (too sparse for the flat bitmap, but dense
// enough that per-chunk containers put the hot 2^16-tid chunks on the
// word kernels while the cold ones run the STTNI u16 merge), and sparse
// below that (measurement and derivation in DESIGN.md §5).
//
// Representations convert only at class boundaries: atoms are seeded
// into their preferred representation when a class enters the recursion
// and each child is normalized right after its intersection
// materializes. Normalization is hysteretic — converting toward denser
// happens eagerly at the thresholds above, while converting toward
// sparser waits until the size falls a further 8x below the boundary
// (the stay band), so a class oscillating around a threshold stops
// converting at every level. Mixed-representation pairs run directly
// (probe the denser operand per sparse element, address the flat bitmap
// chunk-by-chunk) rather than converting an operand.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/types.hpp"
#include "vertical/bitset_tidlist.hpp"
#include "vertical/chunked_tidlist.hpp"
#include "vertical/intersect_stats.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

/// Intersection kernel selection. kMerge/kMergeShortCircuit/kGallop hold
/// every list sparse and name the sparse×sparse algorithm (the paper's
/// kernels); kBitset holds every list as the flat dense bitmap; kChunked
/// as the roaring-style hybrid container; kAuto picks each list's
/// representation by the density thresholds, renormalizes every result,
/// and on sparse pairs gallops when one list is 32× shorter than the
/// other and runs the short-circuited merge otherwise.
enum class IntersectKernel : std::uint8_t {
  kMerge,
  kMergeShortCircuit,  // the paper's default
  kGallop,
  kBitset,   // dense word-AND + popcount for every list
  kChunked,  // roaring-style hybrid container for every list
  kAuto,     // runtime dispatch over adaptive representations
};

/// Canonical lowercase name ("merge", "short-circuit", "gallop",
/// "bitset", "chunked", "auto") — the spelling the bench/example
/// --kernel flags use.
const char* kernel_name(IntersectKernel kernel);

/// Inverse of kernel_name; nullopt on an unknown name.
std::optional<IntersectKernel> kernel_from_name(std::string_view name);

/// The three representations, ordered sparse < chunked < dense so
/// conversion direction ("toward denser") is just an enum comparison.
enum class TidRep : std::uint8_t { kSparse, kChunked, kDense };

/// One tid-list in any representation. Assign/intersect operations reuse
/// the internal buffers, so a TidSet slot held in a TidArena level stops
/// allocating once warmed up.
class TidSet {
 public:
  TidSet() = default;

  TidRep rep() const { return rep_; }
  bool dense() const { return rep_ == TidRep::kDense; }
  bool chunked() const { return rep_ == TidRep::kChunked; }
  Count support() const {
    switch (rep_) {
      case TidRep::kSparse:
        return tids_.size();
      case TidRep::kChunked:
        return chunks_.count();
      case TidRep::kDense:
        return bits_.count();
    }
    return 0;  // unreachable
  }
  bool empty() const { return support() == 0; }

  /// Sorted tids; only valid while sparse.
  std::span<const Tid> tids() const;
  /// Bitset; only valid while dense.
  const BitsetTidList& bits() const;
  /// Hybrid container; only valid while chunked.
  const ChunkedTidList& chunks() const;

  void assign_sparse(std::span<const Tid> tids);
  void assign_chunked(std::span<const Tid> tids, Tid universe);
  void assign_dense(std::span<const Tid> tids, Tid universe);

  /// The representation kAuto targets for a fresh list of `size` tids:
  /// dense at size·128 >= U, chunked at size·1024 >= U, else sparse.
  static TidRep preferred_rep(std::size_t size, Tid universe);

  /// Convert toward preferred_rep, hysteretically: densifying happens
  /// eagerly, sparsifying only once the size falls 8x below the entry
  /// threshold (dense holds while size·1024 >= U, chunked while
  /// size·8192 >= U). Counts conversions into `stats` when given.
  void normalize(Tid universe, IntersectStats* stats);

  /// Decode to a sorted tid-list regardless of representation.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// Bytes retained across all three internal buffers (capacities). The
  /// exec memory budget sums this over a worker's arena.
  std::size_t memory_bytes() const {
    return tids_.capacity() * sizeof(Tid) + bits_.memory_bytes() +
           chunks_.memory_bytes();
  }

  /// Memory-pressure demotion: re-encode as chunked over `universe` (u16
  /// containers, ~half the bytes of a sparse u32 list; empty chunks
  /// dropped from a dense bitmap) and release the vacated sparse/dense
  /// buffers. `universe` must be the class universe every dense and
  /// chunked sibling was built over: the binary kernels pair chunked and
  /// dense operands only over one universe. Only valid when the active
  /// kernel dispatches mixed representations (kAuto/kChunked) — the
  /// forced sparse/dense kernels assume their representation everywhere.
  /// Returns false when already chunked.
  bool demote_to_chunked(Tid universe);

  /// Drop every buffer (capacity included) and reset to an empty sparse
  /// set. Memory-pressure relief for slots whose contents are dead.
  void release();

 private:
  friend void seed_tidset(std::span<const Tid>, Tid, IntersectKernel,
                          TidSet&, IntersectStats*);
  friend bool intersect_into(const TidSet&, const TidSet&, Count,
                             IntersectKernel, Tid, TidSet&,
                             IntersectStats*);
  friend std::optional<Count> intersect_support(const TidSet&, const TidSet&,
                                                Count, IntersectKernel,
                                                IntersectStats*);
  friend bool difference_into(const TidSet&, const TidSet&, std::size_t,
                              IntersectKernel, Tid, TidSet&,
                              IntersectStats*);

  void set_rep(TidRep rep, IntersectStats* stats);

  TidList tids_;           // sparse storage (and decode scratch)
  BitsetTidList bits_;     // dense storage
  ChunkedTidList chunks_;  // hybrid storage
  TidRep rep_ = TidRep::kSparse;
};

/// Load `tids` into `out` in the representation `kernel` mandates for a
/// class over `universe`: sparse for the paper's kernels, dense for
/// kBitset, chunked for kChunked, threshold-chosen for kAuto.
void seed_tidset(std::span<const Tid> tids, Tid universe,
                 IntersectKernel kernel, TidSet& out,
                 IntersectStats* stats);

/// out = a ∩ b through the arm for the operands' representations,
/// short-circuiting below `minsup`. Returns false iff the result
/// provably misses minsup (then out is unspecified). `out` must not
/// alias `a` or `b`. Under kAuto the result representation is normalized
/// by the density thresholds.
bool intersect_into(const TidSet& a, const TidSet& b, Count minsup,
                    IntersectKernel kernel, Tid universe, TidSet& out,
                    IntersectStats* stats);

/// Support-only variant: |a ∩ b| when it reaches minsup, nullopt
/// otherwise. Nothing is materialized — the recursion uses this for
/// children that can never recurse (singleton child classes).
std::optional<Count> intersect_support(const TidSet& a, const TidSet& b,
                                       Count minsup,
                                       IntersectKernel kernel,
                                       IntersectStats* stats);

/// out = a \ b, aborting as soon as the result would exceed `budget`
/// elements (the diffset pruning bound). Same dispatch/normalization
/// rules as intersect_into, except that sparse pairs always run the
/// bounded merge (galloping has no difference analogue).
bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats);

}  // namespace eclat
