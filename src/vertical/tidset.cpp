#include "vertical/tidset.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// True iff `kernel` runs on sets in representation `rep`: each forced
/// kernel keeps its own representation everywhere, kAuto mixes all three.
bool kernel_holds(IntersectKernel kernel, TidRep rep) {
  switch (kernel) {
    case IntersectKernel::kMerge:
    case IntersectKernel::kMergeShortCircuit:
    case IntersectKernel::kGallop:
      return rep == TidRep::kSparse;
    case IntersectKernel::kBitset:
      return rep == TidRep::kDense;
    case IntersectKernel::kChunked:
      return rep == TidRep::kChunked;
    case IntersectKernel::kAuto:
      return true;
  }
  return false;
}

/// kAuto hands a sparse∩sparse pair to the galloping kernel when one side
/// is this many times shorter than the other.
constexpr std::size_t kGallopSkew = 32;

/// The sparse∩sparse algorithm: galloping or merging, with or without
/// the support bound. A bounded gallop only checks the shorter length
/// against minsup up front; a bounded merge aborts mid-scan.
struct SparseAlgorithm {
  bool gallop;
  bool bounded;
};

/// The paper kernels name their algorithm; kAuto gallops on a 32× skew
/// and otherwise merges, with the bound armed once minsup > 1 can prune.
SparseAlgorithm sparse_algorithm(IntersectKernel kernel, std::size_t a,
                                 std::size_t b, Count minsup) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return {false, false};
    case IntersectKernel::kMergeShortCircuit:
      return {false, true};
    case IntersectKernel::kGallop:
      return {true, false};
    case IntersectKernel::kBitset:
    case IntersectKernel::kChunked:
    case IntersectKernel::kAuto:
      break;
  }
  if (std::min(a, b) * kGallopSkew < std::max(a, b)) return {true, true};
  return {false, minsup > 1};
}

/// Galloping sparse∩sparse through the dispatched kernel table.
void gallop_into_dispatch(std::span<const Tid> a, std::span<const Tid> b,
                          TidList& out, std::size_t* visited) {
  const std::span<const Tid> small = a.size() <= b.size() ? a : b;
  const std::span<const Tid> large = a.size() <= b.size() ? b : a;
  out.clear();
  out.resize(small.size());
  const std::size_t k =
      simd::kernels().gallop_u32(small.data(), small.size(), large.data(),
                                 large.size(), out.data(), visited);
  out.resize(k);
}

/// out = a ∩ b for two sorted lists by `algo`. Returns false iff the
/// result misses minsup.
bool sparse_intersect_into(std::span<const Tid> a, std::span<const Tid> b,
                           Count minsup, SparseAlgorithm algo, TidList& out,
                           IntersectStats* stats) {
  std::size_t visited = 0;
  std::size_t* const vp = stats != nullptr ? &visited : nullptr;
  bool ok = false;
  if (algo.gallop) {
    if (algo.bounded && std::min(a.size(), b.size()) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
    gallop_into_dispatch(a, b, out, vp);
    ok = out.size() >= minsup;
  } else if (algo.bounded) {
    ok = intersect_short_circuit_into(a, b, minsup, out, vp);
    if (!ok && stats != nullptr) ++stats->short_circuited;
  } else {
    intersect_into(a, b, out, vp);
    ok = out.size() >= minsup;
  }
  if (stats != nullptr) stats->tids_scanned += visited;
  return ok;
}

/// Support-only variant of sparse_intersect_into.
std::optional<Count> sparse_support(std::span<const Tid> a,
                                    std::span<const Tid> b, Count minsup,
                                    SparseAlgorithm algo,
                                    IntersectStats* stats) {
  std::size_t visited = 0;
  std::size_t* const vp = stats != nullptr ? &visited : nullptr;
  std::optional<Count> count;
  if (algo.gallop) {
    if (algo.bounded && std::min(a.size(), b.size()) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
    const std::span<const Tid> small = a.size() <= b.size() ? a : b;
    const std::span<const Tid> large = a.size() <= b.size() ? b : a;
    count = simd::kernels().gallop_u32_count(small.data(), small.size(),
                                             large.data(), large.size(), vp);
  } else {
    // minsup 0 disarms the bound: a full scan, checked below.
    count = intersect_count_bounded(a, b, algo.bounded ? minsup : 0, vp);
    if (!count && stats != nullptr) ++stats->short_circuited;
  }
  if (stats != nullptr) stats->tids_scanned += visited;
  if (!count || *count < minsup) return std::nullopt;
  return count;
}

/// sparse ∩ flat bitmap by probing per sparse element, with the support
/// bound |result| <= matched + sparse elements remaining. Returns false
/// iff provably below minsup.
bool probe_into(std::span<const Tid> sparse, const BitsetTidList& dense,
                Count minsup, TidList& out, IntersectStats* stats) {
  if (std::min<std::size_t>(sparse.size(), dense.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  out.clear();
  out.reserve(sparse.size());
  const std::size_t n = sparse.size();
  std::size_t i = 0;
  bool aborted = false;
  for (; i < n; ++i) {
    if (out.size() + (n - i) < minsup) {
      aborted = true;
      break;
    }
    if (dense.test(sparse[i])) out.push_back(sparse[i]);
  }
  if (stats != nullptr) {
    stats->tids_scanned += i;
    if (aborted) ++stats->short_circuited;
  }
  return !aborted && out.size() >= minsup;
}

/// Support-only probe.
std::optional<Count> probe_count(std::span<const Tid> sparse,
                                 const BitsetTidList& dense, Count minsup,
                                 IntersectStats* stats) {
  if (std::min<std::size_t>(sparse.size(), dense.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  const std::size_t n = sparse.size();
  std::size_t count = 0;
  std::size_t i = 0;
  bool aborted = false;
  for (; i < n; ++i) {
    if (count + (n - i) < minsup) {
      aborted = true;
      break;
    }
    count += static_cast<std::size_t>(dense.test(sparse[i]));
  }
  if (stats != nullptr) {
    stats->tids_scanned += i;
    if (aborted) ++stats->short_circuited;
  }
  if (aborted || count < minsup) return std::nullopt;
  return count;
}

/// sparse \ flat bitmap with the diffset budget bound.
bool probe_minus_into(std::span<const Tid> sparse, const BitsetTidList& dense,
                      std::size_t budget, TidList& out,
                      IntersectStats* stats) {
  out.clear();
  out.reserve(std::min(sparse.size(), budget + 1));
  std::size_t i = 0;
  bool ok = true;
  for (; i < sparse.size(); ++i) {
    if (!dense.test(sparse[i])) {
      if (out.size() == budget) {
        ok = false;
        break;
      }
      out.push_back(sparse[i]);
    }
  }
  if (stats != nullptr) stats->tids_scanned += i;
  return ok;
}

/// A chunked/flat-bitmap support result as the public Count.
std::optional<Count> as_support(std::optional<std::size_t> count) {
  if (!count) return std::nullopt;
  return static_cast<Count>(*count);
}

}  // namespace

const char* kernel_name(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return "merge";
    case IntersectKernel::kMergeShortCircuit:
      return "short-circuit";
    case IntersectKernel::kGallop:
      return "gallop";
    case IntersectKernel::kBitset:
      return "bitset";
    case IntersectKernel::kChunked:
      return "chunked";
    case IntersectKernel::kAuto:
      return "auto";
  }
  ECLAT_UNREACHABLE("unknown IntersectKernel");
}

std::optional<IntersectKernel> kernel_from_name(std::string_view name) {
  if (name == "merge") return IntersectKernel::kMerge;
  if (name == "short-circuit") return IntersectKernel::kMergeShortCircuit;
  if (name == "gallop") return IntersectKernel::kGallop;
  if (name == "bitset") return IntersectKernel::kBitset;
  if (name == "chunked") return IntersectKernel::kChunked;
  if (name == "auto") return IntersectKernel::kAuto;
  return std::nullopt;
}

std::span<const Tid> TidSet::tids() const {
  ECLAT_DCHECK(rep_ == TidRep::kSparse);
  return tids_;
}

const BitsetTidList& TidSet::bits() const {
  ECLAT_DCHECK(rep_ == TidRep::kDense);
  return bits_;
}

const ChunkedTidList& TidSet::chunks() const {
  ECLAT_DCHECK(rep_ == TidRep::kChunked);
  return chunks_;
}

void TidSet::assign_sparse(std::span<const Tid> tids) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  tids_.assign(tids.begin(), tids.end());
  rep_ = TidRep::kSparse;
}

void TidSet::assign_chunked(std::span<const Tid> tids, Tid universe) {
  chunks_.assign(tids, universe);
  rep_ = TidRep::kChunked;
}

void TidSet::assign_dense(std::span<const Tid> tids, Tid universe) {
  bits_.assign(tids, universe);
  rep_ = TidRep::kDense;
}

bool TidSet::demote_to_chunked(Tid universe) {
  if (rep_ == TidRep::kChunked) return false;
  // Decode, re-encode chunked over the class universe, then drop the
  // vacated buffer so the budget accounting actually improves.
  TidList decoded = to_tidlist();
  chunks_.assign(decoded, universe);
  if (rep_ == TidRep::kSparse) {
    tids_ = TidList();
  } else {
    bits_ = BitsetTidList();
  }
  rep_ = TidRep::kChunked;
  return true;
}

void TidSet::release() {
  tids_ = TidList();
  bits_ = BitsetTidList();
  chunks_ = ChunkedTidList();
  rep_ = TidRep::kSparse;
}

TidRep TidSet::preferred_rep(std::size_t size, Tid universe) {
  if (size == 0) return TidRep::kSparse;
  const auto n = static_cast<std::uint64_t>(size);
  if ((n << 7) >= universe) return TidRep::kDense;
  if ((n << 10) >= universe) return TidRep::kChunked;
  return TidRep::kSparse;
}

void TidSet::set_rep(TidRep rep, IntersectStats* stats) {
  if (rep == rep_) return;
  if (stats != nullptr) {
    if (rep > rep_) {
      ++stats->densified;
    } else {
      ++stats->sparsified;
    }
  }
  rep_ = rep;
}

void TidSet::normalize(Tid universe, IntersectStats* stats) {
  const auto n = static_cast<std::size_t>(support());
  TidRep target = preferred_rep(n, universe);
  if (target == rep_) return;
  if (target < rep_) {
    // Sparsify only past the stay band: 8x below the entry threshold.
    // Demotion costs a full decode pass of the source representation,
    // so it has to be rare relative to the intersections it speeds up.
    const auto size = static_cast<std::uint64_t>(n);
    TidRep stay = TidRep::kSparse;
    if (n > 0 && (size << 10) >= universe) {
      stay = TidRep::kDense;
    } else if (n > 0 && (size << 13) >= universe) {
      stay = TidRep::kChunked;
    }
    if (stay > target) target = stay;
    if (target >= rep_) return;
  }
  // Move the data, from the current representation to the target.
  switch (target) {
    case TidRep::kSparse:
      tids_.clear();
      tids_.reserve(n);
      if (rep_ == TidRep::kDense) {
        bits_.append_to(tids_);
      } else {
        chunks_.append_to(tids_);
      }
      break;
    case TidRep::kChunked:
      if (rep_ == TidRep::kSparse) {
        chunks_.assign(tids_, universe);
      } else {
        chunks_.assign_from_words(bits_.words(), universe, bits_.count());
      }
      break;
    case TidRep::kDense:
      if (rep_ == TidRep::kSparse) {
        bits_.assign(tids_, universe);
      } else {
        bits_.reset(universe);
        chunks_.write_words(bits_.mutable_words());
        bits_.set_count(chunks_.count());
      }
      break;
  }
  set_rep(target, stats);
}

void TidSet::append_to(TidList& out) const {
  switch (rep_) {
    case TidRep::kSparse:
      out.insert(out.end(), tids_.begin(), tids_.end());
      break;
    case TidRep::kChunked:
      chunks_.append_to(out);
      break;
    case TidRep::kDense:
      bits_.append_to(out);
      break;
  }
}

TidList TidSet::to_tidlist() const {
  TidList out;
  out.reserve(support());
  append_to(out);
  return out;
}

void seed_tidset(std::span<const Tid> tids, Tid universe,
                 IntersectKernel kernel, TidSet& out,
                 IntersectStats* stats) {
  TidRep rep = TidRep::kSparse;
  if (kernel == IntersectKernel::kBitset) {
    rep = TidRep::kDense;
  } else if (kernel == IntersectKernel::kChunked) {
    rep = TidRep::kChunked;
  } else if (kernel == IntersectKernel::kAuto) {
    rep = TidSet::preferred_rep(tids.size(), universe);
  }
  switch (rep) {
    case TidRep::kSparse:
      out.tids_.assign(tids.begin(), tids.end());
      break;
    case TidRep::kChunked:
      out.chunks_.assign(tids, universe);
      break;
    case TidRep::kDense:
      out.bits_.assign(tids, universe);
      break;
  }
  out.rep_ = rep;
  if (stats != nullptr && rep != TidRep::kSparse) ++stats->densified;
}

bool intersect_into(const TidSet& a, const TidSet& b, Count minsup,
                    IntersectKernel kernel, Tid universe, TidSet& out,
                    IntersectStats* stats) {
  ECLAT_DCHECK(&out != &a && &out != &b);
  ECLAT_DCHECK(kernel_holds(kernel, a.rep_) && kernel_holds(kernel, b.rep_));
  if (stats != nullptr) ++stats->intersections;
  const TidRep ar = a.rep_;
  const TidRep br = b.rep_;
  bool ok = false;
  if (ar == TidRep::kSparse && br == TidRep::kSparse) {
    ok = sparse_intersect_into(
        a.tids_, b.tids_, minsup,
        sparse_algorithm(kernel, a.tids_.size(), b.tids_.size(), minsup),
        out.tids_, stats);
    out.rep_ = TidRep::kSparse;
  } else if (ar == TidRep::kDense && br == TidRep::kDense) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_and_bounded(a.bits_, b.bits_, minsup,
                                      stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    if (stats != nullptr) {
      stats->words_scanned += words;
      if (!ok) ++stats->short_circuited;
    }
  } else if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    ok = out.chunks_.assign_and_bounded(a.chunks_, b.chunks_, minsup, stats);
    out.rep_ = TidRep::kChunked;
  } else if (ar != TidRep::kSparse && br != TidRep::kSparse) {
    // One chunked operand, one flat bitmap.
    const TidSet& chunked = ar == TidRep::kChunked ? a : b;
    const TidSet& dense = ar == TidRep::kChunked ? b : a;
    ok = out.chunks_.assign_and_bits_bounded(chunked.chunks_, dense.bits_,
                                             minsup, stats);
    out.rep_ = TidRep::kChunked;
  } else {
    // Exactly one sparse operand: intersect against the denser side
    // without converting it.
    const TidSet& sparse = ar == TidRep::kSparse ? a : b;
    const TidSet& other = ar == TidRep::kSparse ? b : a;
    if (other.rep_ == TidRep::kDense) {
      // Flat-bitmap lookups are O(1), so per-element probing is optimal.
      ok = probe_into(sparse.tids_, other.bits_, minsup, out.tids_, stats);
    } else {
      // Chunked lookups cost a container search per element; walk the
      // list chunk-slice by chunk-slice instead (linear merge per chunk).
      ok = ChunkedTidList::and_sparse(other.chunks_, sparse.tids_, minsup,
                                      out.tids_, stats);
    }
    out.rep_ = TidRep::kSparse;
  }
  if (ok && kernel == IntersectKernel::kAuto) out.normalize(universe, stats);
  return ok;
}

std::optional<Count> intersect_support(const TidSet& a, const TidSet& b,
                                       Count minsup, IntersectKernel kernel,
                                       IntersectStats* stats) {
  ECLAT_DCHECK(kernel_holds(kernel, a.rep_) && kernel_holds(kernel, b.rep_));
  if (stats != nullptr) ++stats->intersections;
  const TidRep ar = a.rep_;
  const TidRep br = b.rep_;
  if (ar == TidRep::kSparse && br == TidRep::kSparse) {
    return sparse_support(
        a.tids_, b.tids_, minsup,
        sparse_algorithm(kernel, a.tids_.size(), b.tids_.size(), minsup),
        stats);
  }
  if (ar == TidRep::kDense && br == TidRep::kDense) {
    std::uint64_t words = 0;
    const std::optional<std::size_t> count = BitsetTidList::and_count(
        a.bits_, b.bits_, minsup, stats != nullptr ? &words : nullptr);
    if (stats != nullptr) {
      stats->words_scanned += words;
      if (!count) ++stats->short_circuited;
    }
    return as_support(count);
  }
  if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    return as_support(
        ChunkedTidList::and_count(a.chunks_, b.chunks_, minsup, stats));
  }
  if (ar != TidRep::kSparse && br != TidRep::kSparse) {
    const TidSet& chunked = ar == TidRep::kChunked ? a : b;
    const TidSet& dense = ar == TidRep::kChunked ? b : a;
    return as_support(ChunkedTidList::and_count_bits(
        chunked.chunks_, dense.bits_, minsup, stats));
  }
  const TidSet& sparse = ar == TidRep::kSparse ? a : b;
  const TidSet& other = ar == TidRep::kSparse ? b : a;
  if (other.rep_ == TidRep::kDense) {
    return probe_count(sparse.tids_, other.bits_, minsup, stats);
  }
  return as_support(ChunkedTidList::and_sparse_count(
      other.chunks_, sparse.tids_, minsup, stats));
}

bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats) {
  ECLAT_DCHECK(&out != &a && &out != &b);
  ECLAT_DCHECK(kernel_holds(kernel, a.rep_) && kernel_holds(kernel, b.rep_));
  const TidRep ar = a.rep_;
  const TidRep br = b.rep_;
  bool ok = false;
  if (ar == TidRep::kSparse && br == TidRep::kSparse) {
    // The budget bound is dEclat's pruning rule, not an optional
    // optimization, so every kernel keeps it; galloping has no
    // difference analogue, so every kernel merges.
    std::size_t visited = 0;
    ok = difference_bounded_into(a.tids_, b.tids_, budget, out.tids_,
                                 stats != nullptr ? &visited : nullptr);
    out.rep_ = TidRep::kSparse;
    if (stats != nullptr) stats->tids_scanned += visited;
  } else if (ar == TidRep::kDense && br == TidRep::kDense) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_andnot_bounded(a.bits_, b.bits_, budget,
                                         stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    if (stats != nullptr) stats->words_scanned += words;
  } else if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    ok = out.chunks_.assign_andnot_bounded(a.chunks_, b.chunks_, budget,
                                           stats);
    out.rep_ = TidRep::kChunked;
  } else if (ar == TidRep::kChunked && br == TidRep::kDense) {
    ok = out.chunks_.assign_andnot_bits_bounded(a.chunks_, b.bits_, budget,
                                                stats);
    out.rep_ = TidRep::kChunked;
  } else if (ar == TidRep::kChunked) {
    ok = out.chunks_.assign_minus_sparse(a.chunks_, b.tids_, budget, stats);
    out.rep_ = TidRep::kChunked;
  } else if (ar == TidRep::kDense && br == TidRep::kChunked) {
    // Copy the flat bitmap, then clear the chunked container's bits.
    out.bits_.assign_copy(a.bits_);
    const std::size_t cleared =
        b.chunks_.clear_words(out.bits_.mutable_words());
    out.bits_.set_count(a.bits_.count() - cleared);
    out.rep_ = TidRep::kDense;
    ok = out.bits_.count() <= budget;
    if (stats != nullptr) stats->words_scanned += a.bits_.word_count();
  } else if (ar == TidRep::kDense) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_minus_sparse(a.bits_, b.tids_, budget,
                                       stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    if (stats != nullptr) {
      stats->words_scanned += words;
      stats->tids_scanned += b.tids_.size();
    }
  } else {
    // Sparse minuend against a denser subtrahend.
    if (br == TidRep::kDense) {
      ok = probe_minus_into(a.tids_, b.bits_, budget, out.tids_, stats);
    } else {
      ok = ChunkedTidList::sparse_minus(a.tids_, b.chunks_, budget,
                                        out.tids_, stats);
    }
    out.rep_ = TidRep::kSparse;
  }
  if (ok && kernel == IntersectKernel::kAuto) out.normalize(universe, stats);
  return ok;
}

}  // namespace eclat
