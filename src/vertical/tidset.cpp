#include "vertical/tidset.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// True iff `kernel` runs on sets in representation `rep`: each forced
/// kernel keeps its own representation everywhere, kAuto mixes both.
bool kernel_holds(IntersectKernel kernel, TidRep rep) {
  switch (kernel) {
    case IntersectKernel::kMerge:
    case IntersectKernel::kMergeShortCircuit:
    case IntersectKernel::kGallop:
      return rep == TidRep::kSparse;
    case IntersectKernel::kBitset:
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

/// A chunked support result as the public Count.
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

const ChunkedTidList& TidSet::chunks() const {
  ECLAT_DCHECK(rep_ == TidRep::kChunked);
  return chunks_;
}

void TidSet::assign_sparse(std::span<const Tid> tids) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  tids_.assign(tids.begin(), tids.end());
  rep_ = TidRep::kSparse;
}

void TidSet::assign_chunked(std::span<const Tid> tids, Tid universe,
                            ChunkedTidList::ContainerRule rule) {
  chunks_.assign(tids, universe, rule);
  rep_ = TidRep::kChunked;
}

bool TidSet::demote_to_chunked(Tid universe) {
  using Rule = ChunkedTidList::ContainerRule;
  if (rep_ == TidRep::kChunked) {
    if (chunks_.rule() == Rule::kCompact) return false;
    tids_.clear();
    chunks_.append_to(tids_);
  }
  // Re-encode into fresh pools over the class universe, then drop the
  // vacated buffers so the budget accounting actually improves.
  ChunkedTidList compact;
  compact.assign(tids_, universe, Rule::kCompact);
  chunks_ = std::move(compact);
  tids_ = TidList();
  rep_ = TidRep::kChunked;
  return true;
}

void TidSet::release() {
  tids_ = TidList();
  chunks_ = ChunkedTidList();
  rep_ = TidRep::kSparse;
}

TidRep TidSet::preferred_rep(std::size_t size, Tid universe) {
  const auto n = static_cast<std::uint64_t>(size);
  if (n > 0 && (n << 10) >= universe) return TidRep::kChunked;
  return TidRep::kSparse;
}

void TidSet::normalize(Tid universe, IntersectStats* stats) {
  const auto n = static_cast<std::uint64_t>(support());
  if (rep_ == TidRep::kSparse) {
    if (preferred_rep(n, universe) == TidRep::kSparse) return;
    chunks_.assign(tids_, universe);
    rep_ = TidRep::kChunked;
    if (stats != nullptr) ++stats->densified;
    return;
  }
  // Sparsify only past the stay band: 8x below the entry threshold.
  // Demotion costs a full decode pass of the chunked container, so it has
  // to be rare relative to the intersections it speeds up.
  if (n > 0 && (n << 13) >= universe) return;
  tids_.clear();
  tids_.reserve(n);
  chunks_.append_to(tids_);
  rep_ = TidRep::kSparse;
  if (stats != nullptr) ++stats->sparsified;
}

void TidSet::append_to(TidList& out) const {
  if (rep_ == TidRep::kSparse) {
    out.insert(out.end(), tids_.begin(), tids_.end());
  } else {
    chunks_.append_to(out);
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
  if (kernel == IntersectKernel::kBitset ||
      kernel == IntersectKernel::kChunked) {
    rep = TidRep::kChunked;
  } else if (kernel == IntersectKernel::kAuto) {
    rep = TidSet::preferred_rep(tids.size(), universe);
  }
  if (rep == TidRep::kSparse) {
    out.tids_.assign(tids.begin(), tids.end());
  } else {
    out.chunks_.assign(tids, universe,
                       kernel == IntersectKernel::kBitset
                           ? ChunkedTidList::ContainerRule::kBitsetOnly
                           : ChunkedTidList::ContainerRule::kByDensity);
    if (stats != nullptr) ++stats->densified;
  }
  out.rep_ = rep;
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
  } else if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    ok = out.chunks_.assign_and_bounded(a.chunks_, b.chunks_, minsup, stats);
    out.rep_ = TidRep::kChunked;
  } else {
    // One sparse operand: walk it chunk-slice by chunk-slice against the
    // chunked side (linear merge per chunk) without converting either.
    const TidSet& sparse = ar == TidRep::kSparse ? a : b;
    const TidSet& other = ar == TidRep::kSparse ? b : a;
    ok = ChunkedTidList::and_sparse(other.chunks_, sparse.tids_, minsup,
                                    out.tids_, stats);
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
  if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    return as_support(
        ChunkedTidList::and_count(a.chunks_, b.chunks_, minsup, stats));
  }
  const TidSet& sparse = ar == TidRep::kSparse ? a : b;
  const TidSet& other = ar == TidRep::kSparse ? b : a;
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
  } else if (ar == TidRep::kChunked && br == TidRep::kChunked) {
    ok = out.chunks_.assign_andnot_bounded(a.chunks_, b.chunks_, budget,
                                           stats);
    out.rep_ = TidRep::kChunked;
  } else if (ar == TidRep::kChunked) {
    ok = out.chunks_.assign_minus_sparse(a.chunks_, b.tids_, budget, stats);
    out.rep_ = TidRep::kChunked;
  } else {
    ok = ChunkedTidList::sparse_minus(a.tids_, b.chunks_, budget, out.tids_,
                                      stats);
    out.rep_ = TidRep::kSparse;
  }
  if (ok && kernel == IntersectKernel::kAuto) out.normalize(universe, stats);
  return ok;
}

}  // namespace eclat
