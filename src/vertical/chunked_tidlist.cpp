#include "vertical/chunked_tidlist.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// In-chunk 16-bit value of a tid.
std::uint16_t low16(Tid t) { return static_cast<std::uint16_t>(t & 0xffff); }

bool word_bit(std::span<const std::uint64_t> words, std::uint16_t v) {
  const std::size_t w = v >> 6;
  return w < words.size() &&
         (words[w] >> (v & 63) & std::uint64_t{1}) != 0;
}

/// Most tids an array chunk holds under any container rule: the compact
/// rule keeps arrays up to 4 tids per word of a full 2^16-tid chunk.
constexpr std::size_t kMaxArrayTids = 4 * (std::size_t{1} << 16) / 64;

/// Decode the `card` set bits of `words` into `out` as u16 positions.
/// Only reached when the payload becomes an array container, so `card`
/// is bounded by the array/bitset threshold; it rides the dispatched u32
/// decode and narrows (chunk-local positions always fit 16 bits).
void decode_words_u16(std::span<const std::uint64_t> words, std::size_t card,
                      std::uint16_t* out) {
  ECLAT_CHECK(card <= kMaxArrayTids);
  std::uint32_t buf[kMaxArrayTids];
  const std::size_t k =
      simd::kernels().decode_words(words.data(), words.size(), 0, buf);
  ECLAT_DCHECK(k == card);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = static_cast<std::uint16_t>(buf[i]);
  }
}

/// Σ min(|a_k|, |b_k|) over the chunk keys a and b share: the upper bound
/// on |a ∩ b| checked before any chunk is scanned.
template <typename Chunks>
std::size_t common_chunk_bound(const Chunks& a, const Chunks& b) {
  std::size_t bound = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia].key < b[ib].key) {
      ++ia;
    } else if (b[ib].key < a[ia].key) {
      ++ib;
    } else {
      bound += std::min(a[ia].cardinality, b[ib].cardinality);
      ++ia;
      ++ib;
    }
  }
  return bound;
}

/// How many tids the current chunk must still contribute: minsup less
/// what is already counted and what the later chunks can add at most.
std::size_t chunk_need(Count minsup, std::size_t count, std::size_t rest) {
  const std::size_t have = count + rest;
  return minsup > have ? static_cast<std::size_t>(minsup - have) : 0;
}

/// Words per bound check inside a bitset chunk. The word kernels come
/// from the runtime-dispatched SIMD table, so a chunk's AND runs in
/// blocks and the bound is evaluated between them: a proof either way,
/// so the block size only decides how many words an abort scans first.
constexpr std::size_t kBoundBlockWords = 64;

}  // namespace

std::size_t ChunkedTidList::span_of(std::uint16_t key) const {
  const std::size_t base = std::size_t{key} * kChunkSpan;
  ECLAT_DCHECK(base < universe_);
  return std::min(kChunkSpan, std::size_t{universe_} - base);
}

bool ChunkedTidList::bitset_at(std::uint16_t key, std::size_t card) const {
  switch (rule_) {
    case ContainerRule::kByDensity:
      return card * kBitsetDensity >= span_of(key);
    case ContainerRule::kBitsetOnly:
      return card > 0;
    case ContainerRule::kCompact:
      // 2 bytes per array element against 8 per bitset word.
      return card > 4 * words_for(key);
  }
  ECLAT_UNREACHABLE("unknown ContainerRule");
}

bool ChunkedTidList::keeps_bitset(std::uint16_t key, std::size_t card) const {
  if (rule_ == ContainerRule::kBitsetOnly) return true;
  if (rule_ == ContainerRule::kCompact) return bitset_at(key, card);
  return card * kBitsetDensity * kStayBand >= span_of(key);
}

std::span<const std::uint16_t> ChunkedTidList::array_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kArray);
  return {u16_pool_.data() + c.offset, c.cardinality};
}

std::span<const std::uint64_t> ChunkedTidList::words_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kBitset);
  return {word_pool_.data() + c.offset, words_for(c.key)};
}

void ChunkedTidList::reset(Tid universe, ContainerRule rule) {
  chunks_.clear();
  u16_pool_.clear();
  words_used_ = 0;
  universe_ = universe;
  count_ = 0;
  rule_ = rule;
}

void ChunkedTidList::assign(std::span<const Tid> tids, Tid universe,
                            ContainerRule rule) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  ECLAT_DCHECK(tids.empty() || tids.back() < universe);
  reset(universe, rule);
  const std::size_t n = tids.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint16_t key = static_cast<std::uint16_t>(tids[i] >> 16);
    std::size_t j = i + 1;
    while (j < n && (tids[j] >> 16) == key) ++j;
    const std::size_t card = j - i;
    if (bitset_at(key, card)) {
      const std::uint32_t offset = stage_zeroed_words(key);
      for (std::size_t k = i; k < j; ++k) {
        const std::uint16_t v = low16(tids[k]);
        word_pool_[offset + (v >> 6)] |= std::uint64_t{1} << (v & 63);
      }
      chunks_.push_back({key, ContainerType::kBitset, offset,
                         static_cast<std::uint32_t>(card)});
    } else {
      const std::uint32_t offset = stage_u16(card);
      for (std::size_t k = i; k < j; ++k) {
        u16_pool_[offset + (k - i)] = low16(tids[k]);
      }
      chunks_.push_back({key, ContainerType::kArray, offset,
                         static_cast<std::uint32_t>(card)});
    }
    count_ += card;
    i = j;
  }
}

ChunkedTidList::ContainerHistogram ChunkedTidList::histogram() const {
  ContainerHistogram h;
  for (const Chunk& c : chunks_) {
    if (c.type == ContainerType::kArray) {
      ++h.array;
    } else {
      ++h.bitset;
    }
  }
  return h;
}

bool ChunkedTidList::test(Tid t) const {
  if (t >= universe_) return false;
  const auto key = static_cast<std::uint16_t>(t >> 16);
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const Chunk& c, std::uint16_t k) { return c.key < k; });
  if (it == chunks_.end() || it->key != key) return false;
  const std::uint16_t v = low16(t);
  if (it->type == ContainerType::kBitset) return word_bit(words_of(*it), v);
  const auto av = array_of(*it);
  return std::binary_search(av.begin(), av.end(), v);
}

void ChunkedTidList::append_to(TidList& out) const {
  for (const Chunk& c : chunks_) {
    const Tid base = static_cast<Tid>(c.key) << 16;
    if (c.type == ContainerType::kArray) {
      for (const std::uint16_t v : array_of(c)) out.push_back(base | v);
      continue;
    }
    const auto ws = words_of(c);
    const std::size_t old = out.size();
    out.resize(old + c.cardinality);
    const std::size_t decoded = simd::kernels().decode_words(
        ws.data(), ws.size(), base, out.data() + old);
    ECLAT_DCHECK(decoded == c.cardinality);
    (void)decoded;
  }
}

TidList ChunkedTidList::to_tidlist() const {
  TidList out;
  out.reserve(count_);
  append_to(out);
  return out;
}

std::uint32_t ChunkedTidList::stage_u16(std::size_t capacity) {
  const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
  u16_pool_.resize(offset + capacity);
  return offset;
}

void ChunkedTidList::emit_array(std::uint16_t key, std::uint32_t offset,
                                std::size_t card) {
  if (card == 0) {
    u16_pool_.resize(offset);
    return;
  }
  if (bitset_at(key, card)) {
    const std::uint32_t woff = stage_zeroed_words(key);
    for (std::size_t k = 0; k < card; ++k) {
      const std::uint16_t v = u16_pool_[offset + k];
      word_pool_[woff + (v >> 6)] |= std::uint64_t{1} << (v & 63);
    }
    u16_pool_.resize(offset);
    chunks_.push_back({key, ContainerType::kBitset, woff,
                       static_cast<std::uint32_t>(card)});
  } else {
    u16_pool_.resize(offset + card);
    chunks_.push_back({key, ContainerType::kArray, offset,
                       static_cast<std::uint32_t>(card)});
  }
  count_ += card;
}

std::uint32_t ChunkedTidList::stage_words(std::uint16_t key) {
  const auto offset = static_cast<std::uint32_t>(words_used_);
  words_used_ += words_for(key);
  if (word_pool_.size() < words_used_) word_pool_.resize(words_used_);
  return offset;
}

std::uint32_t ChunkedTidList::stage_zeroed_words(std::uint16_t key) {
  const std::uint32_t offset = stage_words(key);
  std::fill(word_pool_.begin() + offset, word_pool_.begin() + words_used_,
            std::uint64_t{0});
  return offset;
}

void ChunkedTidList::emit_words(std::uint16_t key, std::uint32_t offset,
                                std::size_t card) {
  if (card == 0) {
    words_used_ = offset;
    return;
  }
  if (!keeps_bitset(key, card)) {
    const std::uint32_t aoff = stage_u16(card);
    decode_words_u16({word_pool_.data() + offset, words_for(key)}, card,
                     u16_pool_.data() + aoff);
    words_used_ = offset;
    chunks_.push_back({key, ContainerType::kArray, aoff,
                       static_cast<std::uint32_t>(card)});
  } else {
    chunks_.push_back({key, ContainerType::kBitset, offset,
                       static_cast<std::uint32_t>(card)});
  }
  count_ += card;
}

void ChunkedTidList::copy_chunk(const ChunkedTidList& src, const Chunk& c) {
  std::uint32_t offset = 0;
  if (c.type == ContainerType::kArray) {
    offset = stage_u16(c.cardinality);
    std::copy_n(src.u16_pool_.data() + c.offset, c.cardinality,
                u16_pool_.data() + offset);
  } else {
    offset = stage_words(c.key);
    const auto ws = src.words_of(c);
    std::copy(ws.begin(), ws.end(), word_pool_.begin() + offset);
  }
  chunks_.push_back({c.key, c.type, offset, c.cardinality});
  count_ += c.cardinality;
}

bool ChunkedTidList::and_pair(const Chunk& ca, const ChunkedTidList& a,
                              const Chunk& cb, const ChunkedTidList& b,
                              std::size_t need, IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  // Both kernels are symmetric: a bitset operand goes to the chunk-by-words
  // kernel as its word slice, against the other chunk in either container.
  if (cb.type == ContainerType::kBitset) {
    return and_chunk_words(ca, a, b.words_of(cb), need, stats);
  }
  if (ca.type == ContainerType::kBitset) {
    return and_chunk_words(cb, b, a.words_of(ca), need, stats);
  }
  const auto av = a.array_of(ca);
  const auto bv = b.array_of(cb);
  const std::uint32_t off =
      stage_u16(std::min(av.size(), bv.size()) + kU16Slack);
  std::size_t visited = 0;
  const std::size_t k = simd::kernels().intersect_u16(
      av.data(), av.size(), bv.data(), bv.size(), u16_pool_.data() + off,
      stats != nullptr ? &visited : nullptr);
  if (stats != nullptr) stats->tids_scanned += visited;
  emit_array(ca.key, off, k);
  return true;
}

std::optional<std::size_t> ChunkedTidList::and_pair_count(
    const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
    const ChunkedTidList& b, std::size_t need, IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  if (cb.type == ContainerType::kBitset) {
    return and_chunk_words_count(ca, a, b.words_of(cb), need, stats);
  }
  if (ca.type == ContainerType::kBitset) {
    return and_chunk_words_count(cb, b, a.words_of(ca), need, stats);
  }
  const auto av = a.array_of(ca);
  const auto bv = b.array_of(cb);
  std::size_t visited = 0;
  const std::size_t k = simd::kernels().intersect_u16_count(
      av.data(), av.size(), bv.data(), bv.size(),
      stats != nullptr ? &visited : nullptr);
  if (stats != nullptr) stats->tids_scanned += visited;
  return k;
}

bool ChunkedTidList::assign_and_bounded(const ChunkedTidList& a,
                                        const ChunkedTidList& b, Count minsup,
                                        IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_, a.rule_);
  std::size_t bound = common_chunk_bound(a.chunks_, b.chunks_);
  if (bound < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    const Chunk& cb = b.chunks_[ib];
    if (ca.key < cb.key) {
      ++ia;
      continue;
    }
    if (cb.key < ca.key) {
      ++ib;
      continue;
    }
    bound -= std::min(ca.cardinality, cb.cardinality);
    ++ia;
    ++ib;
    // The bound is a proof, so checking it between chunks and every 64
    // words inside a bitset chunk never changes the boolean outcome,
    // just how early an abort fires.
    if (!and_pair(ca, a, cb, b, chunk_need(minsup, count_, bound), stats) ||
        count_ + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
  }
  return count_ >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_count(const ChunkedTidList& a,
                                                     const ChunkedTidList& b,
                                                     Count minsup,
                                                     IntersectStats* stats) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  std::size_t bound = common_chunk_bound(a.chunks_, b.chunks_);
  if (bound < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  std::size_t count = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    const Chunk& cb = b.chunks_[ib];
    if (ca.key < cb.key) {
      ++ia;
      continue;
    }
    if (cb.key < ca.key) {
      ++ib;
      continue;
    }
    bound -= std::min(ca.cardinality, cb.cardinality);
    ++ia;
    ++ib;
    const std::optional<std::size_t> k = and_pair_count(
        ca, a, cb, b, chunk_need(minsup, count, bound), stats);
    if (k) count += *k;
    if (!k || count + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
  }
  if (count < minsup) return std::nullopt;
  return count;
}

bool ChunkedTidList::andnot_pair(const Chunk& ca, const ChunkedTidList& a,
                                 const Chunk& cb, const ChunkedTidList& b,
                                 std::size_t allowance,
                                 IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  if (cb.type == ContainerType::kBitset) {
    return andnot_chunk_words(ca, a, b.words_of(cb), allowance, stats);
  }
  const auto bv = b.array_of(cb);
  andnot_chunk_sparse(
      ca, a, bv.size(), [bv](std::size_t i) { return bv[i]; }, stats);
  return true;
}

bool ChunkedTidList::assign_andnot_bounded(const ChunkedTidList& a,
                                           const ChunkedTidList& b,
                                           std::size_t budget,
                                           IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_, a.rule_);
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    while (ib < b.chunks_.size() && b.chunks_[ib].key < ca.key) ++ib;
    if (ib < b.chunks_.size() && b.chunks_[ib].key == ca.key) {
      if (!andnot_pair(ca, a, b.chunks_[ib], b, budget - count_, stats)) {
        return false;
      }
      ++ib;
    } else {
      copy_chunk(a, ca);
    }
    ++ia;
    // Chunk-granular budget check (the diffset pruning bound).
    if (count_ > budget) return false;
  }
  return true;
}

bool ChunkedTidList::and_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                                     std::span<const std::uint64_t> bw,
                                     std::size_t need,
                                     IntersectStats* stats) {
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      if (word_bit(bw, v)) u16_pool_[off + k++] = v;
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    emit_array(ca.key, off, k);
    return true;
  }
  const auto aw = a.words_of(ca);
  ECLAT_DCHECK(aw.size() == bw.size());
  const std::size_t n = aw.size();
  const std::uint32_t off = stage_words(ca.key);
  const simd::KernelTable& kt = simd::kernels();
  std::size_t k = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t m = std::min(kBoundBlockWords, n - w);
    k += static_cast<std::size_t>(kt.and_words(
        aw.data() + w, bw.data() + w, word_pool_.data() + off + w, m));
    // Even if every remaining bit survives, the chunk caps at
    // k + 64 · (words remaining).
    if (k + 64 * (n - w - m) < need) {
      if (stats != nullptr) stats->words_scanned += w + m;
      words_used_ = off;
      return false;
    }
  }
  if (stats != nullptr) stats->words_scanned += n;
  emit_words(ca.key, off, k);
  return true;
}

std::optional<std::size_t> ChunkedTidList::and_chunk_words_count(
    const Chunk& ca, const ChunkedTidList& a,
    std::span<const std::uint64_t> bw, std::size_t need,
    IntersectStats* stats) {
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      k += static_cast<std::size_t>(word_bit(bw, v));
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    return k;
  }
  const auto aw = a.words_of(ca);
  ECLAT_DCHECK(aw.size() == bw.size());
  const std::size_t n = aw.size();
  const simd::KernelTable& kt = simd::kernels();
  std::size_t k = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t m = std::min(kBoundBlockWords, n - w);
    k += static_cast<std::size_t>(
        kt.and_words(aw.data() + w, bw.data() + w, nullptr, m));
    if (k + 64 * (n - w - m) < need) {
      if (stats != nullptr) stats->words_scanned += w + m;
      return std::nullopt;
    }
  }
  if (stats != nullptr) stats->words_scanned += n;
  return k;
}

bool ChunkedTidList::andnot_chunk_words(const Chunk& ca,
                                        const ChunkedTidList& a,
                                        std::span<const std::uint64_t> bw,
                                        std::size_t allowance,
                                        IntersectStats* stats) {
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      if (!word_bit(bw, v)) u16_pool_[off + k++] = v;
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    emit_array(ca.key, off, k);
    return true;
  }
  const auto aw = a.words_of(ca);
  ECLAT_DCHECK(aw.size() == bw.size());
  const std::size_t n = aw.size();
  const std::uint32_t off = stage_words(ca.key);
  const simd::KernelTable& kt = simd::kernels();
  std::size_t k = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t m = std::min(kBoundBlockWords, n - w);
    k += static_cast<std::size_t>(kt.andnot_words(
        aw.data() + w, bw.data() + w, word_pool_.data() + off + w, m));
    if (k > allowance) {
      if (stats != nullptr) stats->words_scanned += w + m;
      words_used_ = off;
      return false;
    }
  }
  if (stats != nullptr) stats->words_scanned += n;
  emit_words(ca.key, off, k);
  return true;
}

template <typename Get>
void ChunkedTidList::andnot_chunk_sparse(const Chunk& ca,
                                         const ChunkedTidList& a,
                                         std::size_t bn, const Get& get,
                                         IntersectStats* stats) {
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < av.size()) {
      if (j == bn || av[i] < get(j)) {
        u16_pool_[off + k++] = av[i];
        ++i;
      } else if (get(j) < av[i]) {
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    if (stats != nullptr) stats->tids_scanned += i + j;
    emit_array(ca.key, off, k);
    return;
  }
  // Bitset minuend: copy its words into the staged output and clear the
  // subtrahend's bits in place.
  const auto aw = a.words_of(ca);
  const std::uint32_t off = stage_words(ca.key);
  std::uint64_t* dst = word_pool_.data() + off;
  std::copy(aw.begin(), aw.end(), dst);
  std::size_t k = ca.cardinality;
  for (std::size_t j = 0; j < bn; ++j) {
    const std::uint16_t v = get(j);
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    k -= static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
    dst[v >> 6] &= ~bit;
  }
  if (stats != nullptr) {
    stats->words_scanned += aw.size();
    stats->tids_scanned += bn;
  }
  emit_words(ca.key, off, k);
}

bool ChunkedTidList::assign_minus_sparse(const ChunkedTidList& a,
                                         std::span<const Tid> b,
                                         std::size_t budget,
                                         IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(is_valid_tidlist(b));
  reset(a.universe_, a.rule_);
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je == jb) {
      copy_chunk(a, ca);
    } else {
      const auto sub = b.subspan(jb, je - jb);
      andnot_chunk_sparse(
          ca, a, sub.size(),
          [sub](std::size_t i) { return low16(sub[i]); }, stats);
      jb = je;
    }
    if (count_ > budget) return false;
  }
  return true;
}

bool ChunkedTidList::and_sparse(const ChunkedTidList& a,
                                std::span<const Tid> b, Count minsup,
                                TidList& out, IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  out.clear();
  if (std::min<std::size_t>(a.count_, b.size()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;  // b tids in chunks a lacks
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      if (ca.type == ContainerType::kArray) {
        const auto av = a.array_of(ca);
        std::size_t i = 0;
        std::size_t k = 0;
        while (i < av.size() && k < sub.size()) {
          const std::uint16_t v = low16(sub[k]);
          if (av[i] < v) {
            ++i;
          } else if (av[i] > v) {
            ++k;
          } else {
            out.push_back(sub[k]);
            ++i;
            ++k;
          }
        }
        if (stats != nullptr) stats->tids_scanned += i;
      } else {
        const auto bw = a.words_of(ca);
        for (const Tid t : sub) {
          if (word_bit(bw, low16(t))) out.push_back(t);
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    // Every unmatched b tid so far is settled; only the tail can still
    // contribute.
    if (out.size() + (b.size() - jb) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
    if (jb == b.size()) break;
  }
  return out.size() >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_sparse_count(
    const ChunkedTidList& a, std::span<const Tid> b, Count minsup,
    IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  if (std::min<std::size_t>(a.count_, b.size()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  std::size_t count = 0;
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      if (ca.type == ContainerType::kArray) {
        const auto av = a.array_of(ca);
        std::size_t i = 0;
        std::size_t k = 0;
        while (i < av.size() && k < sub.size()) {
          const std::uint16_t v = low16(sub[k]);
          if (av[i] < v) {
            ++i;
          } else if (av[i] > v) {
            ++k;
          } else {
            ++count;
            ++i;
            ++k;
          }
        }
        if (stats != nullptr) stats->tids_scanned += i;
      } else {
        const auto bw = a.words_of(ca);
        for (const Tid t : sub) {
          count += static_cast<std::size_t>(word_bit(bw, low16(t)));
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    if (count + (b.size() - jb) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
    if (jb == b.size()) break;
  }
  if (count < minsup) return std::nullopt;
  return count;
}

bool ChunkedTidList::sparse_minus(std::span<const Tid> b,
                                  const ChunkedTidList& a, std::size_t budget,
                                  TidList& out, IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  out.clear();
  // Quick reject: even if every tid of a hits, |b| − a.count survive.
  if (b.size() > budget + a.count_) return false;
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) {
      out.push_back(b[jb]);  // b tids in chunks a lacks pass through
      ++jb;
    }
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      if (ca.type == ContainerType::kArray) {
        const auto av = a.array_of(ca);
        std::size_t i = 0;
        for (const Tid t : sub) {
          const std::uint16_t v = low16(t);
          while (i < av.size() && av[i] < v) ++i;
          if (i >= av.size() || av[i] != v) out.push_back(t);
        }
        if (stats != nullptr) stats->tids_scanned += i;
      } else {
        const auto bw = a.words_of(ca);
        for (const Tid t : sub) {
          if (!word_bit(bw, low16(t))) out.push_back(t);
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    if (out.size() > budget) return false;
    if (jb == b.size()) break;
  }
  for (; jb < b.size(); ++jb) out.push_back(b[jb]);
  return out.size() <= budget;
}

}  // namespace eclat
