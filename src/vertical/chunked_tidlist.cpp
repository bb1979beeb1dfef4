#include "vertical/chunked_tidlist.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// In-chunk 16-bit value of a tid.
std::uint16_t low16(Tid t) { return static_cast<std::uint16_t>(t & 0xffff); }

std::uint64_t mask_from(unsigned bit) { return ~std::uint64_t{0} << bit; }
std::uint64_t mask_upto(unsigned bit) {
  return bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (bit + 1)) - 1);
}

bool word_bit(std::span<const std::uint64_t> words, std::uint16_t v) {
  const std::size_t w = v >> 6;
  return w < words.size() &&
         (words[w] >> (v & 63) & std::uint64_t{1}) != 0;
}

/// popcount of words restricted to bit positions [start, last].
std::size_t popcount_range(std::span<const std::uint64_t> words,
                           std::uint16_t start, std::uint16_t last) {
  const std::size_t w0 = start >> 6;
  const std::size_t w1 = last >> 6;
  if (w0 >= words.size()) return 0;
  if (w0 == w1) {
    return static_cast<std::size_t>(
        std::popcount(words[w0] & mask_from(start & 63) & mask_upto(last & 63)));
  }
  std::size_t count =
      static_cast<std::size_t>(std::popcount(words[w0] & mask_from(start & 63)));
  for (std::size_t w = w0 + 1; w < w1 && w < words.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(words[w]));
  }
  if (w1 < words.size()) {
    count += static_cast<std::size_t>(
        std::popcount(words[w1] & mask_upto(last & 63)));
  }
  return count;
}

/// dst |= src restricted to [start, last]; returns bits copied.
std::size_t or_range_from(std::span<const std::uint64_t> src,
                          std::uint64_t* dst, std::uint16_t start,
                          std::uint16_t last) {
  const std::size_t w0 = start >> 6;
  const std::size_t w1 = last >> 6;
  if (w0 >= src.size()) return 0;
  std::size_t count = 0;
  for (std::size_t w = w0; w <= w1 && w < src.size(); ++w) {
    std::uint64_t m = src[w];
    if (w == w0) m &= mask_from(start & 63);
    if (w == w1) m &= mask_upto(last & 63);
    dst[w] |= m;
    count += static_cast<std::size_t>(std::popcount(m));
  }
  return count;
}

/// Set all bits of [start, last] in dst.
void fill_range(std::uint64_t* dst, std::uint16_t start, std::uint16_t last) {
  const std::size_t w0 = start >> 6;
  const std::size_t w1 = last >> 6;
  if (w0 == w1) {
    dst[w0] |= mask_from(start & 63) & mask_upto(last & 63);
    return;
  }
  dst[w0] |= mask_from(start & 63);
  for (std::size_t w = w0 + 1; w < w1; ++w) dst[w] = ~std::uint64_t{0};
  dst[w1] |= mask_upto(last & 63);
}

/// Clear all bits of [start, last] in dst; returns bits cleared.
std::size_t clear_range(std::uint64_t* dst, std::uint16_t start,
                        std::uint16_t last) {
  const std::size_t w0 = start >> 6;
  const std::size_t w1 = last >> 6;
  std::size_t cleared = 0;
  for (std::size_t w = w0; w <= w1; ++w) {
    std::uint64_t m = ~std::uint64_t{0};
    if (w == w0) m &= mask_from(start & 63);
    if (w == w1) m &= mask_upto(last & 63);
    cleared += static_cast<std::size_t>(std::popcount(dst[w] & m));
    dst[w] &= ~m;
  }
  return cleared;
}

/// Decode set bits of `words` into `out` as u16 positions. Only reached
/// when the payload stays an array container, so the result is bounded
/// by the array/bitset threshold; it rides the dispatched u32 decode and
/// narrows (chunk-local positions always fit 16 bits).
std::size_t decode_words_u16(std::span<const std::uint64_t> words,
                             std::uint16_t* out) {
  std::uint32_t buf[1024];
  const std::size_t k =
      simd::kernels().decode_words(words.data(), words.size(), 0, buf);
  ECLAT_DCHECK(k <= 1024);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = static_cast<std::uint16_t>(buf[i]);
  }
  return k;
}

}  // namespace

std::span<const std::uint16_t> ChunkedTidList::array_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kArray);
  return {u16_pool_.data() + c.offset, c.cardinality};
}

std::span<const std::uint16_t> ChunkedTidList::runs_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kRun);
  return {u16_pool_.data() + c.offset, 2 * std::size_t{c.run_count}};
}

std::span<const std::uint64_t> ChunkedTidList::words_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kBitset);
  return {word_pool_.data() + c.offset, kChunkWords};
}

void ChunkedTidList::reset(Tid universe) {
  chunks_.clear();
  u16_pool_.clear();
  word_pool_.clear();
  universe_ = universe;
  count_ = 0;
}

void ChunkedTidList::assign(std::span<const Tid> tids, Tid universe) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  ECLAT_DCHECK(tids.empty() || tids.back() < universe);
  reset(universe);
  const std::size_t n = tids.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint16_t key = static_cast<std::uint16_t>(tids[i] >> 16);
    std::size_t j = i + 1;
    std::uint32_t runs = 1;
    while (j < n && (tids[j] >> 16) == key) {
      if (tids[j] != tids[j - 1] + 1) ++runs;
      ++j;
    }
    const std::size_t card = j - i;
    if (std::size_t{runs} * kRunCompression <= card) {
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + 2 * std::size_t{runs});
      std::size_t w = offset;
      std::uint16_t start = low16(tids[i]);
      for (std::size_t k = i + 1; k <= j; ++k) {
        if (k == j || tids[k] != tids[k - 1] + 1) {
          u16_pool_[w++] = start;
          u16_pool_[w++] = low16(tids[k - 1]);
          if (k < j) start = low16(tids[k]);
        }
      }
      chunks_.push_back({key, ContainerType::kRun, offset,
                         static_cast<std::uint32_t>(card), runs});
    } else if (card >= kBitsetChunkMin) {
      const auto offset = static_cast<std::uint32_t>(word_pool_.size());
      word_pool_.resize(offset + kChunkWords);  // value-init: zeroed
      for (std::size_t k = i; k < j; ++k) {
        const std::uint16_t v = low16(tids[k]);
        word_pool_[offset + (v >> 6)] |= std::uint64_t{1} << (v & 63);
      }
      chunks_.push_back({key, ContainerType::kBitset, offset,
                         static_cast<std::uint32_t>(card), 0});
    } else {
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + card);
      for (std::size_t k = i; k < j; ++k) {
        u16_pool_[offset + (k - i)] = low16(tids[k]);
      }
      chunks_.push_back({key, ContainerType::kArray, offset,
                         static_cast<std::uint32_t>(card), 0});
    }
    count_ += card;
    i = j;
  }
}

void ChunkedTidList::assign_from_words(std::span<const std::uint64_t> words,
                                       Tid universe, std::size_t count) {
  reset(universe);
  // Conversion path: chunks come out array or bitset by cardinality (run
  // structure is only detected on the sorted-list assign). The per-slice
  // popcount rides the dispatched word kernel (self-AND with no output
  // is a pure popcount), so this conversion — which normalize() runs on
  // every dense result that leaves the dense stay band — costs a SIMD
  // scan, not a scalar one.
  const simd::KernelTable& kt = simd::kernels();
  if (count < kBitsetChunkMin) {
    // No chunk can reach the bitset threshold when the whole list is
    // below it, so the popcount pre-pass would only re-derive what the
    // decode returns anyway: decode every slice straight into the array
    // pool in one pass. This is the hot demotion shape — a dense
    // intersection result that fell out of the dense stay band is almost
    // always this sparse.
    u16_pool_.resize(count);
    for (std::size_t w0 = 0; w0 < words.size(); w0 += kChunkWords) {
      const std::size_t wn = std::min(kChunkWords, words.size() - w0);
      const auto card =
          decode_words_u16(words.subspan(w0, wn), u16_pool_.data() + count_);
      if (card == 0) continue;
      chunks_.push_back({static_cast<std::uint16_t>(w0 / kChunkWords),
                         ContainerType::kArray,
                         static_cast<std::uint32_t>(count_),
                         static_cast<std::uint32_t>(card), 0});
      count_ += card;
    }
    ECLAT_DCHECK(count_ == count);
    count_ = count;
    return;
  }
  for (std::size_t w0 = 0; w0 < words.size(); w0 += kChunkWords) {
    const std::size_t wn = std::min(kChunkWords, words.size() - w0);
    const auto slice = words.subspan(w0, wn);
    const auto card = static_cast<std::size_t>(
        kt.and_words(slice.data(), slice.data(), nullptr, wn));
    if (card == 0) continue;
    const auto key = static_cast<std::uint16_t>(w0 / kChunkWords);
    if (card >= kBitsetChunkMin) {
      const auto offset = static_cast<std::uint32_t>(word_pool_.size());
      word_pool_.resize(offset + kChunkWords);
      std::copy(slice.begin(), slice.end(), word_pool_.begin() + offset);
      chunks_.push_back({key, ContainerType::kBitset, offset,
                         static_cast<std::uint32_t>(card), 0});
    } else {
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + card);
      decode_words_u16(slice, u16_pool_.data() + offset);
      chunks_.push_back({key, ContainerType::kArray, offset,
                         static_cast<std::uint32_t>(card), 0});
    }
    count_ += card;
  }
  ECLAT_DCHECK(count_ == count);
  count_ = count;
}

ChunkedTidList::ContainerHistogram ChunkedTidList::histogram() const {
  ContainerHistogram h;
  for (const Chunk& c : chunks_) {
    switch (c.type) {
      case ContainerType::kArray:
        ++h.array;
        break;
      case ContainerType::kBitset:
        ++h.bitset;
        break;
      case ContainerType::kRun:
        ++h.run;
        break;
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
  switch (it->type) {
    case ContainerType::kArray: {
      const auto av = array_of(*it);
      return std::binary_search(av.begin(), av.end(), v);
    }
    case ContainerType::kBitset:
      return word_bit(words_of(*it), v);
    case ContainerType::kRun: {
      const auto rv = runs_of(*it);
      // Last run with start <= v, if any; v is inside iff v <= its last.
      std::size_t lo = 0;
      std::size_t n = rv.size() / 2;
      while (n > 0) {
        const std::size_t half = n / 2;
        if (rv[2 * (lo + half)] <= v) {
          lo += half + 1;
          n -= half + 1;
        } else {
          n = half;
        }
      }
      return lo > 0 && v <= rv[2 * (lo - 1) + 1];
    }
  }
  ECLAT_UNREACHABLE("invalid ContainerType");
}

void ChunkedTidList::append_to(TidList& out) const {
  for (const Chunk& c : chunks_) {
    const Tid base = static_cast<Tid>(c.key) << 16;
    switch (c.type) {
      case ContainerType::kArray:
        for (const std::uint16_t v : array_of(c)) out.push_back(base | v);
        break;
      case ContainerType::kBitset: {
        const auto ws = words_of(c);
        const std::size_t old = out.size();
        out.resize(old + c.cardinality);
        const std::size_t decoded = simd::kernels().decode_words(
            ws.data(), ws.size(), base, out.data() + old);
        ECLAT_DCHECK(decoded == c.cardinality);
        (void)decoded;
        break;
      }
      case ContainerType::kRun: {
        const auto rv = runs_of(c);
        for (std::size_t r = 0; r < rv.size(); r += 2) {
          for (std::uint32_t v = rv[r]; v <= rv[r + 1]; ++v) {
            out.push_back(base | v);
          }
        }
        break;
      }
    }
  }
}

TidList ChunkedTidList::to_tidlist() const {
  TidList out;
  out.reserve(count_);
  append_to(out);
  return out;
}

void ChunkedTidList::write_words(std::span<std::uint64_t> words) const {
  for (const Chunk& c : chunks_) {
    const std::size_t w0 = std::size_t{c.key} * kChunkWords;
    switch (c.type) {
      case ContainerType::kArray:
        for (const std::uint16_t v : array_of(c)) {
          words[w0 + (v >> 6)] |= std::uint64_t{1} << (v & 63);
        }
        break;
      case ContainerType::kBitset: {
        const auto ws = words_of(c);
        const std::size_t wn = std::min(ws.size(), words.size() - w0);
        for (std::size_t w = 0; w < wn; ++w) words[w0 + w] |= ws[w];
        break;
      }
      case ContainerType::kRun: {
        const auto rv = runs_of(c);
        for (std::size_t r = 0; r < rv.size(); r += 2) {
          fill_range(words.data() + w0, rv[r], rv[r + 1]);
        }
        break;
      }
    }
  }
}

std::size_t ChunkedTidList::clear_words(std::span<std::uint64_t> words) const {
  std::size_t cleared = 0;
  for (const Chunk& c : chunks_) {
    const std::size_t w0 = std::size_t{c.key} * kChunkWords;
    std::uint64_t* dst = words.data() + w0;
    switch (c.type) {
      case ContainerType::kArray:
        for (const std::uint16_t v : array_of(c)) {
          const std::uint64_t bit = std::uint64_t{1} << (v & 63);
          cleared += static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
          dst[v >> 6] &= ~bit;
        }
        break;
      case ContainerType::kBitset: {
        const auto ws = words_of(c);
        const std::size_t wn = std::min(ws.size(), words.size() - w0);
        for (std::size_t w = 0; w < wn; ++w) {
          cleared += static_cast<std::size_t>(std::popcount(dst[w] & ws[w]));
          dst[w] &= ~ws[w];
        }
        break;
      }
      case ContainerType::kRun: {
        const auto rv = runs_of(c);
        for (std::size_t r = 0; r < rv.size(); r += 2) {
          cleared += clear_range(dst, rv[r], rv[r + 1]);
        }
        break;
      }
    }
  }
  return cleared;
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
  if (card >= kBitsetChunkMin) {
    const auto woff = static_cast<std::uint32_t>(word_pool_.size());
    word_pool_.resize(woff + kChunkWords);
    for (std::size_t k = 0; k < card; ++k) {
      const std::uint16_t v = u16_pool_[offset + k];
      word_pool_[woff + (v >> 6)] |= std::uint64_t{1} << (v & 63);
    }
    u16_pool_.resize(offset);
    chunks_.push_back({key, ContainerType::kBitset, woff,
                       static_cast<std::uint32_t>(card), 0});
  } else {
    u16_pool_.resize(offset + card);
    chunks_.push_back({key, ContainerType::kArray, offset,
                       static_cast<std::uint32_t>(card), 0});
  }
  count_ += card;
}

std::uint32_t ChunkedTidList::stage_words() {
  const auto offset = static_cast<std::uint32_t>(word_pool_.size());
  word_pool_.resize(offset + kChunkWords);  // value-init: zeroed
  return offset;
}

void ChunkedTidList::emit_words(std::uint16_t key, std::uint32_t offset,
                                std::size_t card) {
  if (card == 0) {
    word_pool_.resize(offset);
    return;
  }
  if (card < kBitsetChunkMin) {
    const std::uint32_t aoff = stage_u16(card);
    decode_words_u16({word_pool_.data() + offset, kChunkWords},
                     u16_pool_.data() + aoff);
    word_pool_.resize(offset);
    chunks_.push_back({key, ContainerType::kArray, aoff,
                       static_cast<std::uint32_t>(card), 0});
  } else {
    chunks_.push_back({key, ContainerType::kBitset, offset,
                       static_cast<std::uint32_t>(card), 0});
  }
  count_ += card;
}

void ChunkedTidList::copy_chunk(const ChunkedTidList& src, const Chunk& c) {
  switch (c.type) {
    case ContainerType::kArray:
    case ContainerType::kRun: {
      const std::size_t len = c.type == ContainerType::kArray
                                  ? c.cardinality
                                  : 2 * std::size_t{c.run_count};
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + len);
      std::copy_n(src.u16_pool_.data() + c.offset, len,
                  u16_pool_.data() + offset);
      chunks_.push_back({c.key, c.type, offset, c.cardinality, c.run_count});
      break;
    }
    case ContainerType::kBitset: {
      const auto offset = static_cast<std::uint32_t>(word_pool_.size());
      word_pool_.resize(offset + kChunkWords);
      std::copy_n(src.word_pool_.data() + c.offset, kChunkWords,
                  word_pool_.data() + offset);
      chunks_.push_back({c.key, c.type, offset, c.cardinality, 0});
      break;
    }
  }
  count_ += c.cardinality;
}

void ChunkedTidList::and_pair(const Chunk& ca, const ChunkedTidList& a,
                              const Chunk& cb, const ChunkedTidList& b,
                              IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  // Normalize so ca.type <= cb.type in the order array < bitset < run
  // (every kernel below is symmetric); classify only after the swap so
  // the pair is counted once.
  if (static_cast<int>(ca.type) > static_cast<int>(cb.type)) {
    and_pair(cb, b, ca, a, stats);
    return;
  }
  const simd::KernelTable& kt = simd::kernels();
  const std::uint16_t key = ca.key;
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    switch (cb.type) {
      case ContainerType::kArray: {
        const auto bv = b.array_of(cb);
        const std::uint32_t off =
            stage_u16(std::min(av.size(), bv.size()) + kU16Slack);
        std::size_t visited = 0;
        const std::size_t k = kt.intersect_u16(
            av.data(), av.size(), bv.data(), bv.size(), u16_pool_.data() + off,
            stats != nullptr ? &visited : nullptr);
        if (stats != nullptr) stats->tids_scanned += visited;
        emit_array(key, off, k);
        return;
      }
      case ContainerType::kBitset: {
        const auto bw = b.words_of(cb);
        const std::uint32_t off = stage_u16(av.size());
        std::size_t k = 0;
        for (const std::uint16_t v : av) {
          if (word_bit(bw, v)) u16_pool_[off + k++] = v;
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        emit_array(key, off, k);
        return;
      }
      case ContainerType::kRun: {
        const auto rv = b.runs_of(cb);
        const std::uint32_t off = stage_u16(av.size());
        std::size_t k = 0;
        std::size_t r = 0;
        for (std::size_t i = 0; i < av.size() && r < rv.size(); /* in body */) {
          if (av[i] < rv[r]) {
            ++i;
          } else if (av[i] > rv[r + 1]) {
            r += 2;
          } else {
            u16_pool_[off + k++] = av[i];
            ++i;
          }
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        emit_array(key, off, k);
        return;
      }
    }
  }
  if (ca.type == ContainerType::kBitset) {
    const auto aw = a.words_of(ca);
    if (cb.type == ContainerType::kBitset) {
      const auto bw = b.words_of(cb);
      const std::uint32_t off = stage_words();
      const std::uint64_t k = kt.and_words(aw.data(), bw.data(),
                                           word_pool_.data() + off,
                                           kChunkWords);
      if (stats != nullptr) stats->words_scanned += kChunkWords;
      emit_words(key, off, static_cast<std::size_t>(k));
      return;
    }
    // bitset ∩ run: copy the bitset's words masked to the runs.
    const auto rv = b.runs_of(cb);
    const std::uint32_t off = stage_words();
    std::size_t k = 0;
    for (std::size_t r = 0; r < rv.size(); r += 2) {
      k += or_range_from(aw, word_pool_.data() + off, rv[r], rv[r + 1]);
    }
    if (stats != nullptr) {
      stats->words_scanned += kChunkWords;
      stats->tids_scanned += rv.size();
    }
    emit_words(key, off, k);
    return;
  }
  // run ∩ run: interval intersection, rendered into a staged bitset
  // (emit_words decodes it back to an array when the result is small).
  const auto av = a.runs_of(ca);
  const auto bv = b.runs_of(cb);
  const std::uint32_t off = stage_words();
  std::size_t k = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < av.size() && j < bv.size()) {
    const std::uint16_t s = std::max(av[i], bv[j]);
    const std::uint16_t e = std::min(av[i + 1], bv[j + 1]);
    if (s <= e) {
      fill_range(word_pool_.data() + off, s, e);
      k += std::size_t{e} - s + 1;
    }
    if (av[i + 1] <= bv[j + 1]) {
      i += 2;
    } else {
      j += 2;
    }
  }
  if (stats != nullptr) stats->tids_scanned += av.size() + bv.size();
  emit_words(key, off, k);
}

std::size_t ChunkedTidList::and_pair_count(const Chunk& ca,
                                           const ChunkedTidList& a,
                                           const Chunk& cb,
                                           const ChunkedTidList& b,
                                           IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  if (static_cast<int>(ca.type) > static_cast<int>(cb.type)) {
    return and_pair_count(cb, b, ca, a, stats);
  }
  const simd::KernelTable& kt = simd::kernels();
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    switch (cb.type) {
      case ContainerType::kArray: {
        const auto bv = b.array_of(cb);
        std::size_t visited = 0;
        const std::size_t k = kt.intersect_u16_count(
            av.data(), av.size(), bv.data(), bv.size(),
            stats != nullptr ? &visited : nullptr);
        if (stats != nullptr) stats->tids_scanned += visited;
        return k;
      }
      case ContainerType::kBitset: {
        const auto bw = b.words_of(cb);
        std::size_t k = 0;
        for (const std::uint16_t v : av) {
          k += static_cast<std::size_t>(word_bit(bw, v));
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        return k;
      }
      case ContainerType::kRun: {
        const auto rv = b.runs_of(cb);
        std::size_t k = 0;
        std::size_t r = 0;
        for (std::size_t i = 0; i < av.size() && r < rv.size(); /* in body */) {
          if (av[i] < rv[r]) {
            ++i;
          } else if (av[i] > rv[r + 1]) {
            r += 2;
          } else {
            ++k;
            ++i;
          }
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        return k;
      }
    }
  }
  if (ca.type == ContainerType::kBitset) {
    const auto aw = a.words_of(ca);
    if (cb.type == ContainerType::kBitset) {
      const auto bw = b.words_of(cb);
      const std::uint64_t k =
          kt.and_words(aw.data(), bw.data(), nullptr, kChunkWords);
      if (stats != nullptr) stats->words_scanned += kChunkWords;
      return static_cast<std::size_t>(k);
    }
    const auto rv = b.runs_of(cb);
    std::size_t k = 0;
    for (std::size_t r = 0; r < rv.size(); r += 2) {
      k += popcount_range(aw, rv[r], rv[r + 1]);
    }
    if (stats != nullptr) {
      stats->words_scanned += kChunkWords;
      stats->tids_scanned += rv.size();
    }
    return k;
  }
  const auto av = a.runs_of(ca);
  const auto bv = b.runs_of(cb);
  std::size_t k = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < av.size() && j < bv.size()) {
    const std::uint16_t s = std::max(av[i], bv[j]);
    const std::uint16_t e = std::min(av[i + 1], bv[j + 1]);
    if (s <= e) k += std::size_t{e} - s + 1;
    if (av[i + 1] <= bv[j + 1]) {
      i += 2;
    } else {
      j += 2;
    }
  }
  if (stats != nullptr) stats->tids_scanned += av.size() + bv.size();
  return k;
}

bool ChunkedTidList::assign_and_bounded(const ChunkedTidList& a,
                                        const ChunkedTidList& b, Count minsup,
                                        IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_);
  // Upper bound on the result: Σ min(|a_k|, |b_k|) over common chunks.
  std::size_t bound = 0;
  {
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
      if (a.chunks_[ia].key < b.chunks_[ib].key) {
        ++ia;
      } else if (b.chunks_[ib].key < a.chunks_[ia].key) {
        ++ib;
      } else {
        bound += std::min(a.chunks_[ia].cardinality,
                          b.chunks_[ib].cardinality);
        ++ia;
        ++ib;
      }
    }
  }
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
    and_pair(ca, a, cb, b, stats);
    ++ia;
    ++ib;
    // Chunk-granular short-circuit: the bound is a proof, so checking it
    // only between chunks never changes the boolean outcome, just how
    // early an abort fires.
    if (count_ + bound < minsup) {
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
  std::size_t bound = 0;
  {
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
      if (a.chunks_[ia].key < b.chunks_[ib].key) {
        ++ia;
      } else if (b.chunks_[ib].key < a.chunks_[ia].key) {
        ++ib;
      } else {
        bound += std::min(a.chunks_[ia].cardinality,
                          b.chunks_[ib].cardinality);
        ++ia;
        ++ib;
      }
    }
  }
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
    count += and_pair_count(ca, a, cb, b, stats);
    ++ia;
    ++ib;
    if (count + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
  }
  if (count < minsup) return std::nullopt;
  return count;
}

void ChunkedTidList::andnot_pair(const Chunk& ca, const ChunkedTidList& a,
                                 const Chunk& cb, const ChunkedTidList& b,
                                 IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  const simd::KernelTable& kt = simd::kernels();
  const std::uint16_t key = ca.key;
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    switch (cb.type) {
      case ContainerType::kArray: {
        const auto bv = b.array_of(cb);
        andnot_chunk_sparse(
            ca, a, bv.size(),
            [bv](std::size_t i) { return bv[i]; }, stats);
        return;
      }
      case ContainerType::kBitset: {
        const auto bw = b.words_of(cb);
        const std::uint32_t off = stage_u16(av.size());
        std::size_t k = 0;
        for (const std::uint16_t v : av) {
          if (!word_bit(bw, v)) u16_pool_[off + k++] = v;
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        emit_array(key, off, k);
        return;
      }
      case ContainerType::kRun: {
        const auto rv = b.runs_of(cb);
        const std::uint32_t off = stage_u16(av.size());
        std::size_t k = 0;
        std::size_t r = 0;
        for (const std::uint16_t v : av) {
          while (r < rv.size() && v > rv[r + 1]) r += 2;
          if (r == rv.size() || v < rv[r]) u16_pool_[off + k++] = v;
        }
        if (stats != nullptr) stats->tids_scanned += av.size();
        emit_array(key, off, k);
        return;
      }
    }
  }
  // Minuend bitset or run: materialize the minuend's words into the
  // staged output and subtract the subtrahend in place.
  const std::uint32_t off = stage_words();
  std::uint64_t* dst = word_pool_.data() + off;
  std::size_t k;
  if (ca.type == ContainerType::kBitset) {
    const auto aw = a.words_of(ca);
    if (cb.type == ContainerType::kBitset) {
      const auto bw = b.words_of(cb);
      k = static_cast<std::size_t>(
          kt.andnot_words(aw.data(), bw.data(), dst, kChunkWords));
      if (stats != nullptr) stats->words_scanned += kChunkWords;
      emit_words(key, off, k);
      return;
    }
    std::copy(aw.begin(), aw.end(), dst);
    k = ca.cardinality;
  } else {
    const auto rv = a.runs_of(ca);
    for (std::size_t r = 0; r < rv.size(); r += 2) {
      fill_range(dst, rv[r], rv[r + 1]);
    }
    k = ca.cardinality;
  }
  switch (cb.type) {
    case ContainerType::kArray:
      for (const std::uint16_t v : b.array_of(cb)) {
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        k -= static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
        dst[v >> 6] &= ~bit;
      }
      if (stats != nullptr) stats->tids_scanned += cb.cardinality;
      break;
    case ContainerType::kBitset: {
      // In-place a &= ~b: out aliases the first operand exactly, which
      // every kernel of the table supports (loads precede the store at
      // each position).
      const auto bw = b.words_of(cb);
      k = static_cast<std::size_t>(
          kt.andnot_words(dst, bw.data(), dst, kChunkWords));
      break;
    }
    case ContainerType::kRun: {
      const auto rv = b.runs_of(cb);
      for (std::size_t r = 0; r < rv.size(); r += 2) {
        k -= clear_range(dst, rv[r], rv[r + 1]);
      }
      break;
    }
  }
  if (stats != nullptr) stats->words_scanned += kChunkWords;
  emit_words(key, off, k);
}

bool ChunkedTidList::assign_andnot_bounded(const ChunkedTidList& a,
                                           const ChunkedTidList& b,
                                           std::size_t budget,
                                           IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_);
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    while (ib < b.chunks_.size() && b.chunks_[ib].key < ca.key) ++ib;
    if (ib < b.chunks_.size() && b.chunks_[ib].key == ca.key) {
      andnot_pair(ca, a, b.chunks_[ib], b, stats);
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

void ChunkedTidList::and_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                                     std::span<const std::uint64_t> bw,
                                     IntersectStats* stats) {
  const simd::KernelTable& kt = simd::kernels();
  switch (ca.type) {
    case ContainerType::kArray: {
      const auto av = a.array_of(ca);
      const std::uint32_t off = stage_u16(av.size());
      std::size_t k = 0;
      for (const std::uint16_t v : av) {
        if (word_bit(bw, v)) u16_pool_[off + k++] = v;
      }
      if (stats != nullptr) stats->tids_scanned += av.size();
      emit_array(ca.key, off, k);
      return;
    }
    case ContainerType::kBitset: {
      const auto aw = a.words_of(ca);
      const std::uint32_t off = stage_words();
      const std::size_t wn = std::min(aw.size(), bw.size());
      // Chunk bits past the universe are never set, so ANDing only the
      // slice's words is exact; the staged words beyond wn stay zero.
      const std::uint64_t k = kt.and_words(aw.data(), bw.data(),
                                           word_pool_.data() + off, wn);
      if (stats != nullptr) stats->words_scanned += wn;
      emit_words(ca.key, off, static_cast<std::size_t>(k));
      return;
    }
    case ContainerType::kRun: {
      const auto rv = a.runs_of(ca);
      const std::uint32_t off = stage_words();
      std::size_t k = 0;
      for (std::size_t r = 0; r < rv.size(); r += 2) {
        k += or_range_from(bw, word_pool_.data() + off, rv[r], rv[r + 1]);
      }
      if (stats != nullptr) {
        stats->words_scanned += bw.size();
        stats->tids_scanned += rv.size();
      }
      emit_words(ca.key, off, k);
      return;
    }
  }
  ECLAT_UNREACHABLE("invalid ContainerType");
}

std::size_t ChunkedTidList::and_chunk_words_count(
    const Chunk& ca, const ChunkedTidList& a,
    std::span<const std::uint64_t> bw, IntersectStats* stats) {
  const simd::KernelTable& kt = simd::kernels();
  switch (ca.type) {
    case ContainerType::kArray: {
      const auto av = a.array_of(ca);
      std::size_t k = 0;
      for (const std::uint16_t v : av) {
        k += static_cast<std::size_t>(word_bit(bw, v));
      }
      if (stats != nullptr) stats->tids_scanned += av.size();
      return k;
    }
    case ContainerType::kBitset: {
      const auto aw = a.words_of(ca);
      const std::size_t wn = std::min(aw.size(), bw.size());
      const std::uint64_t k = kt.and_words(aw.data(), bw.data(), nullptr, wn);
      if (stats != nullptr) stats->words_scanned += wn;
      return static_cast<std::size_t>(k);
    }
    case ContainerType::kRun: {
      const auto rv = a.runs_of(ca);
      std::size_t k = 0;
      for (std::size_t r = 0; r < rv.size(); r += 2) {
        k += popcount_range(bw, rv[r], rv[r + 1]);
      }
      if (stats != nullptr) {
        stats->words_scanned += bw.size();
        stats->tids_scanned += rv.size();
      }
      return k;
    }
  }
  ECLAT_UNREACHABLE("invalid ContainerType");
}

void ChunkedTidList::andnot_chunk_words(const Chunk& ca,
                                        const ChunkedTidList& a,
                                        std::span<const std::uint64_t> bw,
                                        IntersectStats* stats) {
  const simd::KernelTable& kt = simd::kernels();
  switch (ca.type) {
    case ContainerType::kArray: {
      const auto av = a.array_of(ca);
      const std::uint32_t off = stage_u16(av.size());
      std::size_t k = 0;
      for (const std::uint16_t v : av) {
        if (!word_bit(bw, v)) u16_pool_[off + k++] = v;
      }
      if (stats != nullptr) stats->tids_scanned += av.size();
      emit_array(ca.key, off, k);
      return;
    }
    case ContainerType::kBitset: {
      const auto aw = a.words_of(ca);
      const std::uint32_t off = stage_words();
      const std::size_t wn = std::min(aw.size(), bw.size());
      std::uint64_t k = kt.andnot_words(aw.data(), bw.data(),
                                        word_pool_.data() + off, wn);
      // Chunk words past the slice carry bits b cannot contain.
      for (std::size_t w = wn; w < aw.size(); ++w) {
        word_pool_[off + w] = aw[w];
        k += static_cast<std::uint64_t>(std::popcount(aw[w]));
      }
      if (stats != nullptr) stats->words_scanned += wn;
      emit_words(ca.key, off, static_cast<std::size_t>(k));
      return;
    }
    case ContainerType::kRun: {
      const auto rv = a.runs_of(ca);
      const std::uint32_t off = stage_words();
      std::uint64_t* dst = word_pool_.data() + off;
      for (std::size_t r = 0; r < rv.size(); r += 2) {
        fill_range(dst, rv[r], rv[r + 1]);
      }
      const std::size_t wn = std::min(kChunkWords, bw.size());
      const std::uint64_t k = kt.andnot_words(dst, bw.data(), dst, wn);
      std::uint64_t extra = 0;
      for (std::size_t w = wn; w < kChunkWords; ++w) {
        extra += static_cast<std::uint64_t>(std::popcount(dst[w]));
      }
      if (stats != nullptr) {
        stats->words_scanned += kChunkWords;
        stats->tids_scanned += rv.size();
      }
      emit_words(ca.key, off, static_cast<std::size_t>(k + extra));
      return;
    }
  }
  ECLAT_UNREACHABLE("invalid ContainerType");
}

template <typename Get>
void ChunkedTidList::andnot_chunk_sparse(const Chunk& ca,
                                         const ChunkedTidList& a,
                                         std::size_t bn, const Get& get,
                                         IntersectStats* stats) {
  const std::uint16_t key = ca.key;
  switch (ca.type) {
    case ContainerType::kArray: {
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
      emit_array(key, off, k);
      return;
    }
    case ContainerType::kBitset:
    case ContainerType::kRun: {
      const std::uint32_t off = stage_words();
      std::uint64_t* dst = word_pool_.data() + off;
      if (ca.type == ContainerType::kBitset) {
        const auto aw = a.words_of(ca);
        std::copy(aw.begin(), aw.end(), dst);
      } else {
        const auto rv = a.runs_of(ca);
        for (std::size_t r = 0; r < rv.size(); r += 2) {
          fill_range(dst, rv[r], rv[r + 1]);
        }
      }
      std::size_t k = ca.cardinality;
      for (std::size_t j = 0; j < bn; ++j) {
        const std::uint16_t v = get(j);
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        k -= static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
        dst[v >> 6] &= ~bit;
      }
      if (stats != nullptr) {
        stats->words_scanned += kChunkWords;
        stats->tids_scanned += bn;
      }
      emit_words(key, off, k);
      return;
    }
  }
  ECLAT_UNREACHABLE("invalid ContainerType");
}

bool ChunkedTidList::assign_and_bits_bounded(const ChunkedTidList& a,
                                             const BitsetTidList& b,
                                             Count minsup,
                                             IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(a.universe_ == b.universe());
  reset(a.universe_);
  if (std::min(a.count_, b.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  const auto bw = b.words();
  std::size_t bound = a.count_;
  for (const Chunk& ca : a.chunks_) {
    bound -= ca.cardinality;
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    and_chunk_words(ca, a, bw.subspan(w0, wn), stats);
    if (count_ + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
  }
  return count_ >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_count_bits(
    const ChunkedTidList& a, const BitsetTidList& b, Count minsup,
    IntersectStats* stats) {
  ECLAT_DCHECK(a.universe_ == b.universe());
  if (std::min(a.count_, b.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  const auto bw = b.words();
  std::size_t bound = a.count_;
  std::size_t count = 0;
  for (const Chunk& ca : a.chunks_) {
    bound -= ca.cardinality;
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    count += and_chunk_words_count(ca, a, bw.subspan(w0, wn), stats);
    if (count + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
  }
  if (count < minsup) return std::nullopt;
  return count;
}

bool ChunkedTidList::assign_andnot_bits_bounded(const ChunkedTidList& a,
                                                const BitsetTidList& b,
                                                std::size_t budget,
                                                IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(a.universe_ == b.universe());
  reset(a.universe_);
  const auto bw = b.words();
  for (const Chunk& ca : a.chunks_) {
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    andnot_chunk_words(ca, a, bw.subspan(w0, wn), stats);
    if (count_ > budget) return false;
  }
  return true;
}

bool ChunkedTidList::assign_minus_sparse(const ChunkedTidList& a,
                                         std::span<const Tid> b,
                                         std::size_t budget,
                                         IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(is_valid_tidlist(b));
  reset(a.universe_);
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
      switch (ca.type) {
        case ContainerType::kArray: {
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
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            if (word_bit(bw, low16(t))) out.push_back(t);
          }
          break;
        }
        case ContainerType::kRun: {
          const auto rv = a.runs_of(ca);
          std::size_t r = 0;
          for (const Tid t : sub) {
            const std::uint16_t v = low16(t);
            while (r < rv.size() && rv[r + 1] < v) r += 2;
            if (r >= rv.size()) break;
            if (rv[r] <= v) out.push_back(t);
          }
          break;
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
      switch (ca.type) {
        case ContainerType::kArray: {
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
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            count += static_cast<std::size_t>(word_bit(bw, low16(t)));
          }
          break;
        }
        case ContainerType::kRun: {
          const auto rv = a.runs_of(ca);
          std::size_t r = 0;
          for (const Tid t : sub) {
            const std::uint16_t v = low16(t);
            while (r < rv.size() && rv[r + 1] < v) r += 2;
            if (r >= rv.size()) break;
            count += static_cast<std::size_t>(rv[r] <= v);
          }
          break;
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
      switch (ca.type) {
        case ContainerType::kArray: {
          const auto av = a.array_of(ca);
          std::size_t i = 0;
          for (const Tid t : sub) {
            const std::uint16_t v = low16(t);
            while (i < av.size() && av[i] < v) ++i;
            if (i >= av.size() || av[i] != v) out.push_back(t);
          }
          if (stats != nullptr) stats->tids_scanned += i;
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            if (!word_bit(bw, low16(t))) out.push_back(t);
          }
          break;
        }
        case ContainerType::kRun: {
          const auto rv = a.runs_of(ca);
          std::size_t r = 0;
          for (const Tid t : sub) {
            const std::uint16_t v = low16(t);
            while (r < rv.size() && rv[r + 1] < v) r += 2;
            if (r >= rv.size() || rv[r] > v) out.push_back(t);
          }
          break;
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
