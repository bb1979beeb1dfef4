#include "eclat/diffsets.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace eclat {

std::optional<TidList> difference_bounded(std::span<const Tid> a,
                                          std::span<const Tid> b,
                                          std::size_t max_size) {
  TidList out;
  if (!difference_bounded_into(a, b, max_size, out)) return std::nullopt;
  return out;
}

namespace {

void emit(const Itemset& prefix, Item suffix, Count support,
          std::vector<FrequentItemset>& out,
          std::vector<std::size_t>& size_histogram) {
  const std::size_t size = prefix.size() + 1;
  if (size_histogram.size() <= size) size_histogram.resize(size + 1, 0);
  ++size_histogram[size];
  FrequentItemset& found = out.emplace_back();
  found.items.reserve(size);
  found.items.assign(prefix.begin(), prefix.end());
  found.items.push_back(suffix);
  found.support = support;
}

/// Mine the diffset class in arena level `depth`: slot s holds the
/// diffset d(P·suffixes[s]) with support supports[s]. Joins run in the
/// diffset orientation d(PXY) = d(PY) \ d(PX), i.e. operands (j, i).
void mine(TidArena& arena, std::size_t depth, Count minsup,
          IntersectKernel kernel, Tid universe,
          std::vector<FrequentItemset>& out,
          std::vector<std::size_t>& size_histogram, IntersectStats* stats) {
  TidArena::Level& cur = arena.level(depth);
  TidArena::Level& next = arena.level(depth + 1);
  const std::size_t n = cur.used;
  Itemset& prefix = arena.prefix();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ECLAT_DCHECK(cur.supports[i] >= minsup);
    const std::size_t budget = cur.supports[i] - minsup;
    prefix.push_back(cur.suffixes[i]);
    next.reset();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stats != nullptr) ++stats->intersections;
      TidSet& slot = next.scratch();
      if (!difference_into(cur.sets[j], cur.sets[i], budget, kernel,
                           universe, slot, stats)) {
        if (stats != nullptr) ++stats->short_circuited;
        continue;
      }
      const Count support = cur.supports[i] - slot.support();
      emit(prefix, cur.suffixes[j], support, out, size_histogram);
      next.commit(cur.suffixes[j], support);
    }
    if (next.used >= 2) {
      mine(arena, depth + 1, minsup, kernel, universe, out, size_histogram,
           stats);
    }
    prefix.pop_back();
  }
}

}  // namespace

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  if (class_atoms.size() < 2) return;
  const Tid universe = class_universe(class_atoms);
  arena.begin_class(universe);

  // Seed level 0 with the atoms' *tid-lists*; the representation switch
  // happens at the first join below.
  TidArena::Level& root = arena.level(0);
  for (const Atom& atom : class_atoms) {
    TidSet& slot = root.scratch();
    seed_tidset(atom.tids, universe, kernel, slot, stats);
    root.commit(atom.items.back(), atom.support());
  }

  Itemset& prefix = arena.prefix();
  prefix.assign(class_atoms.front().items.begin(),
                class_atoms.front().items.end() - 1);

  // First join switches representation: d(XY) = t(X) \ t(Y) — note the
  // (i, j) orientation here versus (j, i) in the diffset recursion.
  TidArena::Level& next = arena.level(1);
  const std::size_t n = root.used;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Count parent_support = root.supports[i];
    if (parent_support < minsup) continue;  // defensive
    const std::size_t budget = parent_support - minsup;
    prefix.push_back(root.suffixes[i]);
    next.reset();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (stats != nullptr) ++stats->intersections;
      TidSet& slot = next.scratch();
      if (!difference_into(root.sets[i], root.sets[j], budget, kernel,
                           universe, slot, stats)) {
        if (stats != nullptr) ++stats->short_circuited;
        continue;
      }
      const Count support = parent_support - slot.support();
      emit(prefix, root.suffixes[j], support, out, size_histogram);
      next.commit(root.suffixes[j], support);
    }
    if (next.used >= 2) {
      mine(arena, 1, minsup, kernel, universe, out, size_histogram, stats);
    }
    prefix.pop_back();
  }
  prefix.clear();
}

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  TidArena arena;
  compute_frequent_diffsets(class_atoms, minsup,
                            IntersectKernel::kMergeShortCircuit, arena, out,
                            size_histogram, stats);
}

}  // namespace eclat
