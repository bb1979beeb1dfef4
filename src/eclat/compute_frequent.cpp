#include "eclat/compute_frequent.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace eclat {

Tid class_universe(const std::vector<Atom>& class_atoms) {
  Tid universe = 0;
  for (const Atom& atom : class_atoms) {
    if (!atom.tids.empty()) {
      universe = std::max(universe, atom.tids.back() + 1);
    }
  }
  return universe;
}

std::optional<TidList> intersect_with_kernel(const TidList& a,
                                             const TidList& b, Count minsup,
                                             IntersectKernel kernel,
                                             IntersectStats* stats) {
  Tid universe = 0;
  if (!a.empty()) universe = a.back() + 1;
  if (!b.empty()) universe = std::max(universe, b.back() + 1);
  TidSet sa;
  TidSet sb;
  TidSet result;
  seed_tidset(a, universe, kernel, sa, stats);
  seed_tidset(b, universe, kernel, sb, stats);
  if (!intersect_into(sa, sb, minsup, kernel, universe, result, stats)) {
    return std::nullopt;
  }
  return result.to_tidlist();
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

/// Mine the class held in the first `used` slots of arena level `depth`,
/// whose members share the items in arena.prefix(). Emission order is the
/// classical recursive one: for each leading atom i, every frequent join
/// (i, j) in j order, then atom i's child class mined to completion
/// before atom i+1.
void mine(TidArena& arena, std::size_t depth, Count minsup,
          IntersectKernel kernel, Tid universe,
          std::vector<FrequentItemset>& out,
          std::vector<std::size_t>& size_histogram, IntersectStats* stats,
          MiningGuard* guard) {
  TidArena::Level& cur = arena.level(depth);
  TidArena::Level& next = arena.level(depth + 1);
  const std::size_t n = cur.used;
  Itemset& prefix = arena.prefix();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // One guard checkpoint per leading atom: the work in between (one row
    // of intersections plus the child-class recursion entry) is bounded,
    // so a cancellation or budget check is never starved.
    if (guard != nullptr) guard->checkpoint();
    prefix.push_back(cur.suffixes[i]);
    if (i + 2 == n) {
      // Single join (i, n-1) whose child class is at most a singleton —
      // it can never recurse, so evaluate support without materializing.
      const std::optional<Count> support = intersect_support(
          cur.sets[i], cur.sets[n - 1], minsup, kernel, stats);
      if (support) {
        emit(prefix, cur.suffixes[n - 1], *support, out, size_histogram);
      }
    } else {
      next.reset();
      for (std::size_t j = i + 1; j < n; ++j) {
        TidSet& slot = next.scratch();
        if (!intersect_into(cur.sets[i], cur.sets[j], minsup, kernel,
                            universe, slot, stats)) {
          continue;
        }
        const Count support = slot.support();
        emit(prefix, cur.suffixes[j], support, out, size_histogram);
        next.commit(cur.suffixes[j], support);
      }
      if (next.used >= 2) {
        mine(arena, depth + 1, minsup, kernel, universe, out,
             size_histogram, stats, guard);
      }
    }
    prefix.pop_back();
  }
}

}  // namespace

void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      std::vector<FrequentItemset>& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats, MiningGuard* guard) {
  if (class_atoms.size() < 2) return;
  const Tid universe = class_universe(class_atoms);
  arena.begin_class(universe);
  if (guard != nullptr) guard->checkpoint();
#if ECLAT_DCHECKS_ENABLED
  for (const Atom& atom : class_atoms) {
    ECLAT_DCHECK(atom.items.size() == class_atoms.front().items.size());
    ECLAT_DCHECK(std::equal(atom.items.begin(), atom.items.end() - 1,
                            class_atoms.front().items.begin()));
  }
#endif

  // Seed level 0 with the atoms in the kernel's preferred representation.
  TidArena::Level& root = arena.level(0);
  for (const Atom& atom : class_atoms) {
    TidSet& slot = root.scratch();
    seed_tidset(atom.tids, universe, kernel, slot, stats);
    root.commit(atom.items.back(), atom.support());
  }

  Itemset& prefix = arena.prefix();
  prefix.assign(class_atoms.front().items.begin(),
                class_atoms.front().items.end() - 1);
  mine(arena, 0, minsup, kernel, universe, out, size_histogram, stats,
       guard);
  prefix.clear();
}

void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel,
                      std::vector<FrequentItemset>& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats) {
  TidArena arena;
  compute_frequent(class_atoms, minsup, kernel, arena, out, size_histogram,
                   stats);
}

}  // namespace eclat
