// Per-worker scratch arena for the mining recursion. The depth-first
// enumeration of Compute_Frequent keeps at most one child class alive per
// recursion level (paper §5.3), so all tid-sets the recursion will ever
// hold fit in a stack of levels indexed by depth. The arena keeps that
// stack alive across sibling classes, across the top-level equivalence
// classes, and across whole mining calls: after the first few classes
// warm the buffers up, a mining pass performs no tid-list allocations.
//
// Lifetime rules (also documented in DESIGN.md §5):
//   - level(d) references stay valid while deeper levels grow (deque).
//   - Slots inside one level are reused in place: reset() rewinds the
//     `used` cursor without touching capacity, scratch() hands out the
//     next slot for a kernel to fill, commit() keeps it.
//   - A slot handed out by scratch() is only valid until the next
//     scratch()/reset() on the same level; commit() makes it permanent
//     for the lifetime of the enclosing class.
//   - prefix() is a shared push/pop stack: push the class's leading item
//     before recursing into its child class, pop on the way out.
// The arena is strictly per-worker state — sharing one across threads is
// a data race by construction.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "vertical/tidset.hpp"

namespace eclat {

class TidArena {
 public:
  /// One recursion level: the child class under construction. Parallel
  /// arrays indexed by slot — `sets[s]` is the tid-set (or diffset) of
  /// the child whose last item is `suffixes[s]` with support
  /// `supports[s]`. Only the first `used` slots are live.
  struct Level {
    std::vector<Item> suffixes;
    std::vector<Count> supports;
    std::vector<TidSet> sets;
    std::size_t used = 0;

    /// Rewind to empty, keeping every buffer's capacity.
    void reset() { used = 0; }

    /// The next free slot, growing the level if needed. The returned
    /// reference is invalidated by the next scratch()/reset(); call
    /// commit() to keep its contents.
    TidSet& scratch() {
      if (used == sets.size()) {
        sets.emplace_back();
        suffixes.push_back(0);
        supports.push_back(0);
      }
      return sets[used];
    }

    /// Keep the slot last returned by scratch() as a member of the child
    /// class, tagged with its suffix item and support.
    void commit(Item suffix, Count support) {
      ECLAT_DCHECK(used < sets.size());
      suffixes[used] = suffix;
      supports[used] = support;
      ++used;
    }
  };

  /// The level for recursion depth `depth`, created on first use. The
  /// reference stays valid while deeper levels are created.
  Level& level(std::size_t depth) {
    while (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  /// Shared prefix stack: the items common to every member of the class
  /// currently being mined. The full itemset of the child in slot s is
  /// prefix() + suffixes[s].
  Itemset& prefix() { return prefix_; }

  /// Start mining a class whose tids lie in [0, universe): every level
  /// left by an earlier class is dead from here on (its cursor rewinds),
  /// and relieve_memory demotes over this universe.
  void begin_class(Tid universe) {
    universe_ = universe;
    for (Level& level : levels_) level.reset();
  }

  /// Forget all cached state (buffers are dropped, not rewound). Only
  /// needed to release memory; mining calls reset what they use.
  void clear() {
    levels_.clear();
    prefix_.clear();
  }

  /// Bytes retained across all levels (buffer capacities plus tid-set
  /// storage). This is what the exec per-worker memory budget meters.
  std::size_t memory_bytes() const {
    std::size_t total = prefix_.capacity() * sizeof(Item);
    for (const Level& level : levels_) {
      total += level.suffixes.capacity() * sizeof(Item) +
               level.supports.capacity() * sizeof(Count);
      for (const TidSet& set : level.sets) {
        total += sizeof(TidSet) + set.memory_bytes();
      }
    }
    return total;
  }

  /// Memory-pressure relief, called from a MiningGuard checkpoint (so no
  /// scratch() reference is outstanding): slots past each level's `used`
  /// cursor hold only dead data and are released outright; live slots are
  /// demoted to compact chunked containers over the class universe given
  /// to begin_class, when `demote_live` allows it (kAuto/kChunked kernels
  /// — the paper's sparse kernels and kBitset's bitset-only containers
  /// must keep their representation).
  /// Returns the number of sets demoted. The arena stays structurally
  /// valid: mining continues on the demoted sets through the
  /// mixed-representation kernels, next to undemoted siblings over the
  /// same universe.
  std::size_t relieve_memory(bool demote_live) {
    std::size_t demoted = 0;
    for (Level& level : levels_) {
      for (std::size_t s = 0; s < level.sets.size(); ++s) {
        if (s >= level.used) {
          level.sets[s].release();
        } else if (demote_live && level.sets[s].demote_to_chunked(universe_)) {
          ++demoted;
        }
      }
    }
    return demoted;
  }

 private:
  std::deque<Level> levels_;  // deque: stable refs while deeper levels grow
  Itemset prefix_;
  Tid universe_ = 0;  // of the class being mined
};

}  // namespace eclat
