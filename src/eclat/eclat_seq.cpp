#include "eclat/eclat_seq.hpp"

#include <algorithm>

#include "apriori/apriori.hpp"
#include "eclat/diffsets.hpp"
#include "eclat/equivalence.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

MiningResult eclat_sequential(const HorizontalDatabase& db,
                              const EclatConfig& config,
                              IntersectStats* stats) {
  MiningResult result;
  const std::span<const Transaction> all(db.transactions());

  // --- Initialization: count 2-itemsets (and, optionally, singletons) in
  // one scan. ---
  TriangleCounter counter(std::max<Item>(db.num_items(), 2));
  counter.count(all);
  ++result.database_scans;

  if (config.include_singletons) {
    const std::vector<Count> item_counts = count_items(all, db.num_items());
    for (Item item = 0; item < db.num_items(); ++item) {
      if (item_counts[item] >= config.minsup) {
        result.itemsets.push_back(
            FrequentItemset{{item}, item_counts[item]});
      }
    }
  }
  const std::size_t l1 = result.itemsets.size();
  result.levels.push_back(LevelStats{
      1, static_cast<std::size_t>(db.num_items()), l1});

  const std::vector<PairKey> frequent_pairs =
      counter.frequent_pairs(config.minsup);
  for (PairKey key : frequent_pairs) {
    result.itemsets.push_back(FrequentItemset{
        {pair_first(key), pair_second(key)}, counter.get(pair_first(key),
                                                         pair_second(key))});
  }

  // --- Transformation: vertical tid-lists for the frequent pairs (second
  // and final horizontal scan). ---
  const PairIndex index(frequent_pairs);
  std::vector<TidList> tidlists = index.invert(all, counter);
  ++result.database_scans;

  // --- Asynchronous phase: mine each equivalence class to completion. ---
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(frequent_pairs);
  std::vector<std::size_t> size_histogram(3, 0);
  size_histogram[2] = frequent_pairs.size();

  // One arena reused across every class: level buffers warm up on the
  // first few classes, after which the recursion allocates nothing.
  TidArena arena;
  for (const EquivalenceClass& eq_class : classes) {
    std::vector<Atom> atoms;
    atoms.reserve(eq_class.members.size());
    for (Item member : eq_class.members) {
      const PairKey key = make_pair_key(eq_class.prefix, member);
      atoms.push_back(Atom{{eq_class.prefix, member},
                           std::move(tidlists[index.slot(key)])});
    }
    if (config.use_diffsets) {
      compute_frequent_diffsets(atoms, config.minsup, config.kernel, arena,
                                result.itemsets, size_histogram, stats);
    } else {
      compute_frequent(atoms, config.minsup, config.kernel, arena,
                       result.itemsets, size_histogram, stats);
    }
  }

  for (std::size_t k = 2; k < size_histogram.size(); ++k) {
    result.levels.push_back(LevelStats{k, 0, size_histogram[k]});
  }

  normalize(result);
  return result;
}

}  // namespace eclat
