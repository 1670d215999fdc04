#ifndef FRA_CORE_LSR_FOREST_H_
#define FRA_CORE_LSR_FOREST_H_

#include <cstdint>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "geo/range.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "util/random.h"

namespace fra {

/// The paper's LSR-Forest (Level Sampling R-tree Forest, Sec. 5): a stack
/// of aggregate R-trees T_0 … T_L where T_0 indexes the silo's full
/// partition and each T_i indexes an independent 1/2 subsample of
/// T_{i-1}'s objects, so level i retains each object with probability
/// 2^-i.
///
/// A local range aggregation query picks the level from the accuracy
/// budget (Lemma 1), answers on the small tree T_l, and rescales by 2^l
/// (Alg. 6) — cutting the average local query time to O(log 1/eps),
/// independent of the partition size.
class LsrForest {
 public:
  struct Options {
    RTree::Options rtree;
    /// Seed for the level-sampling coin flips (Alg. 5 line 4).
    uint64_t seed = 0x5A17F0E57ULL;
    /// Caps the number of levels; -1 builds the full 1 + log2(n) stack.
    /// 1 yields just T_0 (a plain aggregate R-tree).
    int max_levels = -1;
  };

  LsrForest() = default;

  /// Alg. 5: builds T_0 over `objects` and log2(n) successively halved
  /// levels above it.
  static LsrForest Build(const ObjectSet& objects, const Options& options);
  static LsrForest Build(const ObjectSet& objects) {
    return Build(objects, Options());
  }

  /// Alg. 5 with every level built over `grid` (RTree::Build with a
  /// GridSpec), so AggregateByCellAtLevel walks same-cell runs. A silo
  /// passes its grid's spec.
  static LsrForest Build(const ObjectSet& objects, const Options& options,
                         const GridIndex::GridSpec& grid);

  /// Lemma 1 level choice: l = floor(log2(eps^2 * sum0 / (3 ln(2/delta)))),
  /// clamped to [0, max_level]. `sum0` is a rough estimate of the query
  /// result (the aggregation over grid cells intersecting the range).
  static int SelectLevel(double epsilon, double delta, double sum0,
                         int max_level);

  /// Alg. 6: picks level l per Lemma 1, answers on T_l, rescales by 2^l.
  /// `level_used`, when non-null, receives the chosen level; `stats`
  /// collects R-tree traversal counters.
  AggregateSummary ApproximateRangeAggregate(
      const QueryRange& range, double epsilon, double delta, double sum0,
      int* level_used = nullptr, RTree::QueryStats* stats = nullptr) const;

  /// Answers on an explicitly chosen level (rescaled by 2^level); used by
  /// the level-choice ablation. `level` is clamped to the forest height.
  AggregateSummary AggregateAtLevel(const QueryRange& range, int level,
                                    RTree::QueryStats* stats = nullptr) const;

  /// Per-cell variant of AggregateAtLevel: one RTree::RangeAggregateByCell
  /// descent of T_level answers every slot, each rescaled by 2^level. The
  /// NonIID-est boundary cells of one request (Alg. 3) under LSR. An empty
  /// forest answers zero summaries; a non-empty one dies unless it was
  /// built over `slots.grid().spec()`.
  std::vector<AggregateSummary> AggregateByCellAtLevel(
      const QueryRange& range, const CellSlots& slots, int level) const;

  /// Exact local answer from T_0.
  AggregateSummary ExactRangeAggregate(const QueryRange& range) const;

  /// Number of levels (trees); 0 for an empty forest.
  int num_levels() const { return static_cast<int>(trees_.size()); }
  int max_level() const { return num_levels() - 1; }

  const RTree& tree(int level) const { return trees_[level]; }

  /// Objects in the silo's full partition (|T_0|).
  size_t size() const { return trees_.empty() ? 0 : trees_[0].size(); }

  /// Heap bytes across all levels; by the geometric level sizes this is
  /// ~2x a single R-tree over the partition.
  size_t MemoryUsage() const;

 private:
  static LsrForest BuildImpl(const ObjectSet& objects, const Options& options,
                             const GridIndex::GridSpec* grid);

  std::vector<RTree> trees_;
};

}  // namespace fra

#endif  // FRA_CORE_LSR_FOREST_H_
