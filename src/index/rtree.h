#ifndef FRA_INDEX_RTREE_H_
#define FRA_INDEX_RTREE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "geo/range.h"
#include "geo/rect.h"
#include "index/grid_index.h"

namespace fra {

/// An aggregate R-tree: a Sort-Tile-Recursive (STR) bulk-loaded, packed
/// R-tree whose every node carries an AggregateSummary of its subtree.
///
/// Range aggregation descends the tree, contributing whole subtrees in
/// O(1) whenever the query range fully covers a node's MBR and testing
/// individual objects only in leaves that straddle the range boundary —
/// the standard O(log n) aggregate query the paper assumes for local
/// (exact) range aggregation, and the per-level building block of the
/// LSR-Forest (Sec. 5). The per-cell variant answers every grid cell of a
/// request in the same single descent; it needs a tree built over the
/// grid, whose leaves are sorted into same-cell runs.
///
/// The tree is immutable after Build(); objects are stored in leaf order
/// in one contiguous array, and nodes reference contiguous child ranges,
/// so traversal is cache friendly and the structure has no per-node
/// allocations.
class RTree {
 public:
  struct Options {
    /// Maximum objects per leaf.
    int leaf_capacity = 64;
    /// Maximum children per internal node.
    int fanout = 16;
  };

  /// Optional instrumentation filled by RangeAggregate.
  struct QueryStats {
    size_t nodes_visited = 0;
    size_t objects_tested = 0;
    size_t subtrees_taken = 0;  // nodes fully covered, contributed in O(1)
  };

  RTree() = default;

  /// Builds the tree over a copy-by-move of `objects`. An empty input
  /// yields a valid empty tree.
  static RTree Build(ObjectSet objects, const Options& options);
  static RTree Build(ObjectSet objects) {
    return Build(std::move(objects), Options());
  }

  /// Build(objects, options), with each leaf's objects sorted by the cell
  /// GridIndex::CellOf assigns them on a grid of `grid` (STR order within
  /// a cell) and one bit per object marking where each same-cell run
  /// starts. STR still picks each leaf's objects, so MBRs and node
  /// summaries cover what the plain tree's do and RangeAggregate visits
  /// the same nodes and objects (fractional measures may sum in another
  /// order). RangeAggregateByCell needs a tree built so.
  static RTree Build(ObjectSet objects, const Options& options,
                     const GridIndex::GridSpec& grid);

  /// Summary of all objects within `range`. `stats`, when non-null,
  /// receives traversal counters.
  AggregateSummary RangeAggregate(const QueryRange& range,
                                  QueryStats* stats = nullptr) const;

  /// Per-cell range aggregation in one descent for the whole request:
  /// each object within `range` is added to the slot of the one cell
  /// GridIndex::RowColOf assigns it, or dropped when that cell has no
  /// slot. A node within `range` and within one slotted cell is merged
  /// whole, and a subtree within one cell without a slot is skipped. A
  /// leaf over several cells is walked one same-cell run at a time: one
  /// slot lookup per run, a run without a slot is skipped untested, and
  /// objects are tested against `range` only when the leaf straddles it.
  /// Returns one summary per slot. Backs the NonIID-est boundary-cell
  /// contributions (Alg. 3): each object counts in the cell the grids
  /// count it in, never in two cells that share its edge. Dies unless the
  /// tree was built with `slots.grid().spec()`.
  std::vector<AggregateSummary> RangeAggregateByCell(
      const QueryRange& range, const CellSlots& slots) const;

  /// Appends all objects inside `range` to `out`.
  void CollectInRange(const QueryRange& range,
                      std::vector<SpatialObject>* out) const;

  /// Summary of the entire object set.
  const AggregateSummary& total() const { return total_; }

  size_t size() const { return objects_.size(); }
  bool empty() const { return objects_.empty(); }

  /// Number of levels (0 for an empty tree, 1 for a single leaf root).
  int height() const { return height_; }

  /// MBR of the whole tree; !IsValid() when empty.
  Rect bounds() const;

  /// Heap bytes held by the index (objects + nodes + run bits).
  size_t MemoryUsage() const;

  /// Objects in leaf order; primarily for tests.
  const ObjectSet& objects() const { return objects_; }

 private:
  struct Node {
    Rect mbr;
    AggregateSummary summary;
    // Children: [begin, end) into objects_ when level == 0, into nodes_
    // otherwise.
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t level = 0;
  };

  static RTree BuildImpl(ObjectSet objects, const Options& options,
                         const GridIndex::GridSpec* grid);

  void AggregateNode(uint32_t node_index, const QueryRange& range,
                     AggregateSummary* acc, QueryStats* stats) const;
  void AggregateNodeByCell(uint32_t node_index, const QueryRange& range,
                           const CellSlots& slots,
                           AggregateSummary* out) const;
  void CollectNode(uint32_t node_index, const QueryRange& range,
                   std::vector<SpatialObject>* out) const;
  // One past the last object of the same-cell run that starts at
  // objects_[start], in a leaf that ends at `end`.
  uint32_t RunEnd(uint32_t start, uint32_t end) const;

  ObjectSet objects_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  int height_ = 0;
  AggregateSummary total_;
  // The grid whose cells order each leaf; absent in a plain tree.
  std::optional<GridIndex::GridSpec> grid_;
  // Bit i set: objects_[i] starts a same-cell run of its leaf. Empty in a
  // plain tree.
  std::vector<uint64_t> run_starts_;
};

}  // namespace fra

#endif  // FRA_INDEX_RTREE_H_
