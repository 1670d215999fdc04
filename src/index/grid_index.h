#ifndef FRA_INDEX_GRID_INDEX_H_
#define FRA_INDEX_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "geo/range.h"
#include "geo/rect.h"
#include "util/result.h"
#include "util/serialize.h"
#include "util/status.h"

namespace fra {

/// How a grid cell relates to a query range.
enum class CellRelation {
  kPartial,    // intersects the boundary of R
  kContained,  // lies entirely within R
};

/// The uniform grid index of paper Sec. 4.1: each cell aggregates the
/// measure attributes of the spatial objects it covers. Each silo builds
/// one over its partition (g_i); the service provider merges them into
/// g_0. Cumulative (prefix-sum) arrays over the linear components enable
/// the paper's O(1) block-aggregate remark.
///
/// All grids in a federation share a GridSpec (same domain and cell
/// length) so that cell ids align across silos — a prerequisite for the
/// per-cell estimation of NonIID-est.
class GridIndex {
 public:
  /// Geometry of a grid: the covered domain and the side length of the
  /// square cells (the paper's "grid length" L, in km).
  struct GridSpec {
    Rect domain;
    double cell_length = 1.0;

    size_t Rows() const;
    size_t Cols() const;

    friend bool operator==(const GridSpec& a, const GridSpec& b) {
      return a.domain == b.domain && a.cell_length == b.cell_length;
    }
  };

  GridIndex() = default;

  /// Builds a grid over `objects`. Objects outside the domain are clamped
  /// into the nearest edge cell (the generator never produces any, but
  /// queries near the domain edge must still see consistent totals).
  /// Fails if the spec is degenerate.
  static Result<GridIndex> Build(const ObjectSet& objects,
                                 const GridSpec& spec);

  /// An all-empty grid with the given spec.
  static Result<GridIndex> MakeEmpty(const GridSpec& spec);

  /// Element-wise sum of silo grids — Alg. 1's merged g_0. All parts must
  /// share one spec.
  static Result<GridIndex> Merge(const std::vector<const GridIndex*>& parts);

  const GridSpec& spec() const { return spec_; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t num_cells() const { return rows_ * cols_; }

  size_t CellId(size_t row, size_t col) const { return row * cols_ + col; }
  size_t RowOf(size_t cell_id) const { return cell_id / cols_; }
  size_t ColOf(size_t cell_id) const { return cell_id % cols_; }

  /// A cell's position in the grid.
  struct RowCol {
    size_t row = 0;
    size_t col = 0;
    friend bool operator==(const RowCol&, const RowCol&) = default;
  };

  /// Row and column of the cell containing `p`, clamped to the domain.
  /// This is the one cell-assignment rule of the federation: each cell is
  /// half-open, [x0, x0 + L) x [y0, y0 + L), so a point on a shared edge
  /// belongs to the cell above or to the right of it (points beyond the
  /// domain go to the nearest edge cell). The grid counts each object in
  /// this cell, and so does every per-cell answer
  /// (RTree::RangeAggregateByCell). Monotone in x and in y, so the cells
  /// of a rectangle's corners bound the cells of every point inside it.
  RowCol RowColOf(const Point& p) const {
    return RowCol{
        FloorClamped((p.y - spec_.domain.min.y) / spec_.cell_length, rows_),
        FloorClamped((p.x - spec_.domain.min.x) / spec_.cell_length, cols_)};
  }

  /// Id of the cell RowColOf(`p`) names.
  size_t CellOf(const Point& p) const {
    const RowCol cell = RowColOf(p);
    return CellId(cell.row, cell.col);
  }

  /// Geometric extent of a cell.
  Rect CellRect(size_t row, size_t col) const;

  const AggregateSummary& cell(size_t cell_id) const {
    return cells_[cell_id];
  }

  /// Summary over the whole grid.
  const AggregateSummary& total() const { return total_; }

  /// Invokes `fn(cell_id, relation)` for every cell that intersects
  /// `range`. Candidate cells are derived from per-row circle chords /
  /// the rectangle extent and verified geometrically.
  void ForEachIntersectingCell(
      const QueryRange& range,
      const std::function<void(size_t, CellRelation)>& fn) const;

  /// Partition of the cells intersecting a range into the rectangular
  /// block of fully contained cells and the list of boundary (partially
  /// covered) cells. perfbench reads it for its boundary-cell count, and
  /// the grid tests pin it against the per-cell walk.
  struct RangeCellClassification {
    /// True when the contained cells are exactly the block
    /// [row0..row1] x [col0..col1] (always true for rectangle ranges and
    /// for ranges with no contained cell; circles whose contained cells
    /// stagger per row report false, and callers fall back to the
    /// per-cell path).
    bool block_ok = false;
    size_t row0 = 0, col0 = 0, row1 = 0, col1 = 0;  // valid iff contained > 0
    size_t contained = 0;
    /// Cells intersecting but not contained, ascending cell id — the
    /// order a silo enumerates its boundary contributions in.
    std::vector<uint32_t> boundary_cells;
  };
  RangeCellClassification ClassifyRangeCells(const QueryRange& range) const;

  /// Aggregate of all cells intersecting `range` — the paper's sum_0 /
  /// sum_k. Uses the cumulative-array fast path: O(1) for rectangles,
  /// O(rows) for circles. The returned summary's min/max fields are not
  /// populated (prefix sums cover linear components only).
  AggregateSummary IntersectingCellsAggregate(const QueryRange& range) const;

  /// Reference implementation that walks every candidate cell; used by
  /// tests and the prefix-sum ablation bench.
  AggregateSummary IntersectingCellsAggregateNaive(
      const QueryRange& range) const;

  /// O(1) aggregate of the inclusive cell block
  /// [row0..row1] x [col0..col1] via prefix sums (linear components only).
  AggregateSummary BlockAggregate(size_t row0, size_t col0, size_t row1,
                                  size_t col1) const;

  // --- Incremental updates (streaming ingest) ---------------------------
  //
  // Cells and totals update immediately; the cumulative arrays are only
  // refreshed by CommitUpdates(). Between Add/SetCell and CommitUpdates,
  // prefix-sum reads stay correct because the uncommitted difference is
  // kept in a small per-cell delta that block aggregates fold back in
  // (an LSM-style read path: base prefix + delta scan).

  /// Folds one new object into its cell. O(1) amortised.
  void Add(const SpatialObject& o);

  /// Replaces a cell's summary outright (provider-side application of a
  /// silo's delta-sync payload). Adjusts the grid total accordingly.
  void SetCell(size_t cell_id, const AggregateSummary& summary);

  /// Rebuilds the cumulative arrays and clears the delta. O(cells).
  void CommitUpdates();

  /// Number of cells with uncommitted changes.
  size_t pending_updates() const { return delta_.size(); }

  /// Cell ids touched since the last ClearChangedCells() — what a silo
  /// ships in a delta-sync response.
  std::vector<size_t> ChangedCells() const;
  void ClearChangedCells() { changed_cells_.clear(); }

  /// Heap bytes held by cells + prefix arrays.
  size_t MemoryUsage() const;

  /// Wire format: spec, dimensions, then per-cell summaries. This is what
  /// a silo ships to the provider in Alg. 1, so its size is the index-
  /// construction communication cost.
  void Serialize(BinaryWriter* writer) const;
  static Status Deserialize(BinaryReader* reader, GridIndex* out);

 private:
  // floor(f) clamped to [0, n - 1]. On (0, n - 1) truncation is floor, so
  // this skips the floor itself, which the per-object cell lookup of a
  // descent feels; NaN maps to 0.
  static size_t FloorClamped(double f, size_t n) {
    if (!(f > 0.0)) return 0;
    if (f >= static_cast<double>(n - 1)) return n - 1;
    return static_cast<size_t>(f);
  }

  void RebuildPrefixSums();

  // Verified column span [*lo, *hi] of cells in `row` intersecting the
  // range; returns false when the row contributes nothing.
  bool RowSpan(const QueryRange& range, size_t row, size_t* lo,
               size_t* hi) const;

  GridSpec spec_;
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<AggregateSummary> cells_;
  AggregateSummary total_;
  // Prefix arrays of size (rows_+1)*(cols_+1); entry (r, c) aggregates the
  // cell block [0, r) x [0, c).
  std::vector<double> prefix_count_;
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sum_sqr_;
  // Linear components added to each cell since the last CommitUpdates
  // (what the prefix arrays don't know about yet).
  struct DeltaEntry {
    double count = 0.0;
    double sum = 0.0;
    double sum_sqr = 0.0;
  };
  std::unordered_map<size_t, DeltaEntry> delta_;
  // Cells changed since the last delta-sync request.
  std::unordered_map<size_t, bool> changed_cells_;
};

/// The answer slots of one per-cell range aggregation (NonIID-est,
/// Alg. 3): slot i answers the i-th cell it was built from. Slots are
/// looked up by (row, col) in a dense table over the block of rows and
/// columns those cells span, so the per-object lookup costs no integer
/// division.
class CellSlots {
 public:
  /// Slots for `cells`, distinct ids of `grid`, which must outlive this.
  CellSlots(const GridIndex& grid, const std::vector<uint32_t>& cells);

  const GridIndex& grid() const { return *grid_; }
  size_t size() const { return size_; }

  /// Slot of the cell at `cell`, or -1 when it has none.
  int SlotAt(GridIndex::RowCol cell) const {
    // Rows and columns before the table wrap around to huge offsets.
    const size_t r = cell.row - row0_;
    const size_t c = cell.col - col0_;
    if (r >= rows_ || c >= cols_) return -1;
    return slot_[r * cols_ + c];
  }

  /// Slot of the cell grid().RowColOf assigns `p`, or -1.
  int SlotOf(const Point& p) const { return SlotAt(grid_->RowColOf(p)); }

 private:
  const GridIndex* grid_;
  size_t size_ = 0;
  // The table's block: rows [row0_, row0_ + rows_), cols [col0_, col0_ + cols_).
  size_t row0_ = 0;
  size_t col0_ = 0;
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<int32_t> slot_;  // rows_ x cols_; -1 for a cell without slot
};

}  // namespace fra

#endif  // FRA_INDEX_GRID_INDEX_H_
