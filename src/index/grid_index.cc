#include "index/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/trace.h"

namespace fra {

size_t GridIndex::GridSpec::Rows() const {
  return static_cast<size_t>(
      std::max(1.0, std::ceil(domain.Height() / cell_length)));
}

size_t GridIndex::GridSpec::Cols() const {
  return static_cast<size_t>(
      std::max(1.0, std::ceil(domain.Width() / cell_length)));
}

Result<GridIndex> GridIndex::MakeEmpty(const GridSpec& spec) {
  if (!spec.domain.IsValid() || spec.domain.Area() <= 0.0) {
    return Status::InvalidArgument("grid domain must have positive area");
  }
  if (spec.cell_length <= 0.0) {
    return Status::InvalidArgument("grid cell length must be positive");
  }
  GridIndex grid;
  grid.spec_ = spec;
  grid.rows_ = spec.Rows();
  grid.cols_ = spec.Cols();
  grid.cells_.assign(grid.rows_ * grid.cols_, AggregateSummary());
  grid.RebuildPrefixSums();
  return grid;
}

Result<GridIndex> GridIndex::Build(const ObjectSet& objects,
                                   const GridSpec& spec) {
  FRA_ASSIGN_OR_RETURN(GridIndex grid, MakeEmpty(spec));
  for (const SpatialObject& o : objects) {
    grid.cells_[grid.CellOf(o.location)].Add(o);
    grid.total_.Add(o);
  }
  grid.RebuildPrefixSums();
  return grid;
}

Result<GridIndex> GridIndex::Merge(const std::vector<const GridIndex*>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("Merge requires at least one grid");
  }
  FRA_ASSIGN_OR_RETURN(GridIndex merged, MakeEmpty(parts[0]->spec()));
  for (const GridIndex* part : parts) {
    FRA_CHECK(part != nullptr);
    if (!(part->spec() == merged.spec_)) {
      return Status::InvalidArgument(
          "all merged grids must share one GridSpec");
    }
    for (size_t i = 0; i < merged.cells_.size(); ++i) {
      merged.cells_[i].Merge(part->cells_[i]);
    }
    merged.total_.Merge(part->total_);
  }
  merged.RebuildPrefixSums();
  return merged;
}

Rect GridIndex::CellRect(size_t row, size_t col) const {
  const double x0 = spec_.domain.min.x + static_cast<double>(col) * spec_.cell_length;
  const double y0 = spec_.domain.min.y + static_cast<double>(row) * spec_.cell_length;
  return Rect{{x0, y0}, {x0 + spec_.cell_length, y0 + spec_.cell_length}};
}

bool GridIndex::RowSpan(const QueryRange& range, size_t row, size_t* lo,
                        size_t* hi) const {
  const Rect bbox = range.BoundingBox();
  const double min_x = spec_.domain.min.x;
  const double inv_len = 1.0 / spec_.cell_length;

  auto col_clamped = [&](double x) {
    return static_cast<size_t>(std::clamp(std::floor((x - min_x) * inv_len),
                                          0.0,
                                          static_cast<double>(cols_ - 1)));
  };

  size_t begin = col_clamped(bbox.min.x);
  size_t end = col_clamped(bbox.max.x);
  if (begin > 0) --begin;  // the left neighbour may touch at a shared edge
  if (range.is_circle()) {
    // Tighten the span to the circle's chord within this row's y band.
    const Circle& c = range.circle();
    const Rect row_rect =
        Rect{{spec_.domain.min.x,
              spec_.domain.min.y + static_cast<double>(row) * spec_.cell_length},
             {spec_.domain.max.x,
              spec_.domain.min.y +
                  static_cast<double>(row + 1) * spec_.cell_length}};
    const double dy =
        std::max({row_rect.min.y - c.center.y, 0.0, c.center.y - row_rect.max.y});
    const double h2 = c.radius * c.radius - dy * dy;
    if (h2 < 0.0) return false;
    const double half = std::sqrt(h2);
    begin = col_clamped(c.center.x - half);
    end = col_clamped(c.center.x + half);
    if (begin > 0) --begin;
  }

  // The chord is computed at the row's nearest y, so the outermost cells
  // can still miss the circle; shrink until the endpoints truly intersect.
  while (begin <= end && !range.Intersects(CellRect(row, begin))) {
    if (begin == end) return false;
    ++begin;
  }
  while (end > begin && !range.Intersects(CellRect(row, end))) --end;
  if (begin > end) return false;
  if (!range.Intersects(CellRect(row, begin))) return false;
  *lo = begin;
  *hi = end;
  return true;
}

GridIndex::RangeCells GridIndex::CellsOf(const QueryRange& range) const {
  RangeCells cells;
  cells.range = range;
  const Rect bbox = range.BoundingBox();
  if (!bbox.Intersects(spec_.domain)) return cells;

  auto row_clamped = [&](double y) {
    return static_cast<size_t>(
        std::clamp(std::floor((y - spec_.domain.min.y) / spec_.cell_length),
                   0.0, static_cast<double>(rows_ - 1)));
  };
  size_t row_begin = row_clamped(bbox.min.y);
  if (row_begin > 0) --row_begin;  // lower neighbour may touch at an edge
  size_t row_end = row_clamped(bbox.max.y);

  size_t lo = 0;
  size_t hi = 0;
  if (range.is_rect()) {
    // Every row a rectangle intersects has the same column span, so its
    // cells are one block between the first and the last row RowSpan
    // verifies (the expanded first row may miss it entirely).
    while (row_begin <= row_end && !RowSpan(range, row_begin, &lo, &hi)) {
      ++row_begin;
    }
    if (row_begin > row_end) return cells;
    size_t top_lo = 0;
    size_t top_hi = 0;
    while (row_end > row_begin && !RowSpan(range, row_end, &top_lo, &top_hi)) {
      --row_end;
    }
    cells.blocks.push_back({row_begin, lo, row_end, hi});
    return cells;
  }
  cells.blocks.reserve(row_end - row_begin + 1);
  for (size_t row = row_begin; row <= row_end; ++row) {
    if (RowSpan(range, row, &lo, &hi)) {
      cells.blocks.push_back({row, lo, row, hi});
    }
  }
  return cells;
}

GridIndex::RangeCellClassification GridIndex::ClassifyRangeCells(
    const QueryRange& range) const {
  RangeCellClassification out;
  size_t min_row = rows_;
  size_t max_row = 0;
  size_t min_col = cols_;
  size_t max_col = 0;
  ForEachIntersectingCell(range, [&](size_t cell_id, CellRelation relation) {
    if (relation == CellRelation::kContained) {
      const size_t row = RowOf(cell_id);
      const size_t col = ColOf(cell_id);
      min_row = std::min(min_row, row);
      max_row = std::max(max_row, row);
      min_col = std::min(min_col, col);
      max_col = std::max(max_col, col);
      ++out.contained;
    } else {
      out.boundary_cells.push_back(static_cast<uint32_t>(cell_id));
    }
  });
  if (out.contained == 0) {
    out.block_ok = true;  // the empty block
    return out;
  }
  out.row0 = min_row;
  out.row1 = max_row;
  out.col0 = min_col;
  out.col1 = max_col;
  out.block_ok = out.contained ==
                 (max_row - min_row + 1) * (max_col - min_col + 1);
  return out;
}

AggregateSummary GridIndex::BlockAggregate(size_t row0, size_t col0,
                                           size_t row1, size_t col1) const {
  FRA_CHECK_LE(row0, row1);
  FRA_CHECK_LE(col0, col1);
  FRA_CHECK_LT(row1, rows_);
  FRA_CHECK_LT(col1, cols_);
  const size_t stride = cols_ + 1;
  auto block = [&](const std::vector<double>& prefix) {
    return prefix[(row1 + 1) * stride + (col1 + 1)] -
           prefix[row0 * stride + (col1 + 1)] -
           prefix[(row1 + 1) * stride + col0] + prefix[row0 * stride + col0];
  };
  double count = block(prefix_count_);
  AggregateSummary out;
  out.sum = block(prefix_sum_);
  out.sum_sqr = block(prefix_sum_sqr_);
  // Fold in the uncommitted delta of cells inside the block.
  for (const auto& [cell_id, delta] : delta_) {
    const size_t row = RowOf(cell_id);
    const size_t col = ColOf(cell_id);
    if (row < row0 || row > row1 || col < col0 || col > col1) continue;
    count += delta.count;
    out.sum += delta.sum;
    out.sum_sqr += delta.sum_sqr;
  }
  out.count = static_cast<uint64_t>(std::llround(count));
  return out;
}

void GridIndex::Add(const SpatialObject& o) {
  const size_t cell_id = CellOf(o.location);
  cells_[cell_id].Add(o);
  total_.Add(o);
  DeltaEntry& delta = delta_[cell_id];
  delta.count += 1.0;
  delta.sum += o.measure;
  delta.sum_sqr += o.measure * o.measure;
  changed_cells_[cell_id] = true;
}

void GridIndex::SetCell(size_t cell_id, const AggregateSummary& summary) {
  FRA_CHECK_LT(cell_id, cells_.size());
  const AggregateSummary& old = cells_[cell_id];
  DeltaEntry& delta = delta_[cell_id];
  delta.count += static_cast<double>(summary.count) -
                 static_cast<double>(old.count);
  delta.sum += summary.sum - old.sum;
  delta.sum_sqr += summary.sum_sqr - old.sum_sqr;
  // Totals: remove the old contribution's linear parts, add the new
  // (subtract first — the unsigned difference old->new could wrap).
  total_.count = total_.count - old.count + summary.count;
  total_.sum += summary.sum - old.sum;
  total_.sum_sqr += summary.sum_sqr - old.sum_sqr;
  if (summary.min < total_.min) total_.min = summary.min;
  if (summary.max > total_.max) total_.max = summary.max;
  cells_[cell_id] = summary;
  changed_cells_[cell_id] = true;
}

void GridIndex::CommitUpdates() {
  if (delta_.empty()) return;
  delta_.clear();
  RebuildPrefixSums();
}

std::vector<size_t> GridIndex::ChangedCells() const {
  std::vector<size_t> cells;
  cells.reserve(changed_cells_.size());
  for (const auto& [cell_id, _] : changed_cells_) cells.push_back(cell_id);
  std::sort(cells.begin(), cells.end());
  return cells;
}

AggregateSummary GridIndex::IntersectingCellsAggregate(
    const QueryRange& range) const {
  FRA_TRACE_SPAN("grid.intersecting_aggregate");
  return AggregateOver(CellsOf(range));
}

AggregateSummary GridIndex::AggregateOver(const RangeCells& cells) const {
  AggregateSummary acc;
  for (const RangeCells::Block& b : cells.blocks) {
    acc.Merge(BlockAggregate(b.row0, b.col0, b.row1, b.col1));
  }
  return acc;
}

AggregateSummary GridIndex::IntersectingCellsAggregateNaive(
    const QueryRange& range) const {
  AggregateSummary acc;
  const Rect bbox = range.BoundingBox();
  if (!bbox.Intersects(spec_.domain)) return acc;
  for (size_t row = 0; row < rows_; ++row) {
    for (size_t col = 0; col < cols_; ++col) {
      if (range.Intersects(CellRect(row, col))) {
        acc.Merge(cells_[CellId(row, col)]);
      }
    }
  }
  // Naive path recomputes min/max exactly; clear them so results compare
  // field-by-field with the prefix-sum path (which cannot provide them).
  acc.min = AggregateSummary().min;
  acc.max = AggregateSummary().max;
  return acc;
}

void GridIndex::RebuildPrefixSums() {
  const size_t stride = cols_ + 1;
  prefix_count_.assign((rows_ + 1) * stride, 0.0);
  prefix_sum_.assign((rows_ + 1) * stride, 0.0);
  prefix_sum_sqr_.assign((rows_ + 1) * stride, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      const AggregateSummary& cell = cells_[CellId(r, c)];
      const size_t idx = (r + 1) * stride + (c + 1);
      prefix_count_[idx] = static_cast<double>(cell.count) +
                           prefix_count_[r * stride + (c + 1)] +
                           prefix_count_[(r + 1) * stride + c] -
                           prefix_count_[r * stride + c];
      prefix_sum_[idx] = cell.sum + prefix_sum_[r * stride + (c + 1)] +
                         prefix_sum_[(r + 1) * stride + c] -
                         prefix_sum_[r * stride + c];
      prefix_sum_sqr_[idx] = cell.sum_sqr +
                             prefix_sum_sqr_[r * stride + (c + 1)] +
                             prefix_sum_sqr_[(r + 1) * stride + c] -
                             prefix_sum_sqr_[r * stride + c];
    }
  }
}

CellSlots::CellSlots(const GridIndex& grid, const std::vector<uint32_t>& cells)
    : grid_(&grid), size_(cells.size()) {
  if (cells.empty()) return;
  row0_ = grid.rows();
  col0_ = grid.cols();
  size_t row1 = 0;
  size_t col1 = 0;
  for (uint32_t cell : cells) {
    FRA_CHECK_LT(cell, grid.num_cells());
    row0_ = std::min(row0_, grid.RowOf(cell));
    col0_ = std::min(col0_, grid.ColOf(cell));
    row1 = std::max(row1, grid.RowOf(cell));
    col1 = std::max(col1, grid.ColOf(cell));
  }
  rows_ = row1 - row0_ + 1;
  cols_ = col1 - col0_ + 1;
  slot_.assign(rows_ * cols_, -1);
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t r = grid.RowOf(cells[i]) - row0_;
    const size_t c = grid.ColOf(cells[i]) - col0_;
    FRA_CHECK_EQ(slot_[r * cols_ + c], -1);  // distinct cells
    slot_[r * cols_ + c] = static_cast<int32_t>(i);
  }
}

size_t GridIndex::MemoryUsage() const {
  return cells_.capacity() * sizeof(AggregateSummary) +
         (prefix_count_.capacity() + prefix_sum_.capacity() +
          prefix_sum_sqr_.capacity()) *
             sizeof(double);
}

void GridIndex::Serialize(BinaryWriter* writer) const {
  // Header (5 doubles + 2 u64 dimensions) plus one fixed-width summary
  // per cell: reserving once avoids log(n) reallocations of a payload
  // that reaches tens of MB for city-scale grids.
  writer->Reserve(5 * sizeof(double) + 2 * sizeof(uint64_t) +
                  cells_.size() * AggregateSummary::kWireSize);
  writer->WriteDouble(spec_.domain.min.x);
  writer->WriteDouble(spec_.domain.min.y);
  writer->WriteDouble(spec_.domain.max.x);
  writer->WriteDouble(spec_.domain.max.y);
  writer->WriteDouble(spec_.cell_length);
  writer->WriteU64(rows_);
  writer->WriteU64(cols_);
  for (const AggregateSummary& cell : cells_) cell.Serialize(writer);
}

Status GridIndex::Deserialize(BinaryReader* reader, GridIndex* out) {
  GridSpec spec;
  FRA_RETURN_NOT_OK(reader->ReadDouble(&spec.domain.min.x));
  FRA_RETURN_NOT_OK(reader->ReadDouble(&spec.domain.min.y));
  FRA_RETURN_NOT_OK(reader->ReadDouble(&spec.domain.max.x));
  FRA_RETURN_NOT_OK(reader->ReadDouble(&spec.domain.max.y));
  FRA_RETURN_NOT_OK(reader->ReadDouble(&spec.cell_length));
  uint64_t rows = 0;
  uint64_t cols = 0;
  FRA_RETURN_NOT_OK(reader->ReadU64(&rows));
  FRA_RETURN_NOT_OK(reader->ReadU64(&cols));

  // Bound allocations against the actual payload before building: a
  // corrupted spec or dimension field must not trigger a huge allocation.
  if (!std::isfinite(spec.cell_length) || !std::isfinite(spec.domain.min.x) ||
      !std::isfinite(spec.domain.min.y) || !std::isfinite(spec.domain.max.x) ||
      !std::isfinite(spec.domain.max.y)) {
    return Status::InvalidArgument("malformed grid spec");
  }
  const size_t max_cells = reader->Remaining() / AggregateSummary::kWireSize;
  if (rows == 0 || cols == 0 || rows > max_cells || cols > max_cells ||
      rows * cols > max_cells) {
    return Status::OutOfRange("grid dimensions exceed payload");
  }
  // Compare expected dimensions in doubles: a hostile spec could imply a
  // cell count beyond size_t, which must fail the comparison, not
  // overflow a cast.
  const double expected_rows = spec.cell_length > 0.0 && spec.domain.IsValid()
      ? std::max(1.0, std::ceil(spec.domain.Height() / spec.cell_length))
      : -1.0;
  const double expected_cols = spec.cell_length > 0.0 && spec.domain.IsValid()
      ? std::max(1.0, std::ceil(spec.domain.Width() / spec.cell_length))
      : -1.0;
  if (static_cast<double>(rows) != expected_rows ||
      static_cast<double>(cols) != expected_cols) {
    return Status::InvalidArgument("grid dimensions inconsistent with spec");
  }
  FRA_ASSIGN_OR_RETURN(GridIndex grid, MakeEmpty(spec));
  for (AggregateSummary& cell : grid.cells_) {
    FRA_RETURN_NOT_OK(AggregateSummary::Deserialize(reader, &cell));
    grid.total_.Merge(cell);
  }
  grid.RebuildPrefixSums();
  *out = std::move(grid);
  return Status::OK();
}

}  // namespace fra
