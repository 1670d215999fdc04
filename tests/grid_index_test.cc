#include "index/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>

#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {10, 10}};

GridIndex::GridSpec SpecWithLength(double cell_length,
                                   const Rect& domain = kDomain) {
  GridIndex::GridSpec spec;
  spec.domain = domain;
  spec.cell_length = cell_length;
  return spec;
}

TEST(GridSpecTest, DimensionsRoundUp) {
  EXPECT_EQ(SpecWithLength(2.5).Rows(), 4UL);
  EXPECT_EQ(SpecWithLength(2.5).Cols(), 4UL);
  EXPECT_EQ(SpecWithLength(3.0).Rows(), 4UL);  // ceil(10/3)
  EXPECT_EQ(SpecWithLength(20.0).Rows(), 1UL);
}

TEST(GridIndexTest, RejectsDegenerateSpecs) {
  EXPECT_TRUE(GridIndex::MakeEmpty(SpecWithLength(0.0)).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GridIndex::MakeEmpty(SpecWithLength(-1.0)).status()
                  .IsInvalidArgument());
  GridIndex::GridSpec bad = SpecWithLength(1.0);
  bad.domain = Rect::Empty();
  EXPECT_TRUE(GridIndex::MakeEmpty(bad).status().IsInvalidArgument());
}

TEST(GridIndexTest, CellMappingAndRects) {
  const auto grid = GridIndex::Build({}, SpecWithLength(2.5)).ValueOrDie();
  EXPECT_EQ(grid.rows(), 4UL);
  EXPECT_EQ(grid.cols(), 4UL);
  EXPECT_EQ(grid.num_cells(), 16UL);
  EXPECT_EQ(grid.CellOf(Point{0, 0}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellOf(Point{2.4, 0}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellOf(Point{2.5, 0}), grid.CellId(0, 1));
  EXPECT_EQ(grid.CellOf(Point{9.9, 9.9}), grid.CellId(3, 3));
  // Clamped outside the domain.
  EXPECT_EQ(grid.CellOf(Point{-5, -5}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellOf(Point{50, 50}), grid.CellId(3, 3));
  EXPECT_EQ(grid.CellRect(1, 2), (Rect{{5.0, 2.5}, {7.5, 5.0}}));
}

TEST(GridIndexTest, RowColOfIsFloorThenClamp) {
  const auto grid = GridIndex::Build({}, SpecWithLength(2.5)).ValueOrDie();
  // floor((v - origin) / L) clamped to the grid: the reference formula.
  const auto reference = [&](double v, size_t n) {
    return static_cast<size_t>(std::clamp(
        std::floor(v / 2.5), 0.0, static_cast<double>(n - 1)));
  };
  std::vector<double> values = {-1e300, -3.0, -0.0, 0.0, 1e-300, 9.999,
                                10.0,   12.5, 1e300, HUGE_VAL, -HUGE_VAL};
  for (int line = 0; line <= 4; ++line) {
    const double v = 2.5 * line;  // every grid line and its neighbours
    values.insert(values.end(), {std::nextafter(v, -1.0), v,
                                 std::nextafter(v, 100.0)});
  }
  Rng rng(3);
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble(-5, 15));
  for (double x : values) {
    for (double y : {-1.0, 2.5, 7.4999, 12.0}) {
      const GridIndex::RowCol cell = grid.RowColOf({x, y});
      EXPECT_EQ(cell.col, reference(x, grid.cols())) << "x " << x;
      EXPECT_EQ(cell.row, reference(y, grid.rows())) << "y " << y;
      EXPECT_EQ(grid.CellOf({x, y}), grid.CellId(cell.row, cell.col));
    }
  }
}

TEST(GridIndexTest, PaperExampleGridContents) {
  // Paper Example 2: silo s_2's red objects, grid length 2.5 over [0,10]^2.
  const ObjectSet objects = {{{2, 2}, 7},  {{3, 6}, 1}, {{4, 5}, 1},
                             {{5, 7}, 1},  {{6, 6}, 2}, {{7, 3}, 3},
                             {{8, 8}, 5},  {{9, 5}, 2}};
  const auto grid =
      GridIndex::Build(objects, SpecWithLength(2.5)).ValueOrDie();
  // Bottom-left cell holds the single object at (2,2) with SUM 7.
  const AggregateSummary& bottom_left = grid.cell(grid.CellId(0, 0));
  EXPECT_EQ(bottom_left.count, 1UL);
  EXPECT_DOUBLE_EQ(bottom_left.sum, 7.0);
  // Totals.
  EXPECT_EQ(grid.total().count, 8UL);
  EXPECT_DOUBLE_EQ(grid.total().sum, 22.0);
}

TEST(GridIndexTest, CellsPartitionTheObjects) {
  const ObjectSet objects = testing::RandomObjects(5000, kDomain, 4);
  const auto grid = GridIndex::Build(objects, SpecWithLength(1.0)).ValueOrDie();
  AggregateSummary from_cells;
  for (size_t id = 0; id < grid.num_cells(); ++id) {
    from_cells.Merge(grid.cell(id));
  }
  EXPECT_EQ(from_cells.count, grid.total().count);
  EXPECT_NEAR(from_cells.sum, grid.total().sum, 1e-9);
  EXPECT_EQ(grid.total().count, objects.size());
}

TEST(GridIndexTest, BlockAggregateMatchesManualSum) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 5);
  const auto grid = GridIndex::Build(objects, SpecWithLength(1.0)).ValueOrDie();
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t row0 = rng.NextUint64(grid.rows());
    const size_t row1 = row0 + rng.NextUint64(grid.rows() - row0);
    const size_t col0 = rng.NextUint64(grid.cols());
    const size_t col1 = col0 + rng.NextUint64(grid.cols() - col0);

    AggregateSummary manual;
    for (size_t r = row0; r <= row1; ++r) {
      for (size_t c = col0; c <= col1; ++c) {
        manual.Merge(grid.cell(grid.CellId(r, c)));
      }
    }
    const AggregateSummary block = grid.BlockAggregate(row0, col0, row1, col1);
    EXPECT_EQ(block.count, manual.count);
    EXPECT_NEAR(block.sum, manual.sum, 1e-6);
    EXPECT_NEAR(block.sum_sqr, manual.sum_sqr, 1e-6);
  }
}

// ctest names each case after gtest's byte dump of this struct (it has
// no operator<<), so every byte is a member: the compiler's padding after
// `circle` held whatever the stack did and renamed the cases from run to
// run. `name_bytes` fills that gap; its values keep the names the cases
// were first registered under.
struct GridQueryParam {
  double cell_length;
  bool circle;
  std::array<uint8_t, 7> name_bytes;
  size_t num_objects;
};
static_assert(sizeof(GridQueryParam) == 24, "no padding left to dump");

class GridQueryPropertyTest : public ::testing::TestWithParam<GridQueryParam> {
};

TEST_P(GridQueryPropertyTest, FastAggregateEqualsNaive) {
  const GridQueryParam param = GetParam();
  const ObjectSet objects =
      testing::ClusteredObjects(param.num_objects, kDomain, 3, 77);
  const GridIndex::GridSpec spec = SpecWithLength(param.cell_length);
  const auto grid = GridIndex::Build(objects, spec).ValueOrDie();
  // The same objects with the second half added after the build and never
  // committed: AggregateOver has to fold the pending delta in.
  const size_t half = objects.size() / 2;
  auto pending =
      GridIndex::Build(ObjectSet(objects.begin(), objects.begin() + half), spec)
          .ValueOrDie();
  for (size_t i = half; i < objects.size(); ++i) pending.Add(objects[i]);
  ASSERT_GT(pending.pending_updates(), 0UL);

  Rng rng(13);
  for (int q = 0; q < 60; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 4.0, param.circle, &rng);
    const AggregateSummary fast = grid.IntersectingCellsAggregate(range);
    const AggregateSummary naive = grid.IntersectingCellsAggregateNaive(range);
    EXPECT_EQ(fast.count, naive.count) << "query " << q;
    EXPECT_NEAR(fast.sum, naive.sum, 1e-6) << "query " << q;
    EXPECT_NEAR(fast.sum_sqr, naive.sum_sqr, 1e-6) << "query " << q;

    // One walk serves every grid of the spec.
    const GridIndex::RangeCells cells = grid.CellsOf(range);
    EXPECT_EQ(grid.AggregateOver(cells).count, naive.count) << "query " << q;
    const AggregateSummary pending_agg = pending.AggregateOver(cells);
    EXPECT_EQ(pending_agg.count, naive.count) << "query " << q;
    EXPECT_NEAR(pending_agg.sum, naive.sum, 1e-6) << "query " << q;

    // The walk visits exactly the intersecting cells, in ascending id,
    // each with its containment relation.
    std::vector<size_t> visited;
    grid.ForEachCell(cells, [&](size_t id, CellRelation relation) {
      const Rect cell = grid.CellRect(grid.RowOf(id), grid.ColOf(id));
      EXPECT_EQ(relation == CellRelation::kContained, range.Contains(cell))
          << "query " << q << " cell " << id;
      visited.push_back(id);
    });
    std::vector<size_t> intersecting;
    for (size_t id = 0; id < grid.num_cells(); ++id) {
      if (range.Intersects(grid.CellRect(grid.RowOf(id), grid.ColOf(id)))) {
        intersecting.push_back(id);
      }
    }
    EXPECT_EQ(visited, intersecting) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridQueryPropertyTest,
    ::testing::Values(GridQueryParam{0.5, true, {0x65, 0x78}, 2000},
                      GridQueryParam{0.5, false, {}, 2000},
                      GridQueryParam{1.0, true, {}, 2000},
                      GridQueryParam{1.0, false, {}, 2000},
                      GridQueryParam{2.5, true, {}, 500},
                      GridQueryParam{2.5, false, {0xDA, 0x48}, 500},
                      // non-divisor length
                      GridQueryParam{3.3, true, {}, 500},
                      GridQueryParam{3.3, false, {}, 500}));

TEST(GridIndexTest, ForEachIntersectingCellClassification) {
  const auto grid = GridIndex::Build({}, SpecWithLength(1.0)).ValueOrDie();
  const QueryRange range = QueryRange::MakeCircle({5, 5}, 2.0);
  size_t partial = 0;
  size_t contained = 0;
  std::set<size_t> seen;
  grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation relation) {
    EXPECT_TRUE(seen.insert(id).second) << "cell reported twice";
    const Rect cell = grid.CellRect(grid.RowOf(id), grid.ColOf(id));
    EXPECT_TRUE(range.Intersects(cell));
    if (relation == CellRelation::kContained) {
      EXPECT_TRUE(range.Contains(cell));
      ++contained;
    } else {
      EXPECT_FALSE(range.Contains(cell));
      ++partial;
    }
  });
  EXPECT_GT(contained, 0UL);
  EXPECT_GT(partial, 0UL);

  // Exhaustive cross-check: every intersecting cell was visited.
  size_t expected = 0;
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      if (range.Intersects(grid.CellRect(r, c))) ++expected;
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(GridIndexTest, ForEachIntersectingCellCoversRandomRanges) {
  const auto grid = GridIndex::Build({}, SpecWithLength(0.7)).ValueOrDie();
  Rng rng(21);
  for (int q = 0; q < 40; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 3.0, q % 2 == 0,
                                                  &rng);
    std::set<size_t> visited;
    grid.ForEachIntersectingCell(
        range, [&](size_t id, CellRelation) { visited.insert(id); });
    for (size_t r = 0; r < grid.rows(); ++r) {
      for (size_t c = 0; c < grid.cols(); ++c) {
        const bool expected = range.Intersects(grid.CellRect(r, c));
        EXPECT_EQ(visited.count(grid.CellId(r, c)) == 1, expected)
            << "query " << q << " cell (" << r << "," << c << ")";
      }
    }
  }
}

TEST(GridIndexTest, RangeOutsideDomainYieldsNothing) {
  const ObjectSet objects = testing::RandomObjects(100, kDomain, 8);
  const auto grid = GridIndex::Build(objects, SpecWithLength(1.0)).ValueOrDie();
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 3.0);
  EXPECT_EQ(grid.IntersectingCellsAggregate(range).count, 0UL);
  size_t cells = 0;
  grid.ForEachIntersectingCell(range, [&](size_t, CellRelation) { ++cells; });
  EXPECT_EQ(cells, 0UL);
}

TEST(GridIndexTest, MergeSumsCellwise) {
  const ObjectSet a = testing::RandomObjects(300, kDomain, 31);
  const ObjectSet b = testing::RandomObjects(500, kDomain, 32);
  const auto grid_a = GridIndex::Build(a, SpecWithLength(1.0)).ValueOrDie();
  const auto grid_b = GridIndex::Build(b, SpecWithLength(1.0)).ValueOrDie();
  const auto merged =
      GridIndex::Merge({&grid_a, &grid_b}).ValueOrDie();

  ObjectSet all = a;
  all.insert(all.end(), b.begin(), b.end());
  const auto direct = GridIndex::Build(all, SpecWithLength(1.0)).ValueOrDie();
  for (size_t id = 0; id < merged.num_cells(); ++id) {
    EXPECT_EQ(merged.cell(id).count, direct.cell(id).count);
    EXPECT_NEAR(merged.cell(id).sum, direct.cell(id).sum, 1e-9);
  }
  EXPECT_EQ(merged.total().count, 800UL);
}

TEST(GridIndexTest, MergeRejectsMismatchedSpecs) {
  const auto a = GridIndex::Build({}, SpecWithLength(1.0)).ValueOrDie();
  const auto b = GridIndex::Build({}, SpecWithLength(2.0)).ValueOrDie();
  EXPECT_TRUE(GridIndex::Merge({&a, &b}).status().IsInvalidArgument());
  EXPECT_TRUE(GridIndex::Merge({}).status().IsInvalidArgument());
}

TEST(GridIndexTest, SerializeRoundTrip) {
  const ObjectSet objects = testing::RandomObjects(1000, kDomain, 33);
  const auto grid = GridIndex::Build(objects, SpecWithLength(1.5)).ValueOrDie();

  BinaryWriter writer;
  grid.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  GridIndex decoded;
  ASSERT_TRUE(GridIndex::Deserialize(&reader, &decoded).ok());

  EXPECT_TRUE(decoded.spec() == grid.spec());
  EXPECT_EQ(decoded.num_cells(), grid.num_cells());
  EXPECT_EQ(decoded.total().count, grid.total().count);
  for (size_t id = 0; id < grid.num_cells(); ++id) {
    EXPECT_EQ(decoded.cell(id), grid.cell(id));
  }
  // Prefix sums were rebuilt: block aggregates agree.
  const QueryRange range = QueryRange::MakeCircle({5, 5}, 2.5);
  EXPECT_EQ(decoded.IntersectingCellsAggregate(range).count,
            grid.IntersectingCellsAggregate(range).count);
}

TEST(GridIndexTest, DeserializeTruncatedFails) {
  const auto grid = GridIndex::Build({}, SpecWithLength(1.0)).ValueOrDie();
  BinaryWriter writer;
  grid.Serialize(&writer);
  std::vector<uint8_t> truncated = writer.Release();
  truncated.resize(truncated.size() / 2);
  BinaryReader reader(truncated);
  GridIndex decoded;
  EXPECT_FALSE(GridIndex::Deserialize(&reader, &decoded).ok());
}

TEST(GridIndexTest, MemoryUsageIsNonTrivial) {
  const auto grid = GridIndex::Build({}, SpecWithLength(0.5)).ValueOrDie();
  // 20x20 cells + 21x21 prefix entries * 3 arrays.
  EXPECT_GE(grid.MemoryUsage(),
            400 * sizeof(AggregateSummary) + 3 * 441 * sizeof(double));
}

TEST(GridIndexTest, WholeDomainQueryCoversTotal) {
  const ObjectSet objects = testing::RandomObjects(700, kDomain, 34);
  const auto grid = GridIndex::Build(objects, SpecWithLength(1.3)).ValueOrDie();
  const QueryRange all = QueryRange::MakeRect({-1, -1}, {11, 11});
  EXPECT_EQ(grid.IntersectingCellsAggregate(all).count, 700UL);
}

TEST(GridIndexTest, ClassifyRangeCellsAlignedRectBlockAndEdgeCells) {
  const auto grid = GridIndex::Build({}, SpecWithLength(2.5)).ValueOrDie();
  // Exactly cells [0..1] x [0..1]. Intersection tests use closed edges,
  // so the rect also *touches* row 2 / col 2 — those show up as
  // zero-area boundary cells (5 of them along the top and right edges);
  // NonIID-est's area-fraction fallback for a boundary cell the sampled
  // silo has no objects in contributes 0 for them.
  const auto cls =
      grid.ClassifyRangeCells(QueryRange::MakeRect({0, 0}, {5, 5}));
  EXPECT_TRUE(cls.block_ok);
  EXPECT_EQ(cls.contained, 4UL);
  EXPECT_EQ(cls.row0, 0UL);
  EXPECT_EQ(cls.col0, 0UL);
  EXPECT_EQ(cls.row1, 1UL);
  EXPECT_EQ(cls.col1, 1UL);
  EXPECT_EQ(cls.boundary_cells.size(), 5UL);
  const QueryRange range = QueryRange::MakeRect({0, 0}, {5, 5});
  for (const uint32_t cell_id : cls.boundary_cells) {
    const Rect cell_rect = grid.CellRect(grid.RowOf(cell_id), grid.ColOf(cell_id));
    EXPECT_EQ(range.IntersectionArea(cell_rect), 0.0) << "cell " << cell_id;
  }
}

TEST(GridIndexTest, ClassifyRangeCellsMatchesForEachEnumeration) {
  const auto grid = GridIndex::Build({}, SpecWithLength(1.3)).ValueOrDie();
  Rng rng(35);
  for (int q = 0; q < 40; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 4.0, q % 2 == 0, &rng);
    const auto cls = grid.ClassifyRangeCells(range);
    std::vector<uint32_t> boundary;
    size_t contained = 0;
    grid.ForEachIntersectingCell(
        range, [&](size_t cell_id, CellRelation relation) {
          if (relation == CellRelation::kContained) {
            ++contained;
          } else {
            boundary.push_back(static_cast<uint32_t>(cell_id));
          }
        });
    EXPECT_EQ(cls.boundary_cells, boundary) << "query " << q;
    EXPECT_EQ(cls.contained, contained) << "query " << q;
    if (cls.block_ok && contained > 0) {
      // The reported block reproduces the contained-cell aggregate.
      size_t cells = (cls.row1 - cls.row0 + 1) * (cls.col1 - cls.col0 + 1);
      EXPECT_EQ(cells, contained) << "query " << q;
    }
  }
}

TEST(GridIndexTest, ClassifyRangeCellsCircleContainedBlockMayBeRagged) {
  const auto grid = GridIndex::Build({}, SpecWithLength(1.0)).ValueOrDie();
  // A large circle's contained cells form a disc, not a rectangle: the
  // classification must refuse the block rather than misreport it.
  const auto cls =
      grid.ClassifyRangeCells(QueryRange::MakeCircle({5, 5}, 4.5));
  ASSERT_GT(cls.contained, 0UL);
  if (!cls.block_ok) {
    const size_t block =
        (cls.row1 - cls.row0 + 1) * (cls.col1 - cls.col0 + 1);
    EXPECT_NE(block, cls.contained);
  }
}

}  // namespace
}  // namespace fra
