#include "index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <tuple>

#include "index/grid_index.h"
#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {100, 100}};

TEST(RTreeTest, EmptyTree) {
  const RTree tree = RTree::Build({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0UL);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_FALSE(tree.bounds().IsValid());
  const AggregateSummary summary =
      tree.RangeAggregate(QueryRange::MakeCircle({0, 0}, 10));
  EXPECT_TRUE(summary.empty());
}

TEST(RTreeTest, SingleObject) {
  const RTree tree = RTree::Build({{{5, 5}, 3.0}});
  EXPECT_EQ(tree.size(), 1UL);
  EXPECT_EQ(tree.height(), 1);
  const AggregateSummary hit =
      tree.RangeAggregate(QueryRange::MakeCircle({5, 5}, 1));
  EXPECT_EQ(hit.count, 1UL);
  EXPECT_DOUBLE_EQ(hit.sum, 3.0);
  const AggregateSummary miss =
      tree.RangeAggregate(QueryRange::MakeCircle({50, 50}, 1));
  EXPECT_TRUE(miss.empty());
}

TEST(RTreeTest, TotalCoversAllObjects) {
  const ObjectSet objects = testing::RandomObjects(1000, kDomain, 1);
  AggregateSummary expected;
  for (const SpatialObject& o : objects) expected.Add(o);
  const RTree tree = RTree::Build(objects);
  EXPECT_EQ(tree.total(), expected);
  // A range covering the whole domain returns everything.
  const AggregateSummary all =
      tree.RangeAggregate(QueryRange::MakeRect({-1, -1}, {101, 101}));
  EXPECT_EQ(all, expected);
}

TEST(RTreeTest, BoundsCoverAllObjects) {
  const ObjectSet objects = testing::RandomObjects(500, kDomain, 2);
  const RTree tree = RTree::Build(objects);
  const Rect bounds = tree.bounds();
  for (const SpatialObject& o : objects) {
    EXPECT_TRUE(bounds.Contains(o.location));
  }
}

TEST(RTreeTest, PaperExampleSiloTwo) {
  // Silo s_2 of paper Example 1 (Fig. 1c): the red objects o_1..o_8.
  const ObjectSet objects = {{{2, 2}, 7},   {{3, 6}, 1}, {{4, 5}, 1},
                             {{5, 7}, 1},   {{6, 6}, 2}, {{7, 3}, 3},
                             {{8, 8}, 5},   {{9, 5}, 2}};
  const RTree tree = RTree::Build(objects);
  // The Example 1 query: circle centered (4, 6) with radius 3.
  const AggregateSummary result =
      tree.RangeAggregate(QueryRange::MakeCircle({4, 6}, 3));
  // Objects within: (3,6), (4,5), (5,7), (6,6) -> COUNT 4, SUM 5.
  EXPECT_EQ(result.count, 4UL);
  EXPECT_DOUBLE_EQ(result.sum, 5.0);
}

struct RTreeParam {
  size_t num_objects;
  int leaf_capacity;
  int fanout;
  bool circle_queries;
};

// ctest's test discovery names each case "<test>/<printed parameter>".
// Without a PrintTo, gtest prints a byte dump of the struct, padding
// included, so the names changed from build to build. A name generator
// does not help: discovery keeps the dump after a generated name.
void PrintTo(const RTreeParam& p, std::ostream* os) {
  *os << "n" << p.num_objects << "_leaf" << p.leaf_capacity << "_fan"
      << p.fanout << (p.circle_queries ? "_circle" : "_rect");
}

class RTreePropertyTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreePropertyTest, MatchesBruteForceOnRandomWorkload) {
  const RTreeParam param = GetParam();
  const ObjectSet objects =
      testing::ClusteredObjects(param.num_objects, kDomain, 5, 42);
  const GridIndex grid =
      GridIndex::Build(objects, {kDomain, 5.0}).ValueOrDie();
  RTree::Options options;
  options.leaf_capacity = param.leaf_capacity;
  options.fanout = param.fanout;
  const RTree tree = RTree::Build(objects, options, grid.spec());
  ASSERT_EQ(tree.size(), param.num_objects);

  Rng rng(7);
  for (int q = 0; q < 50; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 20.0, param.circle_queries, &rng);
    const AggregateSummary expected = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    const AggregateSummary actual = tree.RangeAggregate(range);
    EXPECT_EQ(actual.count, expected.count) << "query " << q;
    EXPECT_NEAR(actual.sum, expected.sum, 1e-9) << "query " << q;
    EXPECT_NEAR(actual.sum_sqr, expected.sum_sqr, 1e-9) << "query " << q;
    if (expected.count > 0) {
      EXPECT_DOUBLE_EQ(actual.min, expected.min) << "query " << q;
      EXPECT_DOUBLE_EQ(actual.max, expected.max) << "query " << q;
    }

    // The boundary cells' answers, from the walk over same-cell runs.
    const std::vector<uint32_t> boundary =
        grid.ClassifyRangeCells(range).boundary_cells;
    const std::vector<AggregateSummary> answers =
        tree.RangeAggregateByCell(range, CellSlots(grid, boundary));
    ASSERT_EQ(answers.size(), boundary.size());
    for (size_t i = 0; i < boundary.size(); ++i) {
      const AggregateSummary cell_expected =
          testing::CellReference(objects, grid, boundary[i], range);
      EXPECT_EQ(answers[i].count, cell_expected.count) << "query " << q;
      EXPECT_NEAR(answers[i].sum, cell_expected.sum, 1e-9) << "query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RTreePropertyTest,
    ::testing::Values(RTreeParam{100, 4, 4, true},
                      RTreeParam{100, 4, 4, false},
                      RTreeParam{1000, 16, 8, true},
                      RTreeParam{1000, 16, 8, false},
                      RTreeParam{5000, 64, 16, true},
                      RTreeParam{5000, 64, 16, false},
                      RTreeParam{333, 1, 2, true},     // degenerate fanout
                      RTreeParam{4096, 64, 16, true},  // exact power of two
                      RTreeParam{65, 64, 16, false},   // one over a leaf
                      // Leaves across and wider than a 64-bit word of
                      // run bits.
                      RTreeParam{3000, 24, 8, true},
                      RTreeParam{3000, 100, 4, false}));

// Circles, rectangles and rectangles along grid lines, in turn.
QueryRange PerCellRange(int q, const GridIndex::GridSpec& spec, Rng* rng) {
  if (q % 3 == 2) return testing::RandomGridAlignedRect(spec, 20.0, rng);
  return testing::RandomRange(kDomain, 20.0, q % 3 == 0, rng);
}

TEST(RTreeTest, PerCellAggregateMatchesCellOfPredicate) {
  // Random objects plus a lattice on every cell edge and corner.
  ObjectSet objects = testing::RandomObjects(3000, kDomain, 3);
  const ObjectSet lattice = testing::LatticeObjects(kDomain, 1.25);
  objects.insert(objects.end(), lattice.begin(), lattice.end());
  const GridIndex grid =
      GridIndex::Build(objects, {kDomain, 2.5}).ValueOrDie();
  for (const RTree::Options& options :
       {RTree::Options{}, RTree::Options{4, 3}}) {
    const RTree tree = RTree::Build(objects, options, grid.spec());
    Rng rng(11);
    for (int q = 0; q < 60; ++q) {
      const QueryRange range = PerCellRange(q, grid.spec(), &rng);
      std::vector<uint32_t> boundary;
      std::vector<uint32_t> all;
      AggregateSummary interior;
      grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation rel) {
        all.push_back(static_cast<uint32_t>(id));
        if (rel == CellRelation::kPartial) {
          boundary.push_back(static_cast<uint32_t>(id));
        } else {
          interior.Merge(grid.cell(id));
        }
      });
      for (const std::vector<uint32_t>* cells : {&boundary, &all}) {
        const std::vector<AggregateSummary> answers =
            tree.RangeAggregateByCell(range, CellSlots(grid, *cells));
        ASSERT_EQ(answers.size(), cells->size());
        for (size_t i = 0; i < cells->size(); ++i) {
          const AggregateSummary expected =
              testing::CellReference(objects, grid, (*cells)[i], range);
          EXPECT_EQ(answers[i].count, expected.count) << "query " << q;
          EXPECT_NEAR(answers[i].sum, expected.sum, 1e-9) << "query " << q;
        }
      }
      // Interior cells plus boundary cells count every object once.
      AggregateSummary whole = interior;
      for (const AggregateSummary& answer :
           tree.RangeAggregateByCell(range, CellSlots(grid, boundary))) {
        whole.Merge(answer);
      }
      EXPECT_EQ(whole.count, tree.RangeAggregate(range).count)
          << "query " << q;
    }
  }
}

TEST(RTreeTest, PerCellAggregateIgnoresCellsOutsideTheRange) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 4);
  const GridIndex grid =
      GridIndex::Build(objects, {kDomain, 2.5}).ValueOrDie();
  const RTree tree = RTree::Build(objects, RTree::Options(), grid.spec());
  const QueryRange range = QueryRange::MakeCircle({20, 20}, 6);
  // Slots for cells far from the range stay empty; no slots, no answers.
  const std::vector<uint32_t> far = {
      static_cast<uint32_t>(grid.CellId(30, 30)),
      static_cast<uint32_t>(grid.CellId(0, 39))};
  for (const AggregateSummary& answer :
       tree.RangeAggregateByCell(range, CellSlots(grid, far))) {
    EXPECT_TRUE(answer.empty());
  }
  EXPECT_TRUE(tree.RangeAggregateByCell(range, CellSlots(grid, {})).empty());
  EXPECT_EQ(RTree::Build({}, RTree::Options(), grid.spec())
                .RangeAggregateByCell(range, CellSlots(grid, far))
                .size(),
            far.size());
}

TEST(RTreeDeathTest, PerCellAggregateNeedsTheTreesGrid) {
  const ObjectSet objects = testing::RandomObjects(500, kDomain, 6);
  const GridIndex grid =
      GridIndex::Build(objects, {kDomain, 2.5}).ValueOrDie();
  const GridIndex coarser =
      GridIndex::Build(objects, {kDomain, 5.0}).ValueOrDie();
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 10);
  const RTree tree = RTree::Build(objects, RTree::Options(), grid.spec());
  EXPECT_DEATH(tree.RangeAggregateByCell(range, CellSlots(coarser, {0})),
               "slots' grid");
  EXPECT_DEATH(
      RTree::Build(objects).RangeAggregateByCell(range, CellSlots(grid, {0})),
      "slots' grid");
}

TEST(RTreeTest, GridBuildAnswersAsThePlainTree) {
  // Sorting leaves by cell moves objects only within their leaf: range
  // answers, traversal work and the collected objects stay the plain
  // tree's.
  ObjectSet objects = testing::ClusteredObjects(4000, kDomain, 4, 21);
  const ObjectSet lattice = testing::LatticeObjects(kDomain, 2.5);
  objects.insert(objects.end(), lattice.begin(), lattice.end());
  const GridIndex::GridSpec spec{kDomain, 2.5};
  for (const RTree::Options& options :
       {RTree::Options{}, RTree::Options{4, 3}}) {
    const RTree plain = RTree::Build(objects, options);
    const RTree gridded = RTree::Build(objects, options, spec);
    ASSERT_EQ(gridded.size(), plain.size());
    EXPECT_EQ(gridded.height(), plain.height());
    EXPECT_EQ(gridded.total(), plain.total());
    // The run bits are the only extra memory.
    EXPECT_GT(gridded.MemoryUsage(), plain.MemoryUsage());
    EXPECT_LE(gridded.MemoryUsage() - plain.MemoryUsage(),
              objects.size() / 8 + sizeof(uint64_t));
    Rng rng(23);
    for (int q = 0; q < 45; ++q) {
      const QueryRange range = PerCellRange(q, spec, &rng);
      RTree::QueryStats plain_stats;
      RTree::QueryStats gridded_stats;
      EXPECT_EQ(gridded.RangeAggregate(range, &gridded_stats),
                plain.RangeAggregate(range, &plain_stats))
          << "query " << q;
      EXPECT_EQ(gridded_stats.nodes_visited, plain_stats.nodes_visited);
      EXPECT_EQ(gridded_stats.objects_tested, plain_stats.objects_tested);
      EXPECT_EQ(gridded_stats.subtrees_taken, plain_stats.subtrees_taken);

      std::vector<SpatialObject> from_plain;
      std::vector<SpatialObject> from_gridded;
      plain.CollectInRange(range, &from_plain);
      gridded.CollectInRange(range, &from_gridded);
      const auto less = [](const SpatialObject& a, const SpatialObject& b) {
        return std::tuple(a.location.x, a.location.y, a.measure) <
               std::tuple(b.location.x, b.location.y, b.measure);
      };
      std::sort(from_plain.begin(), from_plain.end(), less);
      std::sort(from_gridded.begin(), from_gridded.end(), less);
      EXPECT_EQ(from_gridded, from_plain) << "query " << q;
    }
  }
}

TEST(RTreeTest, CollectInRangeReturnsExactlyTheContainedObjects) {
  const ObjectSet objects = testing::RandomObjects(500, kDomain, 5);
  const RTree tree = RTree::Build(objects);
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 20);

  std::vector<SpatialObject> collected;
  tree.CollectInRange(range, &collected);

  std::vector<SpatialObject> expected;
  for (const SpatialObject& o : objects) {
    if (range.Contains(o.location)) expected.push_back(o);
  }
  auto key = [](const SpatialObject& o) {
    return std::tuple(o.location.x, o.location.y, o.measure);
  };
  auto less = [&key](const SpatialObject& a, const SpatialObject& b) {
    return key(a) < key(b);
  };
  std::sort(collected.begin(), collected.end(), less);
  std::sort(expected.begin(), expected.end(), less);
  EXPECT_EQ(collected, expected);
}

TEST(RTreeTest, QueryStatsShowLogarithmicWork) {
  const ObjectSet objects = testing::RandomObjects(50000, kDomain, 9);
  const RTree tree = RTree::Build(objects);
  RTree::QueryStats stats;
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 10);
  tree.RangeAggregate(range, &stats);
  // ~7850 objects fall in the range; pruning + covered subtrees must keep
  // individually tested objects way below that.
  EXPECT_GT(stats.subtrees_taken, 0UL);
  EXPECT_LT(stats.objects_tested, 6000UL);
  EXPECT_LT(stats.nodes_visited, 2000UL);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTree::Options options;
  options.leaf_capacity = 4;
  options.fanout = 4;
  const RTree small = RTree::Build(testing::RandomObjects(16, kDomain, 1),
                                   options);
  const RTree large = RTree::Build(testing::RandomObjects(4096, kDomain, 1),
                                   options);
  EXPECT_LE(small.height(), 3);
  EXPECT_GE(large.height(), 5);
  EXPECT_LE(large.height(), 8);
}

TEST(RTreeTest, MemoryUsageScalesWithInput) {
  const RTree small = RTree::Build(testing::RandomObjects(100, kDomain, 2));
  const RTree large = RTree::Build(testing::RandomObjects(10000, kDomain, 2));
  EXPECT_GT(small.MemoryUsage(), 0UL);
  EXPECT_GT(large.MemoryUsage(), small.MemoryUsage() * 10);
}

TEST(RTreeTest, DuplicateLocationsAreAllCounted) {
  ObjectSet objects;
  for (int i = 0; i < 100; ++i) objects.push_back({{5.0, 5.0}, 1.0});
  const RTree tree = RTree::Build(objects);
  const AggregateSummary result =
      tree.RangeAggregate(QueryRange::MakeCircle({5, 5}, 0.1));
  EXPECT_EQ(result.count, 100UL);
  EXPECT_DOUBLE_EQ(result.sum, 100.0);
}

TEST(RTreeTest, BoundaryObjectsAreIncluded) {
  const ObjectSet objects = {{{3, 4}, 1.0}};  // at distance exactly 5
  const RTree tree = RTree::Build(objects);
  EXPECT_EQ(tree.RangeAggregate(QueryRange::MakeCircle({0, 0}, 5)).count, 1UL);
  EXPECT_EQ(tree.RangeAggregate(QueryRange::MakeRect({3, 4}, {10, 10})).count,
            1UL);
}

}  // namespace
}  // namespace fra
