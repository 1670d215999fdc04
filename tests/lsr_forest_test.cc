#include "core/lsr_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "index/grid_index.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {100, 100}};

TEST(LsrForestTest, EmptyForest) {
  const GridIndex grid = GridIndex::Build({}, {kDomain, 10.0}).ValueOrDie();
  const LsrForest forest =
      LsrForest::Build({}, LsrForest::Options(), grid.spec());
  EXPECT_EQ(forest.num_levels(), 0);
  EXPECT_EQ(forest.size(), 0UL);
  EXPECT_TRUE(forest
                  .ApproximateRangeAggregate(
                      QueryRange::MakeCircle({0, 0}, 1), 0.1, 0.01, 0.0)
                  .empty());
  // Per-cell answers on an empty forest: one zero summary per slot.
  const std::vector<AggregateSummary> cells = forest.AggregateByCellAtLevel(
      QueryRange::MakeCircle({0, 0}, 1), CellSlots(grid, {0, 1}), 3);
  ASSERT_EQ(cells.size(), 2UL);
  EXPECT_TRUE(cells[0].empty());
  EXPECT_TRUE(cells[1].empty());
}

TEST(LsrForestTest, NumLevelsIsLogN) {
  const ObjectSet objects = testing::RandomObjects(1024, kDomain, 1);
  const LsrForest forest = LsrForest::Build(objects);
  EXPECT_EQ(forest.num_levels(), 11);  // 1 + log2(1024)
  EXPECT_EQ(forest.tree(0).size(), 1024UL);
}

TEST(LsrForestTest, LevelSizesHalveInExpectation) {
  const ObjectSet objects = testing::RandomObjects(65536, kDomain, 2);
  const LsrForest forest = LsrForest::Build(objects);
  for (int level = 1; level < forest.num_levels(); ++level) {
    const double expected =
        static_cast<double>(objects.size()) / std::pow(2.0, level);
    const double actual = static_cast<double>(forest.tree(level).size());
    if (expected >= 256.0) {
      EXPECT_NEAR(actual, expected, 5.0 * std::sqrt(expected))
          << "level " << level;
    }
    // Monotone: each level samples from the previous one.
    EXPECT_LE(forest.tree(level).size(), forest.tree(level - 1).size());
  }
}

TEST(LsrForestTest, MaxLevelsOptionCapsTheStack) {
  const ObjectSet objects = testing::RandomObjects(4096, kDomain, 3);
  LsrForest::Options options;
  options.max_levels = 1;
  const LsrForest forest = LsrForest::Build(objects, options);
  EXPECT_EQ(forest.num_levels(), 1);
  EXPECT_EQ(forest.tree(0).size(), 4096UL);
}

TEST(LsrForestTest, DeterministicGivenSeed) {
  const ObjectSet objects = testing::RandomObjects(2048, kDomain, 4);
  LsrForest::Options options;
  options.seed = 99;
  const LsrForest a = LsrForest::Build(objects, options);
  const LsrForest b = LsrForest::Build(objects, options);
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int level = 0; level < a.num_levels(); ++level) {
    EXPECT_EQ(a.tree(level).size(), b.tree(level).size());
  }
}

TEST(LsrForestTest, Level0IsExact) {
  const ObjectSet objects = testing::ClusteredObjects(3000, kDomain, 4, 5);
  const LsrForest forest = LsrForest::Build(objects);
  Rng rng(6);
  for (int q = 0; q < 20; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 20.0, true, &rng);
    const AggregateSummary expected = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    EXPECT_EQ(forest.ExactRangeAggregate(range).count, expected.count);
    EXPECT_EQ(forest.AggregateAtLevel(range, 0).count, expected.count);
  }
}

// --- Lemma 1 level selection -------------------------------------------

TEST(SelectLevelTest, FormulaMatchesLemma1) {
  // l = floor(log2(eps^2 * sum0 / (3 ln(2/delta)))).
  const double eps = 0.1;
  const double delta = 0.01;
  const double sum0 = 1e6;
  const double budget = eps * eps * sum0 / (3.0 * std::log(2.0 / delta));
  const int expected = static_cast<int>(std::floor(std::log2(budget)));
  EXPECT_EQ(LsrForest::SelectLevel(eps, delta, sum0, 100), expected);
}

TEST(SelectLevelTest, ClampsToForestHeight) {
  EXPECT_EQ(LsrForest::SelectLevel(0.5, 0.01, 1e12, 5), 5);
}

TEST(SelectLevelTest, SmallBudgetFallsBackToExactLevel) {
  EXPECT_EQ(LsrForest::SelectLevel(0.05, 0.01, 100.0, 20), 0);
  EXPECT_EQ(LsrForest::SelectLevel(0.1, 0.01, 0.0, 20), 0);
  EXPECT_EQ(LsrForest::SelectLevel(0.1, 0.01, -5.0, 20), 0);
}

TEST(SelectLevelTest, MonotoneInEpsilonAndSum0) {
  int previous = 0;
  for (double eps : {0.05, 0.10, 0.15, 0.20, 0.25}) {
    const int level = LsrForest::SelectLevel(eps, 0.01, 1e6, 100);
    EXPECT_GE(level, previous);
    previous = level;
  }
  previous = 0;
  for (double sum0 : {1e3, 1e4, 1e5, 1e6}) {
    const int level = LsrForest::SelectLevel(0.1, 0.01, sum0, 100);
    EXPECT_GE(level, previous);
    previous = level;
  }
}

TEST(SelectLevelTest, MonotoneInDelta) {
  // Larger delta (weaker guarantee) permits a higher level.
  int previous = 0;
  for (double delta : {0.01, 0.02, 0.03, 0.04, 0.05}) {
    const int level = LsrForest::SelectLevel(0.1, delta, 1e6, 100);
    EXPECT_GE(level, previous);
    previous = level;
  }
}

// --- Statistical properties of the Alg. 6 estimate ----------------------

TEST(LsrForestTest, EstimateIsUnbiasedAcrossSeeds) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 7);
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 15);
  const AggregateSummary exact = SummarizeIf(
      objects, [&](const Point& p) { return range.Contains(p); });
  ASSERT_GT(exact.count, 500UL);

  RunningStat estimates;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    LsrForest::Options options;
    options.seed = seed * 7919 + 3;
    const LsrForest forest = LsrForest::Build(objects, options);
    const AggregateSummary estimate = forest.AggregateAtLevel(range, 3);
    estimates.Add(static_cast<double>(estimate.count));
  }
  const double exact_count = static_cast<double>(exact.count);
  // Mean over independent forests approaches the true count; allow 3
  // standard errors.
  const double standard_error =
      estimates.stddev() / std::sqrt(static_cast<double>(estimates.count()));
  EXPECT_NEAR(estimates.mean(), exact_count,
              3.0 * standard_error + 0.01 * exact_count);
}

TEST(LsrForestTest, Lemma1EmpiricalCoverage) {
  // Alg. 6 must be an eps-approximation with probability >= 1 - delta.
  // Check the empirical failure frequency over independent forests.
  const ObjectSet objects = testing::RandomObjects(30000, kDomain, 11);
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 20);
  const AggregateSummary exact = SummarizeIf(
      objects, [&](const Point& p) { return range.Contains(p); });
  ASSERT_GT(exact.count, 1000UL);

  const double eps = 0.2;
  const double delta = 0.05;
  const double sum0 = static_cast<double>(exact.count);  // ideal rough bound

  int failures = 0;
  constexpr int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    LsrForest::Options options;
    options.seed = trial * 104729 + 17;
    const LsrForest forest = LsrForest::Build(objects, options);
    const AggregateSummary estimate =
        forest.ApproximateRangeAggregate(range, eps, delta, sum0);
    const double error =
        std::abs(static_cast<double>(estimate.count) -
                 static_cast<double>(exact.count)) /
        static_cast<double>(exact.count);
    if (error > eps) ++failures;
  }
  // Allow generous slack over delta for finite trials (binomial noise).
  EXPECT_LE(failures, static_cast<int>(kTrials * (delta + 0.10)));
}

TEST(LsrForestTest, LevelUsedIsReported) {
  const ObjectSet objects = testing::RandomObjects(16384, kDomain, 12);
  const LsrForest forest = LsrForest::Build(objects);
  int level = -1;
  forest.ApproximateRangeAggregate(QueryRange::MakeCircle({50, 50}, 30), 0.2,
                                   0.05, 1e5, &level);
  EXPECT_EQ(level,
            LsrForest::SelectLevel(0.2, 0.05, 1e5, forest.max_level()));
  EXPECT_GT(level, 0);
}

TEST(LsrForestTest, PerCellAggregateAtLevelMatchesScaledPredicate) {
  ObjectSet objects = testing::RandomObjects(20000, kDomain, 13);
  const ObjectSet lattice = testing::LatticeObjects(kDomain, 1.25);
  objects.insert(objects.end(), lattice.begin(), lattice.end());
  const GridIndex grid =
      GridIndex::Build(objects, {kDomain, 2.5}).ValueOrDie();
  const LsrForest forest =
      LsrForest::Build(objects, LsrForest::Options(), grid.spec());
  Rng rng(17);
  for (int q = 0; q < 12; ++q) {
    const QueryRange range =
        q % 3 == 2 ? testing::RandomGridAlignedRect(grid.spec(), 15.0, &rng)
                   : testing::RandomRange(kDomain, 15.0, q % 3 == 0, &rng);
    std::vector<uint32_t> boundary;
    grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation rel) {
      if (rel == CellRelation::kPartial) {
        boundary.push_back(static_cast<uint32_t>(id));
      }
    });
    const CellSlots slots(grid, boundary);
    // Level 0, a sampled level, and one past the top (clamped).
    for (int level : {0, 4, forest.max_level() + 3}) {
      const int l = std::min(level, forest.max_level());
      const std::vector<AggregateSummary> answers =
          forest.AggregateByCellAtLevel(range, slots, level);
      ASSERT_EQ(answers.size(), boundary.size());
      for (size_t i = 0; i < boundary.size(); ++i) {
        const AggregateSummary expected =
            testing::CellReference(forest.tree(l).objects(), grid,
                                   boundary[i], range)
                .Scaled(std::ldexp(1.0, l));
        EXPECT_EQ(answers[i].count, expected.count) << "level " << l;
        EXPECT_NEAR(answers[i].sum, expected.sum, 1e-6) << "level " << l;
      }
    }
  }
}

TEST(LsrForestTest, MemoryIsAboutTwiceTheBaseTree) {
  const ObjectSet objects = testing::RandomObjects(50000, kDomain, 14);
  const LsrForest forest = LsrForest::Build(objects);
  const size_t base = forest.tree(0).MemoryUsage();
  EXPECT_GT(forest.MemoryUsage(), base);
  EXPECT_LT(forest.MemoryUsage(), 3 * base);
}

TEST(LsrForestTest, HigherLevelsAreFasterToQuery) {
  const ObjectSet objects = testing::ClusteredObjects(100000, kDomain, 5, 15);
  const LsrForest forest = LsrForest::Build(objects);
  const QueryRange range = QueryRange::MakeCircle({50, 50}, 25);
  RTree::QueryStats low_stats;
  RTree::QueryStats high_stats;
  forest.AggregateAtLevel(range, 0, &low_stats);
  forest.AggregateAtLevel(range, 6, &high_stats);
  EXPECT_LT(high_stats.nodes_visited, low_stats.nodes_visited);
}

}  // namespace
}  // namespace fra
