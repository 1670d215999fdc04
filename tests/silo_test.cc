#include "federation/silo.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {50, 50}};

Silo::Options DefaultOptions() {
  Silo::Options options;
  options.grid_spec.domain = kDomain;
  options.grid_spec.cell_length = 2.0;
  return options;
}

std::unique_ptr<Silo> MakeSilo(const ObjectSet& objects,
                               Silo::Options options) {
  return Silo::Create(0, objects, options).ValueOrDie();
}

TEST(SiloTest, ExactAggregateMatchesBruteForce) {
  const ObjectSet objects = testing::ClusteredObjects(3000, kDomain, 3, 1);
  const auto silo = MakeSilo(objects, DefaultOptions());
  EXPECT_EQ(silo->size(), objects.size());

  Rng rng(2);
  for (int q = 0; q < 30; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 10.0, q % 2 == 0, &rng);
    const AggregateSummary expected = SummarizeIf(
        objects, [&](const Point& p) { return range.Contains(p); });
    EXPECT_EQ(silo->ExactRangeAggregate(range).count, expected.count);
    EXPECT_NEAR(silo->ExactRangeAggregate(range).sum, expected.sum, 1e-9);
  }
}

TEST(SiloTest, GridTotalsMatchPartition) {
  const ObjectSet objects = testing::RandomObjects(1000, kDomain, 3);
  const auto silo = MakeSilo(objects, DefaultOptions());
  EXPECT_EQ(silo->grid().total().count, 1000UL);
  EXPECT_EQ(silo->total().count, 1000UL);
}

TEST(SiloTest, LsrAggregateApproximatesExact) {
  const ObjectSet objects = testing::RandomObjects(50000, kDomain, 4);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 10);
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  ASSERT_GT(exact.count, 1000UL);

  int level = -1;
  const AggregateSummary approx = silo->LsrRangeAggregate(
      range, 0.1, 0.01, static_cast<double>(exact.count), &level);
  EXPECT_GT(level, 0);
  const double error = std::abs(static_cast<double>(approx.count) -
                                static_cast<double>(exact.count)) /
                       static_cast<double>(exact.count);
  EXPECT_LT(error, 0.25);
}

TEST(SiloTest, LsrFallsBackToExactWhenDisabled) {
  Silo::Options options = DefaultOptions();
  options.build_lsr = false;
  const ObjectSet objects = testing::RandomObjects(5000, kDomain, 5);
  const auto silo = MakeSilo(objects, options);
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 10);
  // Forest has a single level; any epsilon yields the exact answer.
  EXPECT_EQ(silo->LsrRangeAggregate(range, 0.25, 0.05, 1e9).count,
            silo->ExactRangeAggregate(range).count);
}

TEST(SiloTest, HistogramEstimateAvailableByDefault) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 6);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 15);
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  const AggregateSummary estimate =
      silo->HistogramEstimate(range).ValueOrDie();
  const double error = std::abs(static_cast<double>(estimate.count) -
                                static_cast<double>(exact.count)) /
                       static_cast<double>(exact.count);
  EXPECT_LT(error, 0.3);
}

TEST(SiloTest, HistogramUnavailableWhenDisabled) {
  Silo::Options options = DefaultOptions();
  options.build_histogram = false;
  const auto silo = MakeSilo(testing::RandomObjects(100, kDomain, 7), options);
  EXPECT_TRUE(silo->HistogramEstimate(QueryRange::MakeCircle({0, 0}, 1))
                  .status()
                  .IsUnavailable());
}

TEST(SiloTest, BoundaryCellContributionsCoverOnlyPartialCells) {
  const ObjectSet objects = testing::RandomObjects(10000, kDomain, 8);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 8);

  const std::vector<CellContribution> contributions =
      silo->BoundaryCellContributions(range, false, 0.1, 0.01, 0.0);
  ASSERT_FALSE(contributions.empty());

  const GridIndex& grid = silo->grid();
  // The reported cells are exactly the kPartial cells in enumeration order.
  std::vector<uint32_t> expected_ids;
  grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation relation) {
    if (relation == CellRelation::kPartial) {
      expected_ids.push_back(static_cast<uint32_t>(id));
    }
  });
  ASSERT_EQ(contributions.size(), expected_ids.size());
  for (size_t i = 0; i < contributions.size(); ++i) {
    EXPECT_EQ(contributions[i].cell_id, expected_ids[i]);
    // Each contribution aggregates this silo's objects within the range
    // that the grid assigns to the cell.
    const AggregateSummary expected =
        testing::CellReference(objects, grid, expected_ids[i], range);
    EXPECT_EQ(contributions[i].summary.count, expected.count) << "cell " << i;
  }
}

// Interior (contained grid cells) plus boundary contributions of `silo`.
AggregateSummary InteriorPlusBoundary(const Silo& silo,
                                      const QueryRange& range) {
  AggregateSummary total;
  silo.grid().ForEachIntersectingCell(
      range, [&](size_t id, CellRelation relation) {
        if (relation == CellRelation::kContained) {
          total.Merge(silo.grid().cell(id));
        }
      });
  for (const CellContribution& c :
       silo.BoundaryCellContributions(range, false, 0.1, 0.01, 0.0)) {
    total.Merge(c.summary);
  }
  return total;
}

TEST(SiloTest, ObjectsOnACellEdgeCountOnce) {
  // Ten objects on x = 20, the edge shared by two boundary cells of the
  // circle, and three on y = 18, the edge between a boundary cell and a
  // contained one. Each counts once, in the cell CellOf assigns it.
  ObjectSet objects;
  for (int i = 0; i < 10; ++i) objects.push_back({{20.0, 17.05 + 0.1 * i}, 1});
  for (double x : {18.5, 19.0, 19.5}) objects.push_back({{x, 18.0}, 2});
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({20, 20}, 3);

  const AggregateSummary total = InteriorPlusBoundary(*silo, range);
  EXPECT_EQ(total.count, 13UL);
  EXPECT_DOUBLE_EQ(total.sum, 16.0);
  EXPECT_EQ(silo->ExactRangeAggregate(range).count, 13UL);
  for (const CellContribution& c :
       silo->BoundaryCellContributions(range, false, 0.1, 0.01, 0.0)) {
    EXPECT_EQ(c.summary.count,
              testing::CellReference(objects, silo->grid(), c.cell_id, range)
                  .count)
        << "cell " << c.cell_id;
  }
}

TEST(SiloTest, EmptySiloAnswersZeroContributions) {
  const auto silo = MakeSilo({}, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({25, 25}, 5);
  size_t intersecting = 0;
  silo->grid().ForEachIntersectingCell(
      range, [&](size_t, CellRelation) { ++intersecting; });
  for (bool use_lsr : {false, true}) {
    const std::vector<CellContribution> boundary =
        silo->BoundaryCellContributions(range, use_lsr, 0.1, 0.01, 100.0);
    EXPECT_FALSE(boundary.empty());
    for (const CellContribution& c : boundary) EXPECT_TRUE(c.summary.empty());
    const std::vector<CellContribution> all =
        silo->AllCellContributions(range, use_lsr, 0.1, 0.01, 100.0);
    EXPECT_EQ(all.size(), intersecting);
    for (const CellContribution& c : all) EXPECT_TRUE(c.summary.empty());
  }
}

TEST(SiloTest, CellContributionsMatchCellOfPredicateWithIngestDelta) {
  Silo::Options options = DefaultOptions();
  options.compact_fraction = 0.0;  // keep the ingest delta uncompacted
  ObjectSet objects = testing::RandomObjects(4000, kDomain, 16);
  const ObjectSet lattice = testing::LatticeObjects(kDomain, 1.0);
  objects.insert(objects.end(), lattice.begin(), lattice.end());
  const auto silo = MakeSilo(objects, options);
  // The delta repeats part of the lattice, so it has objects on edges too.
  ObjectSet batch = testing::RandomObjects(500, kDomain, 17);
  batch.insert(batch.end(), lattice.begin(), lattice.begin() + 600);
  silo->Ingest(batch);
  ASSERT_EQ(silo->pending_ingest(), batch.size());
  objects.insert(objects.end(), batch.begin(), batch.end());

  const GridIndex& grid = silo->grid();
  Rng rng(18);
  for (int q = 0; q < 24; ++q) {
    const QueryRange range =
        q % 3 == 2 ? testing::RandomGridAlignedRect(grid.spec(), 8.0, &rng)
                   : testing::RandomRange(kDomain, 8.0, q % 3 == 0, &rng);
    std::vector<uint32_t> all_ids;
    std::vector<uint32_t> boundary_ids;
    grid.ForEachIntersectingCell(range, [&](size_t id, CellRelation rel) {
      all_ids.push_back(static_cast<uint32_t>(id));
      if (rel == CellRelation::kPartial) {
        boundary_ids.push_back(static_cast<uint32_t>(id));
      }
    });
    // sum0 = 0 picks level 0, so the LSR path answers exactly too.
    for (bool use_lsr : {false, true}) {
      const auto check = [&](const std::vector<CellContribution>& got,
                             const std::vector<uint32_t>& ids) {
        ASSERT_EQ(got.size(), ids.size()) << "query " << q;
        for (size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ(got[i].cell_id, ids[i]);
          const AggregateSummary expected =
              testing::CellReference(objects, grid, ids[i], range);
          EXPECT_EQ(got[i].summary.count, expected.count) << "query " << q;
          EXPECT_NEAR(got[i].summary.sum, expected.sum, 1e-9);
        }
      };
      check(silo->BoundaryCellContributions(range, use_lsr, 0.1, 0.01, 0.0),
            boundary_ids);
      check(silo->AllCellContributions(range, use_lsr, 0.1, 0.01, 0.0),
            all_ids);
    }
    EXPECT_EQ(InteriorPlusBoundary(*silo, range).count,
              silo->ExactRangeAggregate(range).count)
        << "query " << q;
  }
}

TEST(SiloTest, CellContributionsMatchCellOfPredicateAfterCompaction) {
  ObjectSet objects = testing::RandomObjects(4000, kDomain, 19);
  const ObjectSet lattice = testing::LatticeObjects(kDomain, 1.0);
  objects.insert(objects.end(), lattice.begin(), lattice.end());
  const auto silo = MakeSilo(objects, DefaultOptions());
  // A batch over the 2% compaction threshold, part of it on cell edges:
  // the forest is rebuilt over the base plus the batch.
  ObjectSet batch = testing::RandomObjects(300, kDomain, 20);
  batch.insert(batch.end(), lattice.begin(), lattice.begin() + 200);
  silo->Ingest(batch);
  ASSERT_EQ(silo->pending_ingest(), 0UL);
  objects.insert(objects.end(), batch.begin(), batch.end());
  ASSERT_EQ(silo->size(), objects.size());

  const GridIndex& grid = silo->grid();
  Rng rng(21);
  for (int q = 0; q < 24; ++q) {
    const QueryRange range =
        q % 3 == 2 ? testing::RandomGridAlignedRect(grid.spec(), 8.0, &rng)
                   : testing::RandomRange(kDomain, 8.0, q % 3 == 0, &rng);
    const std::vector<uint32_t> boundary_ids =
        grid.ClassifyRangeCells(range).boundary_cells;
    // sum0 = 0 picks level 0, so the LSR path answers exactly too.
    for (bool use_lsr : {false, true}) {
      const std::vector<CellContribution> got =
          silo->BoundaryCellContributions(range, use_lsr, 0.1, 0.01, 0.0);
      ASSERT_EQ(got.size(), boundary_ids.size()) << "query " << q;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].cell_id, boundary_ids[i]);
        const AggregateSummary expected =
            testing::CellReference(objects, grid, boundary_ids[i], range);
        EXPECT_EQ(got[i].summary.count, expected.count) << "query " << q;
        EXPECT_NEAR(got[i].summary.sum, expected.sum, 1e-9) << "query " << q;
      }
    }
  }
}

TEST(SiloTest, BoundaryPlusInteriorEqualsExact) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 9);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const QueryRange range = QueryRange::MakeCircle({20, 30}, 9);

  AggregateSummary interior;
  silo->grid().ForEachIntersectingCell(
      range, [&](size_t id, CellRelation relation) {
        if (relation == CellRelation::kContained) {
          interior.Merge(silo->grid().cell(id));
        }
      });
  AggregateSummary boundary;
  for (const CellContribution& c :
       silo->BoundaryCellContributions(range, false, 0.1, 0.01, 0.0)) {
    boundary.Merge(c.summary);
  }
  const AggregateSummary exact = silo->ExactRangeAggregate(range);
  EXPECT_EQ(interior.count + boundary.count, exact.count);
  EXPECT_NEAR(interior.sum + boundary.sum, exact.sum, 1e-9);
}

TEST(SiloTest, HandleMessageGridRequest) {
  const ObjectSet objects = testing::RandomObjects(500, kDomain, 10);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const auto response =
      silo->HandleMessage(EncodeBuildGridRequest()).ValueOrDie();
  const std::vector<uint8_t> grid_bytes =
      DecodeGridPayloadResponse(response).ValueOrDie();
  BinaryReader reader(grid_bytes);
  GridIndex grid;
  ASSERT_TRUE(GridIndex::Deserialize(&reader, &grid).ok());
  EXPECT_EQ(grid.total().count, 500UL);
}

TEST(SiloTest, HandleMessageAggregateRequest) {
  const ObjectSet objects = testing::RandomObjects(2000, kDomain, 11);
  const auto silo = MakeSilo(objects, DefaultOptions());
  AggregateRequest request;
  request.range = QueryRange::MakeCircle({25, 25}, 10);
  request.mode = LocalQueryMode::kExact;
  const auto response = silo->HandleMessage(request.Encode()).ValueOrDie();
  const AggregateSummary summary =
      DecodeSummaryResponse(response).ValueOrDie();
  EXPECT_EQ(summary.count, silo->ExactRangeAggregate(request.range).count);
}

TEST(SiloTest, HandleMessageMalformedRequestYieldsErrorResponse) {
  const auto silo =
      MakeSilo(testing::RandomObjects(10, kDomain, 12), DefaultOptions());
  // Valid type tag but truncated body.
  std::vector<uint8_t> malformed = {
      static_cast<uint8_t>(MessageType::kAggregateRequest), 0};
  const auto response = silo->HandleMessage(malformed).ValueOrDie();
  EXPECT_FALSE(DecodeSummaryResponse(response).ok());
}

TEST(SiloTest, HandleMessageUnknownTypeYieldsErrorResponse) {
  const auto silo =
      MakeSilo(testing::RandomObjects(10, kDomain, 13), DefaultOptions());
  const auto response =
      silo->HandleMessage({static_cast<uint8_t>(
          MessageType::kSummaryResponse)}).ValueOrDie();
  EXPECT_TRUE(DecodeSummaryResponse(response).status().IsInvalidArgument());
}

TEST(SiloTest, MemoryBreakdownIsPlausible) {
  const ObjectSet objects = testing::RandomObjects(20000, kDomain, 14);
  const auto silo = MakeSilo(objects, DefaultOptions());
  const Silo::IndexMemory memory = silo->MemoryUsage();
  EXPECT_GT(memory.rtree_bytes, 0UL);
  EXPECT_GT(memory.lsr_extra_bytes, 0UL);
  EXPECT_GT(memory.grid_bytes, 0UL);
  EXPECT_GT(memory.histogram_bytes, 0UL);
  // The LSR levels above T_0 together hold about as many objects as T_0.
  EXPECT_LT(memory.lsr_extra_bytes, 2 * memory.rtree_bytes);
}

TEST(SiloTest, CreateRejectsBadGridSpec) {
  Silo::Options options;
  options.grid_spec.domain = Rect::Empty();
  options.grid_spec.cell_length = 1.0;
  EXPECT_FALSE(Silo::Create(0, testing::RandomObjects(10, kDomain, 15),
                            options)
                   .ok());
}

}  // namespace
}  // namespace fra
