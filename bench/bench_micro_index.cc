// Micro-benchmarks (google-benchmark) backing the paper's complexity
// analyses: R-tree build & range aggregation, the silo's per-cell
// descent, grid prefix-sum queries, LSR-Forest per-level query cost.

#include <benchmark/benchmark.h>

#include "core/lsr_forest.h"
#include "data/generator.h"
#include "index/equi_depth_histogram.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "util/random.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {145, 276}};

ObjectSet MakeObjects(size_t n) {
  Rng rng(42);
  ObjectSet objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    objects.push_back({{rng.NextDouble(kDomain.min.x, kDomain.max.x),
                        rng.NextDouble(kDomain.min.y, kDomain.max.y)},
                       static_cast<double>(rng.NextInt64(0, 4))});
  }
  return objects;
}

std::vector<QueryRange> MakeQueries(size_t n, double radius) {
  Rng rng(7);
  std::vector<QueryRange> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(QueryRange::MakeCircle(
        {rng.NextDouble(kDomain.min.x, kDomain.max.x),
         rng.NextDouble(kDomain.min.y, kDomain.max.y)},
        radius));
  }
  return queries;
}

void BM_RTreeBuild(benchmark::State& state) {
  const ObjectSet objects = MakeObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RTree tree = RTree::Build(objects);
    benchmark::DoNotOptimize(tree.total().count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuild)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_RTreeRangeAggregate(benchmark::State& state) {
  const RTree tree =
      RTree::Build(MakeObjects(static_cast<size_t>(state.range(0))));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.RangeAggregate(queries[i++ % queries.size()]).count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeRangeAggregate)
    ->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// A silo's NonIID-est answer (Alg. 3): one per-cell descent answering the
// boundary cells of a 2 km circle centred on data, over a clustered
// 250k-object tree built on 1.5 km cells (the paper-default grid length).
void BM_RTreeRangeAggregateByCell(benchmark::State& state) {
  MobilityDataOptions data_options;
  data_options.num_objects = 250000;
  ObjectSet objects;
  for (const ObjectSet& part :
       GenerateMobilityData(data_options).ValueOrDie().company_partitions) {
    objects.insert(objects.end(), part.begin(), part.end());
  }
  const GridIndex::GridSpec spec{data_options.domain, 1.5};
  const GridIndex grid = GridIndex::Build(objects, spec).ValueOrDie();
  const RTree tree = RTree::Build(objects, RTree::Options(), spec);
  Rng rng(7);
  std::vector<QueryRange> queries;
  std::vector<CellSlots> slots;
  for (int q = 0; q < 512; ++q) {
    queries.push_back(QueryRange::MakeCircle(
        objects[rng.NextUint64(objects.size())].location, 2.0));
    slots.emplace_back(grid,
                       grid.ClassifyRangeCells(queries.back()).boundary_cells);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t q = i++ % queries.size();
    benchmark::DoNotOptimize(
        tree.RangeAggregateByCell(queries[q], slots[q]).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeRangeAggregateByCell)->Unit(benchmark::kMicrosecond);

void BM_GridIntersectingAggregate(benchmark::State& state) {
  GridIndex::GridSpec spec;
  spec.domain = kDomain;
  spec.cell_length = 1.5;
  const GridIndex grid =
      GridIndex::Build(MakeObjects(static_cast<size_t>(state.range(0))), spec)
          .ValueOrDie();
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.IntersectingCellsAggregate(queries[i++ % queries.size()]).count);
  }
}
BENCHMARK(BM_GridIntersectingAggregate)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_GridNaiveAggregate(benchmark::State& state) {
  GridIndex::GridSpec spec;
  spec.domain = kDomain;
  spec.cell_length = 1.5;
  const GridIndex grid =
      GridIndex::Build(MakeObjects(static_cast<size_t>(state.range(0))), spec)
          .ValueOrDie();
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.IntersectingCellsAggregateNaive(queries[i++ % queries.size()])
            .count);
  }
}
BENCHMARK(BM_GridNaiveAggregate)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_LsrForestQueryAtLevel(benchmark::State& state) {
  static const LsrForest* forest = [] {
    return new LsrForest(LsrForest::Build(MakeObjects(1000000)));
  }();
  const int level = static_cast<int>(state.range(0));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forest->AggregateAtLevel(queries[i++ % queries.size()], level)
            .count);
  }
}
BENCHMARK(BM_LsrForestQueryAtLevel)->DenseRange(0, 12, 3)
    ->Unit(benchmark::kMicrosecond);

void BM_HistogramEstimate(benchmark::State& state) {
  const EquiDepthHistogram hist =
      EquiDepthHistogram::Build(MakeObjects(1000000));
  const auto queries = MakeQueries(512, 2.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hist.Estimate(queries[i++ % queries.size()]).count);
  }
}
BENCHMARK(BM_HistogramEstimate)->Unit(benchmark::kMicrosecond);

void BM_LsrForestBuild(benchmark::State& state) {
  const ObjectSet objects = MakeObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LsrForest forest = LsrForest::Build(objects);
    benchmark::DoNotOptimize(forest.num_levels());
  }
}
BENCHMARK(BM_LsrForestBuild)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fra

BENCHMARK_MAIN();
