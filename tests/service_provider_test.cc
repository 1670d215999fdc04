#include "federation/service_provider.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/brute_force.h"
#include "federation/federation.h"
#include "tests/test_util.h"
#include "util/trace.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {60, 60}};

// IID partitions: one uniform pool dealt round-robin to m silos.
std::vector<ObjectSet> IidPartitions(size_t total, size_t silos,
                                     uint64_t seed) {
  const ObjectSet all = testing::RandomObjects(total, kDomain, seed);
  std::vector<ObjectSet> partitions(silos);
  for (size_t i = 0; i < all.size(); ++i) {
    partitions[i % silos].push_back(all[i]);
  }
  return partitions;
}

// Non-IID partitions: every silo covers the whole domain thinly but
// focuses most of its mass on its own cluster.
std::vector<ObjectSet> NonIidPartitions(size_t per_silo, size_t silos,
                                        uint64_t seed) {
  std::vector<ObjectSet> partitions(silos);
  Rng rng(seed);
  for (size_t s = 0; s < silos; ++s) {
    const Point focus{rng.NextDouble(10, 50), rng.NextDouble(10, 50)};
    for (size_t i = 0; i < per_silo; ++i) {
      SpatialObject o;
      if (rng.NextBernoulli(0.3)) {
        o.location = {rng.NextDouble(0, 60), rng.NextDouble(0, 60)};
      } else {
        do {
          o.location = {rng.NextGaussian(focus.x, 5.0),
                        rng.NextGaussian(focus.y, 5.0)};
        } while (!kDomain.Contains(o.location));
      }
      o.measure = static_cast<double>(rng.NextInt64(0, 4));
      partitions[s].push_back(o);
    }
  }
  return partitions;
}

std::unique_ptr<Federation> MakeFederation(std::vector<ObjectSet> partitions,
                                           double cell_length = 2.0) {
  FederationOptions options;
  options.silo.grid_spec.domain = kDomain;
  options.silo.grid_spec.cell_length = cell_length;
  return Federation::Create(std::move(partitions), options).ValueOrDie();
}

TEST(ServiceProviderTest, CreateRequiresSilos) {
  InProcessNetwork network;
  EXPECT_TRUE(
      ServiceProvider::Create(&network).status().IsInvalidArgument());
  EXPECT_TRUE(ServiceProvider::Create(nullptr).status().IsInvalidArgument());
}

TEST(ServiceProviderTest, CreateValidatesOptions) {
  auto partitions = IidPartitions(100, 2, 1);
  FederationOptions options;
  options.silo.grid_spec.domain = kDomain;
  options.provider.epsilon = -1.0;
  EXPECT_FALSE(Federation::Create(partitions, options).ok());
  options.provider.epsilon = 0.1;
  options.provider.delta = 1.5;
  EXPECT_FALSE(Federation::Create(partitions, options).ok());
}

TEST(ServiceProviderTest, Alg1GridsMatchSiloGrids) {
  auto partitions = IidPartitions(3000, 3, 2);
  const auto partitions_copy = partitions;
  auto federation = MakeFederation(std::move(partitions));
  const ServiceProvider& provider = federation->provider();

  ASSERT_EQ(provider.num_silos(), 3UL);
  // Provider-side g_i replicate the silos' own grids (shipped via Alg. 1).
  for (size_t s = 0; s < 3; ++s) {
    const GridIndex& remote = provider.silo_grid(static_cast<int>(s));
    const GridIndex& local = federation->silo(s).grid();
    ASSERT_EQ(remote.num_cells(), local.num_cells());
    for (size_t id = 0; id < local.num_cells(); ++id) {
      EXPECT_EQ(remote.cell(id), local.cell(id));
    }
  }
  // g_0 totals cover the union.
  size_t total = 0;
  for (const auto& p : partitions_copy) total += p.size();
  EXPECT_EQ(provider.merged_grid().total().count, total);
}

TEST(ServiceProviderTest, ExactMatchesBruteForceForAllKindsAndShapes) {
  auto partitions = IidPartitions(5000, 4, 3);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  Rng rng(4);
  for (int q = 0; q < 10; ++q) {
    const QueryRange range =
        testing::RandomRange(kDomain, 15.0, q % 2 == 0, &rng);
    for (AggregateKind kind :
         {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kSumSqr,
          AggregateKind::kAvg, AggregateKind::kStdev}) {
      const double expected = truth.Aggregate(range, kind).ValueOrDie();
      const double actual =
          provider.Execute({range, kind}, FraAlgorithm::kExact).ValueOrDie();
      EXPECT_NEAR(actual, expected, 1e-6 + 1e-9 * std::abs(expected))
          << AggregateKindToString(kind) << " query " << q;
    }
  }
}

TEST(ServiceProviderTest, ExactSupportsMinMax) {
  auto partitions = IidPartitions(2000, 3, 5);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();
  const QueryRange range = QueryRange::MakeCircle({30, 30}, 20);
  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
    EXPECT_DOUBLE_EQ(
        provider.Execute({range, kind}, FraAlgorithm::kExact).ValueOrDie(),
        truth.Aggregate(range, kind).ValueOrDie());
  }
}

TEST(ServiceProviderTest, EstimatorsRejectMinMax) {
  auto federation = MakeFederation(IidPartitions(500, 2, 6));
  ServiceProvider& provider = federation->provider();
  const FraQuery query{QueryRange::MakeCircle({30, 30}, 10),
                       AggregateKind::kMin};
  for (FraAlgorithm algorithm :
       {FraAlgorithm::kOpta, FraAlgorithm::kIidEst, FraAlgorithm::kIidEstLsr,
        FraAlgorithm::kNonIidEst, FraAlgorithm::kNonIidEstLsr}) {
    EXPECT_TRUE(
        provider.Execute(query, algorithm).status().IsInvalidArgument())
        << FraAlgorithmToString(algorithm);
  }
}

TEST(ServiceProviderTest, IidEstimateCloseOnIidData) {
  auto partitions = IidPartitions(40000, 4, 7);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  Rng rng(8);
  double total_error = 0.0;
  int measured = 0;
  for (int q = 0; q < 20; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 15.0, true, &rng);
    const double exact =
        truth.Aggregate(range, AggregateKind::kCount).ValueOrDie();
    if (exact < 200) continue;
    const double estimate =
        provider.Execute({range, AggregateKind::kCount}, FraAlgorithm::kIidEst)
            .ValueOrDie();
    total_error += std::abs(estimate - exact) / exact;
    ++measured;
  }
  ASSERT_GT(measured, 5);
  EXPECT_LT(total_error / measured, 0.10);
}

TEST(ServiceProviderTest, NonIidEstimateCloseOnNonIidData) {
  auto partitions = NonIidPartitions(10000, 4, 9);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  Rng rng(10);
  double iid_error = 0.0;
  double non_iid_error = 0.0;
  int measured = 0;
  for (int q = 0; q < 25; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 15.0, true, &rng);
    const double exact =
        truth.Aggregate(range, AggregateKind::kCount).ValueOrDie();
    if (exact < 300) continue;
    const int silo = static_cast<int>(rng.NextUint64(4));
    const double iid =
        provider
            .ExecuteWithSilo({range, AggregateKind::kCount},
                             FraAlgorithm::kIidEst, silo)
            .ValueOrDie();
    const double non_iid =
        provider
            .ExecuteWithSilo({range, AggregateKind::kCount},
                             FraAlgorithm::kNonIidEst, silo)
            .ValueOrDie();
    iid_error += std::abs(iid - exact) / exact;
    non_iid_error += std::abs(non_iid - exact) / exact;
    ++measured;
  }
  ASSERT_GT(measured, 8);
  // Per-cell estimation must beat global rescaling on skewed partitions.
  EXPECT_LT(non_iid_error, iid_error);
  EXPECT_LT(non_iid_error / measured, 0.10);
}

TEST(ServiceProviderTest, LsrVariantsTrackTheirBaseEstimators) {
  auto partitions = IidPartitions(60000, 3, 11);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  Rng rng(12);
  for (int q = 0; q < 8; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 18.0, true, &rng);
    const double exact =
        truth.Aggregate(range, AggregateKind::kCount).ValueOrDie();
    if (exact < 1000) continue;
    for (FraAlgorithm algorithm :
         {FraAlgorithm::kIidEstLsr, FraAlgorithm::kNonIidEstLsr}) {
      const double estimate =
          provider
              .ExecuteWithSilo({range, AggregateKind::kCount}, algorithm, 1)
              .ValueOrDie();
      EXPECT_LT(std::abs(estimate - exact) / exact, 0.35)
          << FraAlgorithmToString(algorithm);
    }
  }
}

TEST(ServiceProviderTest, OptaEstimateIsBoundedButWorst) {
  auto partitions = NonIidPartitions(15000, 3, 13);
  const BruteForceAggregator truth(partitions);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  Rng rng(14);
  double error = 0.0;
  int measured = 0;
  for (int q = 0; q < 15; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 15.0, true, &rng);
    const double exact =
        truth.Aggregate(range, AggregateKind::kCount).ValueOrDie();
    if (exact < 500) continue;
    const double estimate =
        provider.Execute({range, AggregateKind::kCount}, FraAlgorithm::kOpta)
            .ValueOrDie();
    error += std::abs(estimate - exact) / exact;
    ++measured;
  }
  ASSERT_GT(measured, 5);
  EXPECT_LT(error / measured, 0.35);
}

TEST(ServiceProviderTest, EmptyRegionYieldsZeroForAllAlgorithms) {
  auto federation = MakeFederation(IidPartitions(2000, 3, 15));
  ServiceProvider& provider = federation->provider();
  // All data lives in [0,60]^2; query far outside.
  const FraQuery query{QueryRange::MakeCircle({200, 200}, 5),
                       AggregateKind::kCount};
  for (FraAlgorithm algorithm :
       {FraAlgorithm::kExact, FraAlgorithm::kOpta, FraAlgorithm::kIidEst,
        FraAlgorithm::kIidEstLsr, FraAlgorithm::kNonIidEst,
        FraAlgorithm::kNonIidEstLsr}) {
    EXPECT_EQ(provider.Execute(query, algorithm).ValueOrDie(), 0.0)
        << FraAlgorithmToString(algorithm);
  }
}

TEST(ServiceProviderTest, CommCostSingleSiloVsFanOut) {
  auto federation = MakeFederation(IidPartitions(5000, 5, 16));
  ServiceProvider& provider = federation->provider();
  const FraQuery query{QueryRange::MakeCircle({30, 30}, 10),
                       AggregateKind::kCount};

  CommStats::Snapshot before = provider.comm();
  ASSERT_TRUE(provider.Execute(query, FraAlgorithm::kExact).ok());
  const CommStats::Snapshot exact_delta = provider.comm() - before;
  EXPECT_EQ(exact_delta.messages, 5UL);  // one exchange per silo

  before = provider.comm();
  ASSERT_TRUE(provider.Execute(query, FraAlgorithm::kIidEst).ok());
  const CommStats::Snapshot iid_delta = provider.comm() - before;
  EXPECT_EQ(iid_delta.messages, 1UL);  // single sampled silo
  EXPECT_LT(iid_delta.TotalBytes(), exact_delta.TotalBytes());

  before = provider.comm();
  ASSERT_TRUE(provider.Execute(query, FraAlgorithm::kNonIidEst).ok());
  const CommStats::Snapshot non_iid_delta = provider.comm() - before;
  EXPECT_EQ(non_iid_delta.messages, 1UL);
  // The boundary-cell vector is bigger than a scalar answer but still
  // below the m-silo fan-out for m = 5.
  EXPECT_GT(non_iid_delta.TotalBytes(), iid_delta.TotalBytes());
}

TEST(ServiceProviderTest, ExecuteBatchMatchesSequentialExact) {
  auto partitions = IidPartitions(4000, 3, 17);
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  std::vector<FraQuery> queries;
  Rng rng(18);
  for (int q = 0; q < 30; ++q) {
    queries.push_back({testing::RandomRange(kDomain, 12.0, true, &rng),
                       AggregateKind::kCount});
  }
  const std::vector<double> batch =
      provider.ExecuteBatch(queries, FraAlgorithm::kExact).ValueOrDie();
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        batch[i],
        provider.Execute(queries[i], FraAlgorithm::kExact).ValueOrDie());
  }
}

TEST(ServiceProviderTest, ExecuteBatchSingleSiloIsDeterministicGivenSeed) {
  auto partitions = IidPartitions(4000, 4, 19);
  std::vector<FraQuery> queries;
  Rng rng(20);
  for (int q = 0; q < 20; ++q) {
    queries.push_back({testing::RandomRange(kDomain, 12.0, true, &rng),
                       AggregateKind::kCount});
  }

  auto run = [&](uint64_t seed) {
    FederationOptions options;
    options.silo.grid_spec.domain = kDomain;
    options.silo.grid_spec.cell_length = 2.0;
    options.provider.seed = seed;
    auto federation =
        Federation::Create(partitions, options).ValueOrDie();
    return federation->provider()
        .ExecuteBatch(queries, FraAlgorithm::kIidEst)
        .ValueOrDie();
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(ServiceProviderTest, ExecuteWithUnknownSiloFails) {
  auto federation = MakeFederation(IidPartitions(100, 2, 21));
  EXPECT_FALSE(federation->provider()
                   .ExecuteWithSilo({QueryRange::MakeCircle({1, 1}, 1),
                                     AggregateKind::kCount},
                                    FraAlgorithm::kIidEst, 99)
                   .ok());
}

TEST(ServiceProviderTest, EpsilonDeltaSettersAffectLsrLevels) {
  auto federation = MakeFederation(IidPartitions(50000, 2, 22));
  ServiceProvider& provider = federation->provider();
  const FraQuery query{QueryRange::MakeCircle({30, 30}, 20),
                       AggregateKind::kCount};

  provider.set_epsilon(0.01);  // tight budget -> level 0 -> exact answer
  const double tight =
      provider.ExecuteWithSilo(query, FraAlgorithm::kIidEstLsr, 0)
          .ValueOrDie();
  const double base =
      provider.ExecuteWithSilo(query, FraAlgorithm::kIidEst, 0).ValueOrDie();
  EXPECT_DOUBLE_EQ(tight, base);  // LSR at level 0 equals the exact local
  provider.set_epsilon(0.25);
  EXPECT_DOUBLE_EQ(provider.epsilon(), 0.25);
  provider.set_delta(0.05);
  EXPECT_DOUBLE_EQ(provider.delta(), 0.05);
}

TEST(ServiceProviderTest, GridMemoryUsageCountsAllGrids) {
  auto federation = MakeFederation(IidPartitions(1000, 4, 23));
  const ServiceProvider& provider = federation->provider();
  // g_0 + 4 silo grids, all with the same dimensions.
  const size_t one_grid = provider.merged_grid().MemoryUsage();
  EXPECT_GE(provider.GridMemoryUsage(), 5 * one_grid);
}


TEST(ServiceProviderTest, MismatchedSiloGridSpecsFailAlg1) {
  // Silos built with different grid specs cannot be merged into g_0: the
  // provider must fail construction loudly, not mis-align cell ids.
  InProcessNetwork network;
  Silo::Options options_a;
  options_a.grid_spec.domain = kDomain;
  options_a.grid_spec.cell_length = 2.0;
  Silo::Options options_b = options_a;
  options_b.grid_spec.cell_length = 3.0;

  auto silo_a =
      Silo::Create(0, testing::RandomObjects(100, kDomain, 50), options_a)
          .ValueOrDie();
  auto silo_b =
      Silo::Create(1, testing::RandomObjects(100, kDomain, 51), options_b)
          .ValueOrDie();
  ASSERT_TRUE(network.RegisterSilo(0, silo_a.get()).ok());
  ASSERT_TRUE(network.RegisterSilo(1, silo_b.get()).ok());
  EXPECT_TRUE(
      ServiceProvider::Create(&network).status().IsInvalidArgument());
}

TEST(ServiceProviderTest, MultiSiloSamplingAveragesAcrossSilos) {
  auto partitions = IidPartitions(30000, 5, 60);
  FederationOptions options;
  options.silo.grid_spec.domain = kDomain;
  options.silo.grid_spec.cell_length = 2.0;
  options.provider.silos_per_query = 5;  // = m: every silo contributes
  auto federation =
      Federation::Create(std::move(partitions), options).ValueOrDie();
  ServiceProvider& provider = federation->provider();

  const FraQuery query{QueryRange::MakeCircle({30, 30}, 15),
                       AggregateKind::kCount};
  const double exact =
      provider.Execute(query, FraAlgorithm::kExact).ValueOrDie();
  // k = m NonIID-est averages all five per-silo estimates; the result is
  // far tighter than any k = 1 draw could guarantee.
  const double estimate =
      provider.Execute(query, FraAlgorithm::kNonIidEst).ValueOrDie();
  EXPECT_NEAR(estimate, exact, 0.05 * exact);
  // And it costs m exchanges, like a fan-out.
  const CommStats::Snapshot before = provider.comm();
  ASSERT_TRUE(provider.Execute(query, FraAlgorithm::kNonIidEst).ok());
  EXPECT_EQ((provider.comm() - before).messages, 5UL);
}

TEST(ServiceProviderTest, BatchPreservesResultsAroundAFailingQuery) {
  auto federation = MakeFederation(IidPartitions(5000, 3, 70));
  ServiceProvider& provider = federation->provider();

  // Query 2 must fail under a sampling estimator (MIN needs EXACT);
  // its neighbours must still be answered.
  std::vector<FraQuery> queries(5, {QueryRange::MakeCircle({30, 30}, 20),
                                    AggregateKind::kCount});
  queries[2].kind = AggregateKind::kMin;

  // Without the per-query channel the batch fails as a unit, naming the
  // offending query.
  const auto failed = provider.ExecuteBatch(queries, FraAlgorithm::kIidEst);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument());
  EXPECT_NE(failed.status().message().find("batch query 2"),
            std::string::npos)
      << failed.status().ToString();

  // With it, every successful answer survives and the failure is
  // reported positionally.
  std::vector<Status> statuses;
  const auto partial = provider.ExecuteBatch(queries, FraAlgorithm::kIidEst,
                                             nullptr, &statuses);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_EQ(partial->size(), queries.size());
  ASSERT_EQ(statuses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 2) {
      EXPECT_TRUE(statuses[i].IsInvalidArgument());
      EXPECT_TRUE(std::isnan((*partial)[i]));
    } else {
      EXPECT_TRUE(statuses[i].ok()) << statuses[i].ToString();
      EXPECT_GT((*partial)[i], 0.0);
    }
  }
}

TEST(ServiceProviderTest, RatioEstimateSurvivesZeroSumDenominator) {
  // Signed measures that cancel inside the sampled silo's intersecting
  // cells: the grid-aggregate SUM over those cells is exactly 0 while
  // plenty of objects exist. The component-wise ratio of an earlier
  // revision collapsed the SUM estimate to 0; the single count-ratio
  // scale of Alg. 2 keeps it anchored to the silo's actual answer.
  //
  // Layout: the query rect covers y <= 9; the cell y in [8,10) straddles
  // its edge. Each silo holds +1-measure objects inside the range and
  // -1-measure objects in the same cells above the edge, so every
  // intersecting cell sums to 0.
  std::vector<ObjectSet> partitions(2);
  for (size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 50; ++i) {
      const double x = 1.0 + static_cast<double>(i) + 0.2 * (s + 1);
      partitions[s].push_back({{x, 8.5}, +1.0});   // inside the range
      partitions[s].push_back({{x, 9.5}, -1.0});   // same cell, outside
    }
  }
  auto federation = MakeFederation(std::move(partitions));
  ServiceProvider& provider = federation->provider();

  const QueryRange range = QueryRange::MakeRect({0, 0}, {60, 9});
  const double exact =
      provider.Execute({range, AggregateKind::kSum}, FraAlgorithm::kExact)
          .ValueOrDie();
  ASSERT_DOUBLE_EQ(exact, 100.0);  // all +1 objects, none of the -1s

  for (int silo = 0; silo < 2; ++silo) {
    const double estimate =
        provider
            .ExecuteWithSilo({range, AggregateKind::kSum},
                             FraAlgorithm::kIidEst, silo)
            .ValueOrDie();
    // Each silo's local answer is +50 and the count ratio is 2: the
    // estimate lands on the federation truth instead of 0.
    EXPECT_NEAR(estimate, exact, 0.05 * exact) << "silo " << silo;
  }
}

TEST(ServiceProviderTest, TraceSamplingTracesEveryNthQuery) {
  Tracer::Get().Clear();
  Tracer::Get().SetEnabled(true);

  InProcessNetwork network;
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  auto silo =
      Silo::Create(0, testing::RandomObjects(500, kDomain, 99), silo_options)
          .ValueOrDie();
  ASSERT_TRUE(network.RegisterSilo(0, silo.get()).ok());
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  options.trace_sample_every_n = 4;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 10),
                       AggregateKind::kCount};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  }
  // Queries 0 and 4 were sampled; the other six ran untraced.
  EXPECT_EQ(Tracer::Get().TraceIds().size(), 2UL);

  // A caller-installed trace id bypasses sampling entirely.
  const uint64_t pinned = NewTraceId();
  {
    ScopedTraceId scope(pinned);
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  }
  EXPECT_FALSE(Tracer::Get().SpansForTrace(pinned).empty());

  Tracer::Get().SetEnabled(false);
  Tracer::Get().Clear();
}

}  // namespace
}  // namespace fra
