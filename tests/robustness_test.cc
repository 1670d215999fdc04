#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "baseline/brute_force.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/network.h"
#include "tests/test_util.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {40, 40}};

Silo::Options SiloOptions() {
  Silo::Options options;
  options.grid_spec.domain = kDomain;
  options.grid_spec.cell_length = 2.0;
  return options;
}

/// Wraps a real silo; fails the first `failures` data-plane requests with
/// Unavailable (grid-build requests pass through so Alg. 1 succeeds).
class FlakySilo : public SiloEndpoint {
 public:
  FlakySilo(std::unique_ptr<Silo> inner, int failures)
      : inner_(std::move(inner)), remaining_failures_(failures) {}

  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    FRA_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(request));
    if (type != MessageType::kBuildGridRequest &&
        remaining_failures_.fetch_sub(1) > 0) {
      // A silo that answers with an error response (vs a dead link —
      // either way the provider must fail over).
      return EncodeErrorResponse(Status::Unavailable("silo flaking"));
    }
    return inner_->HandleMessage(request);
  }

  Silo* inner() { return inner_.get(); }

 private:
  std::unique_ptr<Silo> inner_;
  std::atomic<int> remaining_failures_;
};

struct FlakyFederation {
  std::unique_ptr<InProcessNetwork> network;
  std::vector<std::unique_ptr<FlakySilo>> silos;
  std::unique_ptr<ServiceProvider> provider;
};

FlakyFederation MakeFlakyFederation(size_t num_silos, int failures_per_silo,
                                    const ServiceProvider::Options& options,
                                    std::vector<ObjectSet> partitions) {
  FlakyFederation result;
  result.network = std::make_unique<InProcessNetwork>();
  for (size_t i = 0; i < num_silos; ++i) {
    auto silo = Silo::Create(static_cast<int>(i), std::move(partitions[i]),
                             SiloOptions())
                    .ValueOrDie();
    result.silos.push_back(std::make_unique<FlakySilo>(
        std::move(silo), i == 0 ? failures_per_silo : 0));
    FRA_CHECK_OK(result.network->RegisterSilo(static_cast<int>(i),
                                              result.silos.back().get()));
  }
  result.provider =
      ServiceProvider::Create(result.network.get(), options).ValueOrDie();
  return result;
}

std::vector<ObjectSet> UniformPartitions(size_t num_silos, size_t per_silo,
                                         uint64_t seed) {
  std::vector<ObjectSet> partitions;
  for (size_t i = 0; i < num_silos; ++i) {
    partitions.push_back(
        testing::RandomObjects(per_silo, kDomain, seed + i));
  }
  return partitions;
}

TEST(RobustnessTest, RetryFailsOverToAnotherSilo) {
  // Silo 0 fails every data request; sampling must fail over and still
  // answer every query.
  FlakyFederation federation = MakeFlakyFederation(
      3, /*failures_per_silo=*/1000000, ServiceProvider::Options(),
      UniformPartitions(3, 3000, 1));
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 8),
                       AggregateKind::kCount};
  for (int i = 0; i < 20; ++i) {
    auto result = federation.provider->Execute(query, FraAlgorithm::kIidEst);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(*result, 0.0);
  }
}

TEST(RobustnessTest, TransientFailureRecovers) {
  FlakyFederation federation = MakeFlakyFederation(
      2, /*failures_per_silo=*/3, ServiceProvider::Options(),
      UniformPartitions(2, 2000, 2));
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 8),
                       AggregateKind::kCount};
  // All queries succeed even while silo 0 flakes for its first 3 calls.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        federation.provider->Execute(query, FraAlgorithm::kNonIidEst).ok());
  }
}

TEST(RobustnessTest, NoRetryOptionSurfacesFailures) {
  ServiceProvider::Options options;
  options.retry_on_silo_failure = false;
  options.seed = 7;
  FlakyFederation federation = MakeFlakyFederation(
      2, /*failures_per_silo=*/1000000, options,
      UniformPartitions(2, 2000, 3));
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 8),
                       AggregateKind::kCount};
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    if (!federation.provider->Execute(query, FraAlgorithm::kIidEst).ok()) {
      ++failures;
    }
  }
  // Half the draws land on the broken silo in expectation.
  EXPECT_GT(failures, 5);
  EXPECT_LT(failures, 35);
}

TEST(RobustnessTest, AllSilosDownYieldsUnavailable) {
  FlakyFederation federation = MakeFlakyFederation(
      1, /*failures_per_silo=*/1000000, ServiceProvider::Options(),
      UniformPartitions(1, 500, 4));
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 8),
                       AggregateKind::kCount};
  EXPECT_TRUE(federation.provider->Execute(query, FraAlgorithm::kIidEst)
                  .status()
                  .IsUnavailable());
}

TEST(RobustnessTest, ExactFanOutDoesNotMaskFailures) {
  FlakyFederation federation = MakeFlakyFederation(
      3, /*failures_per_silo=*/1000000, ServiceProvider::Options(),
      UniformPartitions(3, 500, 5));
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 8),
                       AggregateKind::kCount};
  // EXACT requires every silo; a broken one must surface, never a
  // silently partial answer.
  EXPECT_FALSE(
      federation.provider->Execute(query, FraAlgorithm::kExact).ok());
}

// --- Non-overlapping coverage (Sec. 4.2.2 remark) -----------------------

std::vector<ObjectSet> DisjointPartitions() {
  // Silo 0 covers the west half, silo 1 the east half, silo 2 a thin
  // uniform layer everywhere.
  std::vector<ObjectSet> partitions(3);
  partitions[0] =
      testing::RandomObjects(4000, Rect{{0, 0}, {18, 40}}, 10);
  partitions[1] =
      testing::RandomObjects(4000, Rect{{22, 0}, {40, 40}}, 11);
  partitions[2] = testing::RandomObjects(200, kDomain, 12);
  return partitions;
}

TEST(RobustnessTest, RelevantSiloSamplingSkipsEmptySilos) {
  auto network = std::make_unique<InProcessNetwork>();
  std::vector<std::unique_ptr<Silo>> silos;
  auto partitions = DisjointPartitions();
  const BruteForceAggregator truth(partitions);
  for (size_t i = 0; i < partitions.size(); ++i) {
    silos.push_back(Silo::Create(static_cast<int>(i),
                                 std::move(partitions[i]), SiloOptions())
                        .ValueOrDie());
    FRA_CHECK_OK(network->RegisterSilo(static_cast<int>(i),
                                       silos.back().get()));
  }
  // No audits: an audit replays EXACT on every silo, silo 1 included, and
  // the check below counts silo 1's exchanges.
  ServiceProvider::Options options;
  options.audit_sample_rate = 0.0;
  auto provider =
      ServiceProvider::Create(network.get(), options).ValueOrDie();

  // A query deep in the west: silo 1 holds nothing there. With relevant-
  // silo sampling the estimate never degenerates to rescaling silo 1's
  // empty answer, so repeated estimates stay sane.
  const FraQuery query{QueryRange::MakeCircle({8, 20}, 5),
                       AggregateKind::kCount};
  const double exact =
      truth.Aggregate(query.range, query.kind).ValueOrDie();
  ASSERT_GT(exact, 100.0);
  // Every exchange with silo 1 passes its health record; count them.
  const auto exchanges_with_silo_1 = [&] {
    for (const auto& silo : provider->health()->Snapshot()) {
      if (silo.silo_id == 1) return silo.successes + silo.failures;
    }
    return uint64_t{0};
  };
  const uint64_t before = exchanges_with_silo_1();
  for (int i = 0; i < 30; ++i) {
    const double estimate =
        provider->Execute(query, FraAlgorithm::kNonIidEst).ValueOrDie();
    EXPECT_GT(estimate, 0.3 * exact) << "iteration " << i;
    EXPECT_LT(estimate, 3.0 * exact) << "iteration " << i;
  }
  // Silo 1 is never a candidate, so it serves none of the 30 queries.
  EXPECT_EQ(exchanges_with_silo_1(), before);
}

TEST(RobustnessTest, QueryOutsideAllCoverageIsZero) {
  auto network = std::make_unique<InProcessNetwork>();
  std::vector<std::unique_ptr<Silo>> silos;
  auto partitions = DisjointPartitions();
  for (size_t i = 0; i < partitions.size(); ++i) {
    silos.push_back(Silo::Create(static_cast<int>(i),
                                 std::move(partitions[i]), SiloOptions())
                        .ValueOrDie());
    FRA_CHECK_OK(network->RegisterSilo(static_cast<int>(i),
                                       silos.back().get()));
  }
  auto provider = ServiceProvider::Create(network.get()).ValueOrDie();
  // Data domain is [0,40]^2 and the grid stops there; a far-away query
  // has no relevant silo and short-circuits to 0 with zero communication.
  const CommStats::Snapshot before = provider->comm();
  EXPECT_EQ(provider
                ->Execute({QueryRange::MakeCircle({400, 400}, 5),
                           AggregateKind::kCount},
                          FraAlgorithm::kIidEst)
                .ValueOrDie(),
            0.0);
  EXPECT_EQ((provider->comm() - before).messages, 0UL);
}

// --- Boundary-cell optimisation ablation --------------------------------

TEST(RobustnessTest, FullVectorModeMatchesBoundaryOnlyExactly) {
  auto partitions = UniformPartitions(3, 5000, 20);
  const BruteForceAggregator truth(partitions);

  auto make_provider = [&](bool boundary_only,
                           std::vector<std::unique_ptr<Silo>>* silos,
                           std::unique_ptr<InProcessNetwork>* network) {
    *network = std::make_unique<InProcessNetwork>();
    for (size_t i = 0; i < partitions.size(); ++i) {
      silos->push_back(Silo::Create(static_cast<int>(i), partitions[i],
                                    SiloOptions())
                           .ValueOrDie());
      FRA_CHECK_OK((*network)->RegisterSilo(static_cast<int>(i),
                                            silos->back().get()));
    }
    ServiceProvider::Options options;
    options.non_iid_boundary_only = boundary_only;
    return ServiceProvider::Create(network->get(), options).ValueOrDie();
  };

  std::vector<std::unique_ptr<Silo>> silos_a;
  std::vector<std::unique_ptr<Silo>> silos_b;
  std::unique_ptr<InProcessNetwork> network_a;
  std::unique_ptr<InProcessNetwork> network_b;
  auto boundary_provider = make_provider(true, &silos_a, &network_a);
  auto full_provider = make_provider(false, &silos_b, &network_b);

  Rng rng(21);
  for (int q = 0; q < 15; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 10.0, true, &rng);
    const FraQuery query{range, AggregateKind::kCount};
    for (int silo = 0; silo < 3; ++silo) {
      // Without LSR, the two transmission modes are algebraically
      // identical: contained cells contribute g_0 exactly either way.
      const double boundary =
          boundary_provider
              ->ExecuteWithSilo(query, FraAlgorithm::kNonIidEst, silo)
              .ValueOrDie();
      const double full =
          full_provider
              ->ExecuteWithSilo(query, FraAlgorithm::kNonIidEst, silo)
              .ValueOrDie();
      EXPECT_NEAR(boundary, full, 1.0 + 1e-6 * boundary)
          << "query " << q << " silo " << silo;
    }
  }

  // The optimisation's whole point: fewer bytes on the wire.
  const CommStats::Snapshot before_a = boundary_provider->comm();
  const CommStats::Snapshot before_b = full_provider->comm();
  const FraQuery big{QueryRange::MakeCircle({20, 20}, 12),
                     AggregateKind::kCount};
  ASSERT_TRUE(
      boundary_provider->ExecuteWithSilo(big, FraAlgorithm::kNonIidEst, 0)
          .ok());
  ASSERT_TRUE(
      full_provider->ExecuteWithSilo(big, FraAlgorithm::kNonIidEst, 0).ok());
  EXPECT_LT((boundary_provider->comm() - before_a).TotalBytes(),
            (full_provider->comm() - before_b).TotalBytes());
}

}  // namespace
}  // namespace fra
