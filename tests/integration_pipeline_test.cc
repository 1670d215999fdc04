// Parameterized end-to-end sweep: for a grid of configurations
// (silo count x grid length x range shape x data regime), every
// algorithm must stay within its accuracy envelope and the algorithm
// ordering the paper reports must hold. One shared corpus per regime
// keeps the suite fast.

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "baseline/brute_force.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "federation/federation.h"

namespace fra {
namespace {

struct PipelineParam {
  size_t num_silos;
  double grid_length;
  bool rect_ranges;
  bool non_iid;
};

// ctest's test discovery names each case "<test>/<printed parameter>".
// Without a PrintTo, gtest prints a byte dump of the struct whose padding
// bytes differ from build to build; a name generator does not help, as
// discovery keeps the dump after a generated name.
void PrintTo(const PipelineParam& p, std::ostream* os) {
  *os << "m" << p.num_silos << "_L" << static_cast<int>(p.grid_length * 10)
      << (p.rect_ranges ? "_rect" : "_circle")
      << (p.non_iid ? "_noniid" : "_iid");
}

// One generated corpus per regime, shared across all instances.
const FederationDataset& CorpusFor(bool non_iid) {
  static std::map<bool, FederationDataset>* corpora = [] {
    auto* map = new std::map<bool, FederationDataset>();
    for (bool regime : {false, true}) {
      MobilityDataOptions options;
      options.num_objects = 90000;
      options.seed = 4242;
      options.non_iid = regime;
      options.domain = Rect{{0, 0}, {50, 50}};
      options.num_hotspots = 8;
      map->emplace(regime, GenerateMobilityData(options).ValueOrDie());
    }
    return map;
  }();
  return corpora->at(non_iid);
}

class PipelineTest : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineTest, AllAlgorithmsWithinEnvelope) {
  const PipelineParam param = GetParam();
  const FederationDataset& dataset = CorpusFor(param.non_iid);
  std::vector<ObjectSet> partitions =
      SplitIntoSilos(dataset.company_partitions, param.num_silos, 11)
          .ValueOrDie();
  const BruteForceAggregator truth(partitions);

  WorkloadOptions workload;
  workload.num_queries = 25;
  workload.radius_km = 5.0;
  workload.rect_ranges = param.rect_ranges;
  workload.seed = 12;
  const std::vector<FraQuery> queries =
      GenerateQueries(partitions, workload).ValueOrDie();

  FederationOptions options;
  options.silo.grid_spec.domain = dataset.domain;
  options.silo.grid_spec.cell_length = param.grid_length;
  auto federation =
      Federation::Create(std::move(partitions), options).ValueOrDie();
  ServiceProvider& provider = federation->provider();

  std::map<FraAlgorithm, double> mre;
  for (FraAlgorithm algorithm :
       {FraAlgorithm::kExact, FraAlgorithm::kOpta, FraAlgorithm::kIidEst,
        FraAlgorithm::kIidEstLsr, FraAlgorithm::kNonIidEst,
        FraAlgorithm::kNonIidEstLsr}) {
    const std::vector<double> answers =
        provider.ExecuteBatch(queries, algorithm).ValueOrDie();
    MreAccumulator accumulator;
    for (size_t i = 0; i < queries.size(); ++i) {
      const double exact =
          truth.Aggregate(queries[i].range, queries[i].kind).ValueOrDie();
      accumulator.Add(exact, answers[i]);
    }
    mre[algorithm] = accumulator.Mre();
  }

  // EXACT is exact in every configuration.
  EXPECT_DOUBLE_EQ(mre[FraAlgorithm::kExact], 0.0);
  // Accuracy envelopes (generous: 25 queries per point).
  EXPECT_LT(mre[FraAlgorithm::kNonIidEst], 0.12);
  EXPECT_LT(mre[FraAlgorithm::kNonIidEstLsr], 0.20);
  EXPECT_LT(mre[FraAlgorithm::kIidEst], 0.30);
  EXPECT_LT(mre[FraAlgorithm::kIidEstLsr], 0.35);
  EXPECT_LT(mre[FraAlgorithm::kOpta], 0.45);
  // The NonIID estimator never loses badly to the IID one — on skewed
  // regimes it must win.
  if (param.non_iid) {
    EXPECT_LT(mre[FraAlgorithm::kNonIidEst], mre[FraAlgorithm::kIidEst]);
  } else {
    EXPECT_LT(mre[FraAlgorithm::kNonIidEst],
              mre[FraAlgorithm::kIidEst] + 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, PipelineTest,
    ::testing::Values(PipelineParam{3, 1.0, false, false},
                      PipelineParam{3, 1.0, false, true},
                      PipelineParam{3, 2.5, true, true},
                      PipelineParam{6, 1.0, false, true},
                      PipelineParam{6, 1.0, true, false},
                      PipelineParam{6, 2.5, false, true},
                      PipelineParam{6, 0.5, false, true},
                      PipelineParam{12, 1.0, false, true},
                      PipelineParam{12, 2.5, true, true},
                      PipelineParam{15, 1.0, false, false}));

}  // namespace
}  // namespace fra
