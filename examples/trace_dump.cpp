// Traces a short query workload and writes the span buffer as a Chrome
// trace document — the same JSON /tracez serves — so it can be loaded in
// chrome://tracing or https://ui.perfetto.dev.
//
//   ./build/examples/trace_dump > trace.json
//   ./build/examples/trace_dump trace.json

#include <cstdio>
#include <string>
#include <vector>

#include "data/generator.h"
#include "eval/workload.h"
#include "federation/federation.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  fra::Tracer::Get().SetEnabled(true);

  fra::MobilityDataOptions data_options;
  data_options.num_objects = 20000;
  data_options.seed = 7;
  auto dataset_result = fra::GenerateMobilityData(data_options);
  if (!dataset_result.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 dataset_result.status().ToString().c_str());
    return 1;
  }
  fra::FederationDataset dataset = std::move(dataset_result).ValueOrDie();

  fra::WorkloadOptions workload;
  workload.num_queries = 20;
  workload.radius_km = 2.0;
  auto queries_result =
      fra::GenerateQueries(dataset.company_partitions, workload);
  if (!queries_result.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 queries_result.status().ToString().c_str());
    return 1;
  }
  const std::vector<fra::FraQuery> queries =
      std::move(queries_result).ValueOrDie();

  fra::FederationOptions options;
  options.silo.grid_spec.domain = dataset.domain;
  options.silo.grid_spec.cell_length = 1.5;  // km
  auto federation_result =
      fra::Federation::Create(std::move(dataset.company_partitions), options);
  if (!federation_result.ok()) {
    std::fprintf(stderr, "federation setup failed: %s\n",
                 federation_result.status().ToString().c_str());
    return 1;
  }
  auto federation = std::move(federation_result).ValueOrDie();
  fra::ServiceProvider& provider = federation->provider();

  for (fra::FraAlgorithm algorithm :
       {fra::FraAlgorithm::kExact, fra::FraAlgorithm::kIidEst,
        fra::FraAlgorithm::kNonIidEstLsr}) {
    auto batch = provider.ExecuteBatch(queries, algorithm);
    if (!batch.ok()) {
      std::fprintf(stderr, "%s batch failed: %s\n",
                   fra::FraAlgorithmToString(algorithm),
                   batch.status().ToString().c_str());
      return 1;
    }
  }

  const std::string document = fra::Tracer::Get().ExportChromeTrace();
  if (document.find("\"ph\"") == std::string::npos) {
    std::fprintf(stderr,
                 "warning: no spans recorded; emitting an empty document.\n");
  }

  if (argc > 1) {
    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[1]);
      return 1;
    }
    std::fwrite(document.data(), 1, document.size(), out);
    std::fclose(out);
    std::fprintf(stderr, "wrote %zu bytes of Chrome trace JSON to %s\n",
                 document.size(), argv[1]);
  } else {
    std::fwrite(document.data(), 1, document.size(), stdout);
  }
  return 0;
}
