// Runs a 1000-query ExecuteBatch per algorithm against a synthetic
// federation with the accuracy auditor sampling 10% of approximate
// answers, then dumps everything the observability layer collected:
// per-algorithm latency histograms (p50/p95/p99), per-silo query counts,
// communication byte counters, the audited relative-error distribution
// against the (eps, delta) guarantee, the full Prometheus-text and JSON
// exports, and the spans of one traced query. Every metric and span name
// printed here is documented in docs/observability.md.
//
//   ./build/examples/metrics_dump

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "data/generator.h"
#include "eval/report.h"
#include "eval/workload.h"
#include "federation/federation.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

// One line per label set of a counter family, e.g. per-silo request
// counts or per-direction comm bytes.
void PrintCounterFamily(const char* heading, const char* name,
                        bool bytes_family) {
  const auto instances = fra::MetricsRegistry::Default().CountersNamed(name);
  if (instances.empty()) return;
  std::printf("\n=== %s (%s) ===\n", heading, name);
  for (const auto& [labels, counter] : instances) {
    std::string label_text;
    for (const auto& [key, value] : labels) {
      if (!label_text.empty()) label_text += ", ";
      label_text += key + "=" + value;
    }
    if (label_text.empty()) label_text = "(no labels)";
    if (bytes_family) {
      std::printf("  %-40s %12" PRIu64 "  (%s)\n", label_text.c_str(),
                  counter->Value(), fra::FormatBytes(counter->Value()).c_str());
    } else {
      std::printf("  %-40s %12" PRIu64 "\n", label_text.c_str(),
                  counter->Value());
    }
  }
}

// The spans of one traced query, indented by start time — the worked
// example walked through in docs/observability.md.
void PrintOneTrace() {
  const std::vector<uint64_t> ids = fra::Tracer::Get().TraceIds();
  if (ids.empty()) {
    std::printf("\n(no traces recorded)\n");
    return;
  }
  const uint64_t trace_id = ids.back();
  std::vector<fra::SpanRecord> spans =
      fra::Tracer::Get().SpansForTrace(trace_id);
  std::sort(spans.begin(), spans.end(),
            [](const fra::SpanRecord& a, const fra::SpanRecord& b) {
              return a.start_nanos < b.start_nanos;
            });
  std::printf("\n=== Spans of trace %" PRIu64 " ===\n", trace_id);
  std::printf("%-28s %14s %14s\n", "span", "start(us)", "duration(us)");
  const uint64_t origin = spans.front().start_nanos;
  for (const fra::SpanRecord& span : spans) {
    std::printf("%-28s %14.1f %14.1f\n", span.name.c_str(),
                static_cast<double>(span.start_nanos - origin) / 1e3,
                static_cast<double>(span.duration_nanos) / 1e3);
  }
}

// The auditor's verdict: one row per audited estimator with the relative
// error distribution, plus the guarantee check the (eps, delta) contract
// promises — p-quantile error <= eps for all but a delta fraction.
void PrintAuditReport(const fra::ServiceProvider& provider) {
  const fra::AccuracyAuditor* auditor = provider.auditor();
  if (auditor == nullptr) {
    std::printf("\n(auditing disabled — audit_sample_rate == 0)\n");
    return;
  }
  const fra::AccuracyAuditor::Snapshot snapshot = auditor->snapshot();
  std::printf("\n=== Accuracy audit (eps=%.3f, delta=%.3f, sample rate %.0f%%) ===\n",
              provider.options().epsilon, provider.options().delta,
              100.0 * auditor->options().sample_rate);
  std::printf("approximate answers considered %" PRIu64
              ", audited %" PRIu64 ", replay failures %" PRIu64 "\n",
              snapshot.considered, snapshot.audited, snapshot.failures);
  const auto errors = fra::MetricsRegistry::Default().HistogramsNamed(
      "fra_estimate_relative_error");
  if (!errors.empty()) {
    std::printf("%-16s %8s %10s %10s %10s %10s\n", "algorithm", "audits",
                "mean", "p50", "p95", "p99");
    for (const auto& [labels, histogram] : errors) {
      std::string algorithm = "?";
      for (const auto& [key, value] : labels) {
        if (key == "algorithm") algorithm = value;
      }
      std::printf("%-16s %8" PRIu64 " %10.4f %10.4f %10.4f %10.4f\n",
                  algorithm.c_str(), histogram->Count(), histogram->Mean(),
                  histogram->Quantile(0.50), histogram->Quantile(0.95),
                  histogram->Quantile(0.99));
    }
  }
  std::printf("guarantee violations (relative error > eps): %" PRIu64
              " of %" PRIu64 " audited (delta allows %.1f)\n",
              snapshot.violations, snapshot.audited,
              provider.options().delta * static_cast<double>(snapshot.audited));
}

}  // namespace

int main() {
  // Record spans (the metrics registry is always on; tracing is opt-in).
  fra::Tracer::Get().SetEnabled(true);

  fra::MobilityDataOptions data_options;
  data_options.num_objects = 100000;
  data_options.seed = 42;
  data_options.non_iid = false;
  auto dataset_result = fra::GenerateMobilityData(data_options);
  if (!dataset_result.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 dataset_result.status().ToString().c_str());
    return 1;
  }
  fra::FederationDataset dataset = std::move(dataset_result).ValueOrDie();

  fra::WorkloadOptions workload;
  workload.num_queries = 1000;
  workload.radius_km = 8.0;
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
  options.provider.epsilon = 0.1;
  options.provider.delta = 0.01;
  // Average three independent silo samples per query (Sec. 4 variance
  // knob) so the estimates sit inside the audited guarantee below.
  options.provider.silos_per_query = 3;
  // Audit 10% of approximate answers: re-run them EXACT in the background
  // and score the estimate against the (eps, delta) guarantee.
  options.provider.audit_sample_rate = 0.1;
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
       {fra::FraAlgorithm::kExact, fra::FraAlgorithm::kOpta,
        fra::FraAlgorithm::kIidEst, fra::FraAlgorithm::kIidEstLsr,
        fra::FraAlgorithm::kNonIidEst, fra::FraAlgorithm::kNonIidEstLsr}) {
    auto batch = provider.ExecuteBatch(queries, algorithm);
    if (!batch.ok()) {
      std::fprintf(stderr, "%s batch failed: %s\n",
                   fra::FraAlgorithmToString(algorithm),
                   batch.status().ToString().c_str());
      return 1;
    }
    std::printf("%-16s answered %zu queries\n",
                fra::FraAlgorithmToString(algorithm), batch->size());
  }

  // Let the background EXACT replays drain before reading their metrics.
  provider.WaitForAudits();

  const fra::MetricsRegistry& registry = fra::MetricsRegistry::Default();
  fra::PrintQueryLatencyTable(registry);
  PrintAuditReport(provider);
  PrintCounterFamily("Per-silo query counts", "fra_silo_requests_total",
                     /*bytes_family=*/false);
  PrintCounterFamily("Communication bytes", "fra_comm_bytes_total",
                     /*bytes_family=*/true);
  PrintCounterFamily("Communication messages", "fra_comm_messages_total",
                     /*bytes_family=*/false);
  PrintOneTrace();
  fra::PrintMetricsExports(registry);
  return 0;
}
