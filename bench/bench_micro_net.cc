// Micro-benchmarks for the network substrate: message codec throughput,
// grid serialisation, and transport round-trip latency (in-process vs
// real loopback TCP) — quantifying what the in-process substrate
// abstracts away — plus the provider's answer-cache hit path, the query
// that needs no transport at all.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "bench/bench_json.h"
#include "federation/federation.h"
#include "federation/silo.h"
#include "index/grid_index.h"
#include "net/message.h"
#include "net/network.h"
#include "net/tcp_network.h"
#include "util/buffer.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"

namespace fra {
namespace {

class EchoEndpoint : public SiloEndpoint {
 public:
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    return request;
  }
  // Zero-copy serving path: answer straight from the borrowed view into
  // a pooled response buffer, the way a real silo does.
  Result<std::vector<uint8_t>> HandleMessageView(
      ConstByteSpan request) override {
    std::vector<uint8_t> response = BufferPool::Default().Acquire(
        request.size());
    response.assign(request.begin(), request.end());
    return response;
  }
};

void BM_EncodeAggregateRequest(benchmark::State& state) {
  AggregateRequest request;
  request.range = QueryRange::MakeCircle({70, 140}, 2.0);
  request.mode = LocalQueryMode::kLsr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(request.Encode());
  }
}
BENCHMARK(BM_EncodeAggregateRequest);

void BM_DecodeAggregateRequest(benchmark::State& state) {
  AggregateRequest request;
  request.range = QueryRange::MakeCircle({70, 140}, 2.0);
  const std::vector<uint8_t> encoded = request.Encode();
  for (auto _ : state) {
    BinaryReader reader(encoded);
    benchmark::DoNotOptimize(AggregateRequest::Decode(&reader));
  }
}
BENCHMARK(BM_DecodeAggregateRequest);

void BM_EncodeDecodeCellVector(benchmark::State& state) {
  std::vector<CellContribution> cells(
      static_cast<size_t>(state.range(0)));
  Rng rng(1);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].cell_id = static_cast<uint32_t>(i);
    cells[i].summary.Add(rng.NextDouble(0, 4));
  }
  for (auto _ : state) {
    const std::vector<uint8_t> encoded = EncodeCellVectorResponse(cells);
    benchmark::DoNotOptimize(DecodeCellVectorResponse(encoded));
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(cells.size() *
                           (4 + AggregateSummary::kWireSize)));
}
BENCHMARK(BM_EncodeDecodeCellVector)->Arg(16)->Arg(256);

void BM_GridSerializeDeserialize(benchmark::State& state) {
  GridIndex::GridSpec spec;
  spec.domain = Rect{{0, 0}, {145, 276}};
  spec.cell_length = 1.5;  // ~18k cells, the default city grid
  Rng rng(2);
  ObjectSet objects;
  for (int i = 0; i < 100000; ++i) {
    objects.push_back({{rng.NextDouble(0, 145), rng.NextDouble(0, 276)},
                       static_cast<double>(rng.NextInt64(0, 4))});
  }
  const GridIndex grid = GridIndex::Build(objects, spec).ValueOrDie();
  for (auto _ : state) {
    BinaryWriter writer;
    grid.Serialize(&writer);
    BinaryReader reader(writer.buffer());
    GridIndex decoded;
    benchmark::DoNotOptimize(GridIndex::Deserialize(&reader, &decoded));
  }
}
BENCHMARK(BM_GridSerializeDeserialize)->Unit(benchmark::kMillisecond);

// Transport round-trips report bytes from the registry's global
// fra_comm_bytes_total counters (the CommStats shim mirrors every
// exchange there), so the benchmark measures the same byte accounting
// operators scrape.
uint64_t RegistryCommBytes() {
  MetricsRegistry& registry = MetricsRegistry::Default();
  return registry
             .GetCounter("fra_comm_bytes_total", {{"direction", "to_silos"}})
             .Value() +
         registry
             .GetCounter("fra_comm_bytes_total", {{"direction", "to_provider"}})
             .Value();
}

void BM_InProcessRoundTrip(benchmark::State& state) {
  static EchoEndpoint* endpoint = new EchoEndpoint();
  static InProcessNetwork* network = [] {
    auto* n = new InProcessNetwork();
    FRA_CHECK_OK(n->RegisterSilo(1, endpoint));
    return n;
  }();
  const std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)));
  const uint64_t bytes_before = RegistryCommBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(network->Call(1, payload));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(RegistryCommBytes() - bytes_before));
}
BENCHMARK(BM_InProcessRoundTrip)->Arg(64)->Arg(4096);

void BM_TcpLoopbackRoundTrip(benchmark::State& state) {
  static EchoEndpoint* endpoint = new EchoEndpoint();
  static TcpSiloServer* server =
      TcpSiloServer::Start(endpoint).ValueOrDie().release();
  static TcpNetwork* network = [] {
    auto* n = new TcpNetwork();
    FRA_CHECK_OK(n->AddSilo(1, server->port()));
    return n;
  }();
  const std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)));
  const uint64_t bytes_before = RegistryCommBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(network->Call(1, payload));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(RegistryCommBytes() - bytes_before));
}
BENCHMARK(BM_TcpLoopbackRoundTrip)->Arg(64)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_MetricsCounterIncrement(benchmark::State& state) {
  Counter& counter = MetricsRegistry::Default().GetCounter(
      "bench_counter_total", {{"bench", "micro_net"}});
  for (auto _ : state) {
    counter.Increment();
  }
}
BENCHMARK(BM_MetricsCounterIncrement)->ThreadRange(1, 4);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  Histogram& histogram = MetricsRegistry::Default().GetHistogram(
      "bench_histogram_microseconds", {{"bench", "micro_net"}});
  double value = 0.5;
  for (auto _ : state) {
    histogram.Observe(value);
    value = value < 1e6 ? value * 1.7 : 0.5;  // sweep the bucket ladder
  }
}
BENCHMARK(BM_MetricsHistogramObserve)->ThreadRange(1, 4);

// Cost of the mutex-guarded (name, labels) lookup hot paths avoid by
// caching the reference GetCounter returns.
void BM_MetricsRegistryLookup(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(&MetricsRegistry::Default().GetCounter(
        "bench_lookup_total", {{"silo", "1"}, {"algorithm", "IID-est"}}));
  }
}
BENCHMARK(BM_MetricsRegistryLookup);

// FRA_TRACE_SPAN overhead: Arg(0) = untraced thread (trace id 0: one
// thread-local load), Arg(1) = traced thread with the tracer enabled (two
// clock reads, a histogram observe and a SpanRecord into the ring).
void BM_TraceSpanOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  Tracer::Get().SetEnabled(traced);
  ScopedTraceId scope(traced ? NewTraceId() : 0);
  for (auto _ : state) {
    FRA_TRACE_SPAN("bench.span");
  }
  Tracer::Get().SetEnabled(false);
  Tracer::Get().Clear();
}
BENCHMARK(BM_TraceSpanOverhead)->Arg(0)->Arg(1);

// The answer cache's hit path under Alg. 4 (docs/caching.md): a small
// cache-on federation warmed with 256 rectangles, then one 256-query
// NonIID-est+LSR ExecuteBatch of those ranges per iteration, every query
// a hit, on state.range(0) batch workers. `s_per_query` is wall time per
// query.
void BM_ProviderCacheHit(benchmark::State& state) {
  constexpr int kRanges = 256;
  constexpr FraAlgorithm kAlgorithm = FraAlgorithm::kNonIidEstLsr;
  Rng rng(11);
  std::vector<ObjectSet> partitions(4);
  for (int i = 0; i < 8000; ++i) {
    partitions[static_cast<size_t>(i) % partitions.size()].push_back(
        {{rng.NextDouble(0, 40), rng.NextDouble(0, 40)},
         static_cast<double>(rng.NextInt64(0, 4))});
  }
  FederationOptions options;
  options.silo.grid_spec.domain = Rect{{0, 0}, {40, 40}};
  options.silo.grid_spec.cell_length = 2.0;
  options.provider.batch_threads = static_cast<size_t>(state.range(0));
  options.provider.cache.enabled = true;
  options.provider.audit_sample_rate = 0.0;  // no background EXACT replays
  auto federation =
      Federation::Create(std::move(partitions), options).ValueOrDie();
  ServiceProvider& provider = federation->provider();

  std::vector<FraQuery> queries;
  for (int i = 0; i < kRanges; ++i) {
    const double x = rng.NextDouble(4, 36);
    const double y = rng.NextDouble(4, 36);
    const double half = rng.NextDouble(1, 4);
    queries.push_back({QueryRange::MakeRect({x - half, y - half},
                                            {x + half, y + half}),
                       AggregateKind::kCount});
  }
  FRA_CHECK_OK(provider.ExecuteBatch(queries, kAlgorithm).status());
  const uint64_t warm_misses = provider.cache()->exact().counters().misses;

  for (auto _ : state) {
    Result<std::vector<double>> answers =
        provider.ExecuteBatch(queries, kAlgorithm);
    benchmark::DoNotOptimize(answers.ValueOrDie().data());
  }
  if (provider.cache()->exact().counters().misses != warm_misses) {
    state.SkipWithError("a timed query missed the answer cache");
  }
  state.counters["s_per_query"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kRanges,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ProviderCacheHit)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// --- Serialization / allocation section (BENCH_micro_net.json) -------------
//
// The zero-copy data plane's report card: in-process EXACT aggregate
// round trips against a real silo, once with BufferPool disabled (the
// pre-pool allocator behaviour) and once enabled. Reports p50 latency,
// allocator traffic per query (pool misses = mallocs on the pooled
// path), pool hit rate, comm bytes per query, and whether the answers
// are bit-identical across the two modes. FRA_ALLOC_BUDGET (a double)
// turns the warm-path allocs/query figure into a CI gate.

struct AllocModeReport {
  double p50_micros = 0;
  double allocs_per_query = 0;
  double hit_rate = 0;
  double comm_bytes_per_query = 0;
  std::vector<uint8_t> first_response;
  double exact_answer = 0;
};

AllocModeReport RunAllocMode(Network* network,
                             const std::vector<uint8_t>& request,
                             bool pool_enabled, int warmup, int iters) {
  BufferPool::SetEnabled(pool_enabled);
  AllocModeReport report;

  auto round_trip = [&]() {
    Result<std::vector<uint8_t>> response = network->Call(1, request);
    FRA_CHECK_OK(response.status());
    return std::move(response).ValueOrDie();
  };
  for (int i = 0; i < warmup; ++i) {
    BufferPool::Default().Release(round_trip());
  }

  const BufferPool::Stats pool_before = BufferPool::Default().stats();
  const uint64_t comm_before = RegistryCommBytes();
  std::vector<double> micros(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<uint8_t> response = round_trip();
    const auto stop = std::chrono::steady_clock::now();
    micros[static_cast<size_t>(i)] =
        std::chrono::duration<double, std::micro>(stop - start).count();
    if (i == 0) report.first_response = response;
    BufferPool::Default().Release(std::move(response));
  }
  const BufferPool::Stats pool_after = BufferPool::Default().stats();
  const uint64_t comm_after = RegistryCommBytes();

  std::sort(micros.begin(), micros.end());
  report.p50_micros = micros[micros.size() / 2];
  const double hits =
      static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  report.allocs_per_query = misses / iters;
  report.hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  report.comm_bytes_per_query =
      static_cast<double>(comm_after - comm_before) / iters;

  Result<AggregateSummary> summary =
      DecodeSummaryResponse(report.first_response);
  if (summary.ok()) {
    report.exact_answer = static_cast<double>(summary.ValueOrDie().count);
  }
  return report;
}

void WriteAllocModeJson(bench::JsonWriter* json, const char* key,
                        const AllocModeReport& report) {
  json->Key(key).BeginObject();
  json->Key("p50_micros").Number(report.p50_micros);
  json->Key("allocs_per_query").Number(report.allocs_per_query);
  json->Key("pool_hit_rate").Number(report.hit_rate);
  json->Key("comm_bytes_per_query").Number(report.comm_bytes_per_query);
  json->Key("exact_count").Number(report.exact_answer);
  json->EndObject();
}

/// Returns 0, or 1 when FRA_ALLOC_BUDGET is set and the warm pooled path
/// exceeds it.
int RunAllocSection() {
  const Rect domain{{0, 0}, {40, 40}};
  Rng rng(7);
  ObjectSet objects;
  for (int i = 0; i < 20000; ++i) {
    objects.push_back({{rng.NextDouble(0, 40), rng.NextDouble(0, 40)},
                       static_cast<double>(rng.NextInt64(0, 4))});
  }
  Silo::Options silo_options;
  silo_options.grid_spec.domain = domain;
  silo_options.grid_spec.cell_length = 2.0;
  silo_options.build_lsr = false;
  silo_options.build_histogram = false;
  auto silo = Silo::Create(1, std::move(objects), silo_options).ValueOrDie();
  InProcessNetwork network;
  FRA_CHECK_OK(network.RegisterSilo(1, silo.get()));

  AggregateRequest request;
  request.range = QueryRange::MakeCircle({20, 20}, 9.0);
  request.mode = LocalQueryMode::kExact;
  const std::vector<uint8_t> encoded = request.Encode();

  constexpr int kWarmup = 500;
  constexpr int kIters = 5000;
  const AllocModeReport pool_off =
      RunAllocMode(&network, encoded, false, kWarmup, kIters);
  const AllocModeReport pool_on =
      RunAllocMode(&network, encoded, true, kWarmup, kIters);
  BufferPool::SetEnabled(true);

  const bool bit_identical = pool_off.first_response == pool_on.first_response;

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("micro_net");
  json.Key("git_sha").String(bench::GitSha());
  json.Key("queries").Int(kIters);
  WriteAllocModeJson(&json, "pool_off", pool_off);
  WriteAllocModeJson(&json, "pool_on", pool_on);
  json.Key("p50_speedup")
      .Number(pool_on.p50_micros > 0
                  ? pool_off.p50_micros / pool_on.p50_micros
                  : 0.0);
  json.Key("exact_bit_identical").Bool(bit_identical);
  json.EndObject();
  bench::WriteJsonFile("BENCH_micro_net.json", json.str());

  std::printf(
      "alloc section: p50 %.2fus (pool off) -> %.2fus (pool on), "
      "allocs/query %.3f -> %.3f, hit rate %.3f, bit-identical %s\n",
      pool_off.p50_micros, pool_on.p50_micros, pool_off.allocs_per_query,
      pool_on.allocs_per_query, pool_on.hit_rate,
      bit_identical ? "yes" : "no");

  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: EXACT response bytes differ between pool modes\n");
    return 1;
  }
  if (const char* budget_env = std::getenv("FRA_ALLOC_BUDGET")) {
    const double budget = std::atof(budget_env);
    if (pool_on.allocs_per_query > budget) {
      std::fprintf(stderr,
                   "FAIL: warm pooled path allocates %.3f buffers/query, "
                   "budget FRA_ALLOC_BUDGET=%.3f\n",
                   pool_on.allocs_per_query, budget);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace fra

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return fra::RunAllocSection();
}
