// Per-silo request coalescing over the reactor TCP transport: flush
// triggers, failure propagation, and the answer-preservation contract —
// batching is a wire-path optimisation only, so EXACT answers must stay
// bit-identical and the sampling estimators must make the same choices
// with coalescing off, on, and degenerate (max_batch_size = 1).

#include "net/request_coalescer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/tcp_network.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {60, 60}};

uint64_t FlushesFor(const char* reason) {
  return MetricsRegistry::Default()
      .GetCounter("fra_batch_flushes_total", {{"reason", reason}})
      .Value();
}

Silo::Options SiloOptions() {
  Silo::Options options;
  options.grid_spec.domain = kDomain;
  options.grid_spec.cell_length = 3.0;
  return options;
}

std::unique_ptr<Silo> MakeSilo(int id, size_t objects, uint64_t seed) {
  return Silo::Create(id, testing::RandomObjects(objects, kDomain, seed),
                      SiloOptions())
      .ValueOrDie();
}

// Silos behind real sockets: coalescing is a reactor-transport feature.
struct TcpFederation {
  void Add(std::unique_ptr<Silo> silo) {
    servers.push_back(TcpSiloServer::Start(silo.get()).ValueOrDie());
    ASSERT_TRUE(network.AddSilo(silo->id(), servers.back()->port()).ok());
    silos.push_back(std::move(silo));
  }

  // Destroyed bottom-up: the network, then the servers, then the silos
  // they serve.
  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  TcpNetwork network;
};

// Coalescing needs a reactor: over a network without one, Create refuses
// the option and the coalescer refuses to be built.
TEST(CoalescerTest, CoalescingWithoutAReactorIsRejected) {
  InProcessNetwork network;
  EXPECT_DEATH(
      { RequestCoalescer coalescer(&network, RequestCoalescer::Options{}); },
      "reactor");

  auto silo = MakeSilo(0, 100, 77);
  ASSERT_TRUE(network.RegisterSilo(0, silo.get()).ok());
  ServiceProvider::Options options;
  options.coalescing.enabled = true;
  const auto provider = ServiceProvider::Create(&network, options);
  EXPECT_TRUE(provider.status().IsInvalidArgument())
      << provider.status().ToString();
}

// A lone staged query must not wait for a full batch: the reactor's
// timer wheel ships it once max_batch_delay_us elapses.
TEST(CoalescerTest, DeadlineFlushDeliversLoneQuery) {
  TcpFederation federation;
  federation.Add(MakeSilo(0, 400, 11));
  TcpNetwork& network = federation.network;

  ServiceProvider::Options options;
  options.track_silo_health = false;
  options.audit_sample_rate = 0.0;
  options.coalescing.enabled = true;
  options.coalescing.max_batch_size = 64;  // never reached by one query
  options.coalescing.max_batch_delay_us = 200;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();

  const uint64_t deadline_before = FlushesFor("deadline");
  const FraQuery query{QueryRange::MakeRect({5, 5}, {40, 40}),
                       AggregateKind::kCount};
  auto result = provider->Execute(query, FraAlgorithm::kIidEst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(FlushesFor("deadline"), deadline_before + 1);
}

// A burst from concurrent workers against one silo must trigger
// size-based flushes (the deadline is set far too long to matter).
TEST(CoalescerTest, SizeFlushUnderBurst) {
  TcpFederation federation;
  federation.Add(MakeSilo(0, 400, 22));
  TcpNetwork& network = federation.network;

  ServiceProvider::Options options;
  options.track_silo_health = false;
  options.audit_sample_rate = 0.0;
  options.batch_threads = 8;
  options.coalescing.enabled = true;
  options.coalescing.max_batch_size = 2;
  options.coalescing.max_batch_delay_us = 50'000;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();

  const uint64_t size_before = FlushesFor("size");
  std::vector<FraQuery> queries(
      64, {QueryRange::MakeRect({5, 5}, {40, 40}), AggregateKind::kCount});
  auto results = provider->ExecuteBatch(queries, FraAlgorithm::kIidEst);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), queries.size());
  EXPECT_GE(FlushesFor("size"), size_before + 1);
}

// Every query's record is written from its fan-out legs and from the
// coalescer flushes that ship its requests: each record must come out
// whole (one ok outcome and one RPC per silo), and the time entries sat
// staged must reach the record that staged them as queue wait.
TEST(CoalescerTest, QueryRecordsCarryQueueWaitAndSiloOutcomes) {
  TcpFederation federation;
  for (int s = 0; s < 3; ++s) federation.Add(MakeSilo(s, 400, 90 + s));
  TcpNetwork& network = federation.network;

  ServiceProvider::Options options;
  options.batch_threads = 8;
  options.audit_sample_rate = 0.0;
  options.flight_recorder.slow_threshold_micros = 0.0;  // capture all
  options.coalescing.enabled = true;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();

  const std::vector<FraQuery> queries(
      64, {QueryRange::MakeRect({5, 5}, {40, 40}), AggregateKind::kCount});
  auto results = provider->ExecuteBatch(queries, FraAlgorithm::kExact);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  const std::vector<FlightRecorder::Record> records =
      provider->flight_recorder()->Snapshot();
  ASSERT_EQ(records.size(), queries.size());
  bool saw_queue_wait = false;
  for (const FlightRecorder::Record& record : records) {
    ASSERT_EQ(record.silos.size(), 3UL);
    for (const SiloOutcome& silo : record.silos) EXPECT_TRUE(silo.ok);
    EXPECT_EQ(record.cost.silo_rpcs, 3U);
    if (record.cost.queue_wait_micros > 0.0) saw_queue_wait = true;
  }
  EXPECT_TRUE(saw_queue_wait);

  const std::vector<QueryCostLedger::Rollup> rollups =
      provider->cost_ledger()->Snapshot();
  ASSERT_EQ(rollups.size(), 1UL);
  EXPECT_EQ(rollups[0].algorithm, "EXACT");
  EXPECT_EQ(rollups[0].aggregate, "COUNT");
  EXPECT_EQ(rollups[0].cache, "off");
  EXPECT_EQ(rollups[0].queries, 64UL);
  EXPECT_EQ(rollups[0].failures, 0UL);
  EXPECT_EQ(rollups[0].silo_rpcs, 192UL);
}

// Once armed, blocks every request until Release() — a hung silo that
// still lets the federation set up (Alg. 1) beforehand.
class HangingEndpoint : public SiloEndpoint {
 public:
  explicit HangingEndpoint(SiloEndpoint* inner) : inner_(inner) {}
  ~HangingEndpoint() override { Release(); }

  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    if (armed_.load()) {
      std::unique_lock<std::mutex> lock(mu_);
      released_cv_.wait(lock, [this] { return released_; });
      return Status::Unavailable("silo was hung");
    }
    return inner_->HandleMessage(request);
  }

  void Arm() { armed_.store(true); }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  SiloEndpoint* inner_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

// A hung silo fails its whole staged batch with Unavailable within the
// transport deadline, while batches to healthy silos keep completing.
TEST(CoalescerTest, HungSiloFailsItsBatchWithinDeadline) {
  auto hung_silo = MakeSilo(0, 300, 33);
  auto healthy_silo = MakeSilo(1, 300, 44);
  HangingEndpoint hanging(hung_silo.get());

  auto hung_server = TcpSiloServer::Start(&hanging).ValueOrDie();
  auto healthy_server = TcpSiloServer::Start(healthy_silo.get()).ValueOrDie();

  TcpNetwork::Options net_options;
  net_options.request_timeout_ms = 500;
  TcpNetwork network(net_options);
  ASSERT_TRUE(network.AddSilo(0, hung_server->port()).ok());
  ASSERT_TRUE(network.AddSilo(1, healthy_server->port()).ok());

  ServiceProvider::Options options;
  options.track_silo_health = false;
  options.retry_on_silo_failure = false;
  options.audit_sample_rate = 0.0;
  options.coalescing.enabled = true;
  options.coalescing.max_batch_size = 4;
  options.coalescing.max_batch_delay_us = 1000;
  auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
  hanging.Arm();

  const FraQuery query{QueryRange::MakeRect({5, 5}, {40, 40}),
                       AggregateKind::kCount};

  Status hung_status = Status::OK();
  double hung_seconds = 0.0;
  std::thread hung_call([&] {
    Timer timer;
    hung_status =
        provider->ExecuteWithSilo(query, FraAlgorithm::kIidEst, 0).status();
    hung_seconds = timer.ElapsedSeconds();
  });

  // While silo 0 hangs, silo 1's batches still complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto healthy =
      provider->ExecuteWithSilo(query, FraAlgorithm::kIidEst, 1);
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();

  hung_call.join();
  EXPECT_TRUE(hung_status.IsUnavailable()) << hung_status.ToString();
  // Bounded by request_timeout_ms plus scheduling slack, far from the
  // 30 s default that would mean the deadline did not propagate.
  EXPECT_LT(hung_seconds, 5.0);

  hanging.Release();
}

// Answers must not depend on the wire batching: EXACT bit-identical,
// sampling algorithms making identical choices, for coalescing off /
// on(16) / on(max_batch_size = 1).
TEST(CoalescerTest, BatchingIsAnswerPreserving) {
  const size_t num_silos = 4;
  TcpFederation federation;
  TcpNetwork& network = federation.network;
  for (size_t s = 0; s < num_silos; ++s) {
    // Clustered (non-IID) partitions so NonIID-est has real work to do.
    federation.Add(
        Silo::Create(static_cast<int>(s),
                     testing::ClusteredObjects(1500, kDomain, 3, 100 + s),
                     SiloOptions())
            .ValueOrDie());
  }

  Rng rng(555);
  std::vector<FraQuery> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(
        {testing::RandomRange(kDomain, 12.0, i % 2 == 0, &rng),
         AggregateKind::kCount});
  }

  const auto run_all = [&](const ServiceProvider::Options::CoalescingOptions&
                               coalescing) {
    ServiceProvider::Options options;
    options.track_silo_health = false;
    options.audit_sample_rate = 0.0;
    options.fanout_threads = 16;
    options.coalescing = coalescing;
    auto provider = ServiceProvider::Create(&network, options).ValueOrDie();
    std::vector<std::vector<double>> per_algorithm;
    for (FraAlgorithm algorithm :
         {FraAlgorithm::kExact, FraAlgorithm::kIidEstLsr,
          FraAlgorithm::kNonIidEst}) {
      auto results = provider->ExecuteBatch(queries, algorithm);
      EXPECT_TRUE(results.ok()) << results.status().ToString();
      per_algorithm.push_back(results.ValueOrDie());
    }
    return per_algorithm;
  };

  ServiceProvider::Options::CoalescingOptions off;
  off.enabled = false;
  ServiceProvider::Options::CoalescingOptions on_16;
  on_16.enabled = true;
  on_16.max_batch_size = 16;
  ServiceProvider::Options::CoalescingOptions on_1;
  on_1.enabled = true;
  on_1.max_batch_size = 1;  // every query still rides the batch frame

  const auto baseline = run_all(off);
  const auto batched = run_all(on_16);
  const auto degenerate = run_all(on_1);
  ASSERT_EQ(baseline.size(), batched.size());
  ASSERT_EQ(baseline.size(), degenerate.size());
  for (size_t a = 0; a < baseline.size(); ++a) {
    ASSERT_EQ(baseline[a].size(), queries.size());
    for (size_t i = 0; i < baseline[a].size(); ++i) {
      // EXPECT_EQ on doubles: bit-identical, not approximately equal.
      EXPECT_EQ(baseline[a][i], batched[a][i])
          << "algorithm " << a << " query " << i;
      EXPECT_EQ(baseline[a][i], degenerate[a][i])
          << "algorithm " << a << " query " << i;
    }
  }
}

// Direct coalescer exercise: destruction flushes whatever is staged so
// no caller is stranded (reason=shutdown).
TEST(CoalescerTest, ShutdownFlushesStagedRequests) {
  TcpFederation federation;
  federation.Add(MakeSilo(0, 200, 66));
  TcpNetwork& network = federation.network;

  RequestCoalescer::Options options;
  options.max_batch_size = 64;
  options.max_batch_delay_us = 60'000'000;  // only shutdown can flush
  auto coalescer = std::make_unique<RequestCoalescer>(&network, options);

  const uint64_t shutdown_before = FlushesFor("shutdown");
  AggregateRequest request;
  request.range = QueryRange::MakeRect({5, 5}, {40, 40});
  request.mode = LocalQueryMode::kExact;

  Result<std::vector<uint8_t>> staged_response = Status::Internal("unset");
  // The caller thread takes a raw pointer up front: it must not read the
  // unique_ptr object itself, which the main thread mutates via reset().
  RequestCoalescer* raw = coalescer.get();
  std::thread caller(
      [&, raw] { staged_response = raw->Call(0, request.Encode()); });
  // Wait until the request is actually staged, then destroy.
  while (MetricsRegistry::Default()
             .GetGauge("fra_coalescer_staged_requests")
             .Value() < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  coalescer.reset();
  caller.join();

  ASSERT_TRUE(staged_response.ok()) << staged_response.status().ToString();
  EXPECT_TRUE(DecodeSummaryResponse(*staged_response).ok());
  EXPECT_GE(FlushesFor("shutdown"), shutdown_before + 1);
}

}  // namespace
}  // namespace fra
