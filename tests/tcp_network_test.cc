// TCP transport: framing, concurrency, reconnection, and a full
// federation (Alg. 1 + all algorithms) running over real loopback
// sockets — the paper's deployment shape.

#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/message.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace fra {
namespace {

const Rect kDomain{{0, 0}, {40, 40}};

class EchoEndpoint : public SiloEndpoint {
 public:
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    ++calls;
    return request;
  }
  std::atomic<int> calls{0};
};

class FailingEndpoint : public SiloEndpoint {
 public:
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>&) override {
    return Status::Internal("endpoint exploded");
  }
};

// Adds a fixed service delay in front of `inner` — a 1-silo latency
// model for exercising the connection pool's parallelism.
class DelayingEndpoint : public SiloEndpoint {
 public:
  DelayingEndpoint(SiloEndpoint* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->HandleMessage(request);
  }

 private:
  SiloEndpoint* inner_;
  const int delay_ms_;
};

// Once armed, blocks every request until Release() — a hung silo that
// still lets the federation set up (Alg. 1) beforehand, and that lets
// the test unblock the server's handler threads at teardown.
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

uint64_t TimeoutsFor(int silo_id) {
  return MetricsRegistry::Default()
      .GetCounter("fra_silo_timeouts_total",
                  {{"silo", std::to_string(silo_id)}, {"transport", "tcp"}})
      .Value();
}

TEST(TcpNetworkTest, RoundTripEcho) {
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  ASSERT_GT(server->port(), 0);

  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());
  const std::vector<uint8_t> request = {1, 2, 3, 4, 5};
  EXPECT_EQ(network.Call(1, request).ValueOrDie(), request);
  EXPECT_EQ(endpoint.calls.load(), 1);
  EXPECT_EQ(server->requests_served(), 1UL);
}

TEST(TcpNetworkTest, EmptyAndLargePayloads) {
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());

  EXPECT_TRUE(network.Call(1, {}).ValueOrDie().empty());
  std::vector<uint8_t> large(1 << 20);
  for (size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<uint8_t>(i * 31);
  }
  EXPECT_EQ(network.Call(1, large).ValueOrDie(), large);
}

TEST(TcpNetworkTest, CommStatsCountFrames) {
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());
  ASSERT_TRUE(network.Call(1, std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(network.Call(1, std::vector<uint8_t>(50)).ok());
  const CommStats::Snapshot stats = network.stats().Read();
  EXPECT_EQ(stats.messages, 2UL);
  EXPECT_EQ(stats.bytes_to_silos, 150UL);
  EXPECT_EQ(stats.bytes_to_provider, 150UL);
}

class TraceCapturingEndpoint : public SiloEndpoint {
 public:
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    observed_trace_id = CurrentTraceId();
    return request;
  }
  std::atomic<uint64_t> observed_trace_id{0};
};

TEST(TcpNetworkTest, TraceIdCrossesTheSocket) {
  TraceCapturingEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());
  const std::vector<uint8_t> payload = {9, 8, 7};

  // Without an active trace the request travels unwrapped and the server
  // observes trace id 0.
  EXPECT_EQ(network.Call(1, payload).ValueOrDie(), payload);
  EXPECT_EQ(endpoint.observed_trace_id.load(), 0UL);

  // With one, the trace envelope carries the id across the socket and the
  // server strips it before the handler runs: the echo stays byte-exact.
  {
    ScopedTraceId scoped(0xFEEDFACEULL);
    EXPECT_EQ(network.Call(1, payload).ValueOrDie(), payload);
  }
  EXPECT_EQ(endpoint.observed_trace_id.load(), 0xFEEDFACEULL);

  // Byte accounting covers the envelope of the traced request only.
  const CommStats::Snapshot stats = network.stats().Read();
  EXPECT_EQ(stats.bytes_to_silos, 2 * payload.size() + kTraceEnvelopeBytes);
  EXPECT_EQ(stats.bytes_to_provider, 2 * payload.size());
}

TEST(TcpNetworkTest, UnknownSiloIsUnavailable) {
  TcpNetwork network;
  EXPECT_TRUE(network.Call(9, {1}).status().IsUnavailable());
}

TEST(TcpNetworkTest, ConnectionRefusedIsUnavailable) {
  TcpNetwork network;
  // Bind-then-close to find a port that is almost surely not listening.
  EchoEndpoint endpoint;
  uint16_t dead_port;
  {
    auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
    dead_port = server->port();
  }
  ASSERT_TRUE(network.AddSilo(1, dead_port).ok());
  EXPECT_TRUE(network.Call(1, {1}).status().IsUnavailable());
}

TEST(TcpNetworkTest, FailedServerStartLeaksNoListenerFd) {
  EchoEndpoint endpoint;
  auto holder = TcpSiloServer::Start(&endpoint).ValueOrDie();
  const size_t baseline = testing::OpenFdCount();
  // The port is taken, so each Start fails at bind; it must close the
  // socket it opened.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(TcpSiloServer::Start(&endpoint, holder->port()).ok());
  }
  EXPECT_EQ(testing::OpenFdCount(), baseline);
}

TEST(TcpNetworkTest, EndpointErrorsTravelAsErrorResponses) {
  FailingEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());
  const auto response = network.Call(1, {1}).ValueOrDie();
  // The server wraps handler failures into a kErrorResponse frame.
  EXPECT_TRUE(DecodeSummaryResponse(response).status().IsInternal());
}

TEST(TcpNetworkTest, ReconnectsAfterServerRestart) {
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  const uint16_t port = server->port();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, port).ok());
  ASSERT_TRUE(network.Call(1, {1}).ok());

  server->Stop();
  server.reset();
  // Restart on the same port; the stale connection must be detected and
  // re-established transparently.
  auto restarted =
      TcpSiloServer::Start(&endpoint, port);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE((*restarted)->port() == port);
  EXPECT_TRUE(network.Call(1, {2}).ok());
}

TEST(TcpNetworkTest, ConcurrentCallsFromManyThreads) {
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&network, &failures, t] {
      for (int i = 0; i < 50; ++i) {
        const std::vector<uint8_t> payload = {static_cast<uint8_t>(t),
                                              static_cast<uint8_t>(i)};
        auto response = network.Call(1, payload);
        if (!response.ok() || *response != payload) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(endpoint.calls.load(), 400);
}

TEST(TcpNetworkTest, FullFederationOverLoopbackSockets) {
  // Real silos behind real sockets: Alg. 1 grid collection, then every
  // algorithm, compared against an in-process twin for equality of the
  // deterministic paths.
  std::vector<ObjectSet> partitions;
  for (int s = 0; s < 3; ++s) {
    partitions.push_back(testing::RandomObjects(4000, kDomain, 10 + s));
  }

  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;

  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  TcpNetwork tcp;
  InProcessNetwork in_process;
  for (int s = 0; s < 3; ++s) {
    silos.push_back(Silo::Create(s, partitions[s], silo_options).ValueOrDie());
    servers.push_back(TcpSiloServer::Start(silos.back().get()).ValueOrDie());
    ASSERT_TRUE(tcp.AddSilo(s, servers.back()->port()).ok());
    ASSERT_TRUE(in_process.RegisterSilo(s, silos.back().get()).ok());
  }

  auto tcp_provider = ServiceProvider::Create(&tcp).ValueOrDie();
  auto local_provider = ServiceProvider::Create(&in_process).ValueOrDie();

  Rng rng(20);
  for (int q = 0; q < 10; ++q) {
    const QueryRange range = testing::RandomRange(kDomain, 10.0, true, &rng);
    const FraQuery query{range, AggregateKind::kCount};
    // EXACT and per-silo estimators are deterministic: the transports
    // must agree bit for bit.
    EXPECT_DOUBLE_EQ(
        tcp_provider->Execute(query, FraAlgorithm::kExact).ValueOrDie(),
        local_provider->Execute(query, FraAlgorithm::kExact).ValueOrDie());
    for (int silo = 0; silo < 3; ++silo) {
      EXPECT_DOUBLE_EQ(
          tcp_provider
              ->ExecuteWithSilo(query, FraAlgorithm::kNonIidEst, silo)
              .ValueOrDie(),
          local_provider
              ->ExecuteWithSilo(query, FraAlgorithm::kNonIidEst, silo)
              .ValueOrDie());
    }
  }

  // Batches work over sockets too (Alg. 4 with real round trips).
  std::vector<FraQuery> queries;
  for (int q = 0; q < 30; ++q) {
    queries.push_back({testing::RandomRange(kDomain, 8.0, true, &rng),
                       AggregateKind::kCount});
  }
  const auto batch =
      tcp_provider->ExecuteBatch(queries, FraAlgorithm::kIidEstLsr);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), queries.size());
}

TEST(TcpNetworkTest, StitchedTraceCoversProviderAndSiloSpans) {
  // The acceptance scenario of cross-silo trace propagation: one query
  // over the reactor transport yields ONE trace holding the provider's
  // spans and the silo-side spans shipped back in the response frames'
  // span sections, tagged with their origin silo.
  Tracer::Get().Clear();
  Tracer::Get().SetEnabled(true);

  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  TcpNetwork network;  // reactor mode is the default
  for (int s = 0; s < 2; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(2000, kDomain, 30 + s),
                     silo_options)
            .ValueOrDie());
    servers.push_back(TcpSiloServer::Start(silos.back().get()).ValueOrDie());
    ASSERT_TRUE(network.AddSilo(s, servers.back()->port()).ok());
  }
  ServiceProvider::Options provider_options;
  provider_options.audit_sample_rate = 0.0;
  provider_options.trace_sample_every_n = 1;  // both queries must trace
  auto provider =
      ServiceProvider::Create(&network, provider_options).ValueOrDie();

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 12),
                       AggregateKind::kCount};
  for (const FraAlgorithm algorithm :
       {FraAlgorithm::kExact, FraAlgorithm::kIidEst}) {
    Tracer::Get().Clear();
    ASSERT_TRUE(provider->Execute(query, algorithm).ok());

#if defined(FRA_ENABLE_TRACING) && FRA_ENABLE_TRACING
    const std::vector<uint64_t> traces = Tracer::Get().TraceIds();
    ASSERT_EQ(traces.size(), 1UL)
        << "one query must produce exactly one trace";
    const std::vector<SpanRecord> spans =
        Tracer::Get().SpansForTrace(traces[0]);
    bool saw_provider = false;
    std::set<std::string> silo_origins;
    for (const SpanRecord& span : spans) {
      if (span.name == "provider.execute") {
        EXPECT_TRUE(span.tag.empty());
        saw_provider = true;
      }
      if (span.tag.rfind("silo=", 0) == 0) silo_origins.insert(span.tag);
    }
    EXPECT_TRUE(saw_provider);
    if (algorithm == FraAlgorithm::kExact) {
      // The fan-out touched both silos; both must appear in the trace.
      EXPECT_EQ(silo_origins.size(), 2UL);
    } else {
      // Single-silo sampling: exactly one origin.
      EXPECT_EQ(silo_origins.size(), 1UL);
    }
    // Spans come back in start order and the Chrome export carries the
    // origin tag for the ingested ones.
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].start_nanos, spans[i].start_nanos);
    }
    EXPECT_NE(Tracer::Get().ExportChromeTrace().find("origin"),
              std::string::npos);
#else
    // Spans are compiled out on both sides of the wire.
    EXPECT_TRUE(Tracer::Get().AllSpans().empty());
#endif
  }

  Tracer::Get().SetEnabled(false);
  Tracer::Get().Clear();
}

TEST(TcpNetworkTest, ReactorTelemetryIsExported) {
  // Driving traffic through the reactor transport must populate the
  // fra_reactor_* loop instruments and the per-silo pipeline gauges.
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(3, server->port()).ok());
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(network.Call(3, payload).ok());
  }

  MetricsRegistry& registry = MetricsRegistry::Default();
  uint64_t lag_observations = 0;
  for (const auto& [labels, hist] :
       registry.HistogramsNamed("fra_reactor_loop_lag_microseconds")) {
    bool has_loop_label = false;
    for (const auto& [key, value] : labels) {
      if (key == "loop" && !value.empty()) has_loop_label = true;
    }
    EXPECT_TRUE(has_loop_label);
    lag_observations += hist->Count();
  }
  EXPECT_GT(lag_observations, 0UL);

  uint64_t wait_observations = 0;
  for (const auto& [labels, hist] :
       registry.HistogramsNamed("fra_reactor_epoll_wait_microseconds")) {
    wait_observations += hist->Count();
  }
  EXPECT_GT(wait_observations, 0UL);

  uint64_t depth_observations = 0;
  for (const auto& [labels, hist] :
       registry.HistogramsNamed("fra_tcp_pipeline_depth")) {
    depth_observations += hist->Count();
  }
  EXPECT_GT(depth_observations, 0UL);

  // Quiesced client: no unsent bytes may linger in the gauge.
  EXPECT_EQ(registry
                .GetGauge("fra_tcp_backpressure_bytes", {{"silo", "3"}})
                .Value(),
            0.0);
}

TEST(TcpNetworkTest, DuplicateRegistrationRejected) {
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, 12345).ok());
  EXPECT_EQ(network.AddSilo(1, 12346).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(network.num_silos(), 1UL);
}

TEST(TcpNetworkTest, FramesOnTheWireUseNetworkByteOrder) {
  // A hand-rolled client speaking raw big-endian frames must
  // interoperate with the server: the frame format is part of the wire
  // contract (docs/wire_protocol.md), not an implementation detail.
  EchoEndpoint endpoint;
  auto server = TcpSiloServer::Start(&endpoint).ValueOrDie();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(server->port());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)),
      0);

  // 3-byte payload framed with an explicit big-endian length prefix.
  const uint8_t frame[] = {0x00, 0x00, 0x00, 0x03, 'f', 'r', 'a'};
  ASSERT_EQ(::send(fd, frame, sizeof(frame), 0),
            static_cast<ssize_t>(sizeof(frame)));

  uint8_t echoed[sizeof(frame)] = {0};
  size_t got = 0;
  while (got < sizeof(frame)) {
    const ssize_t n = ::recv(fd, echoed + got, sizeof(frame) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  // Length prefix comes back big-endian too, payload byte-exact.
  EXPECT_EQ(echoed[0], 0x00);
  EXPECT_EQ(echoed[1], 0x00);
  EXPECT_EQ(echoed[2], 0x00);
  EXPECT_EQ(echoed[3], 0x03);
  EXPECT_EQ(echoed[4], 'f');
  EXPECT_EQ(echoed[5], 'r');
  EXPECT_EQ(echoed[6], 'a');
  ::close(fd);
}

TEST(TcpNetworkTest, PooledConnectionsLetOneSiloServeConcurrentCalls) {
  // 8 concurrent calls against a silo that takes ~60 ms per request:
  // with one pooled connection per in-flight call they overlap (wall
  // clock ~1 service time), where the old single-connection transport
  // serialised them (~8 service times).
  constexpr int kDelayMs = 60;
  constexpr int kCallers = 8;
  EchoEndpoint echo;
  DelayingEndpoint slow(&echo, kDelayMs);
  auto server = TcpSiloServer::Start(&slow).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());

  Timer timer;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&network, &failures, t] {
      const std::vector<uint8_t> payload = {static_cast<uint8_t>(t)};
      auto response = network.Call(1, payload);
      if (!response.ok() || *response != payload) ++failures;
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed_ms = timer.ElapsedMillis();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(echo.calls.load(), kCallers);
  // Sequential would be kCallers * kDelayMs = 480 ms; allow generous
  // scheduling slack while still proving the overlap.
  EXPECT_LT(elapsed_ms, kCallers * kDelayMs / 2.0);
}

TEST(TcpNetworkTest, DeadlineFiresOnHungSiloWhileOtherSiloProceeds) {
  // One hung silo and one healthy one behind the same network: calls to
  // the healthy silo keep completing while the hung call is in flight,
  // and the hung call comes back Unavailable within the configured
  // deadline instead of blocking its worker forever.
  EchoEndpoint inner;
  HangingEndpoint hung(&inner);
  auto hung_server = TcpSiloServer::Start(&hung).ValueOrDie();
  EchoEndpoint healthy;
  auto healthy_server = TcpSiloServer::Start(&healthy).ValueOrDie();

  TcpNetwork::Options options;
  options.request_timeout_ms = 300;
  TcpNetwork network(options);
  ASSERT_TRUE(network.AddSilo(7, hung_server->port()).ok());
  ASSERT_TRUE(network.AddSilo(8, healthy_server->port()).ok());
  hung.Arm();

  const uint64_t timeouts_before = TimeoutsFor(7);
  std::atomic<int> healthy_ok{0};
  std::thread hung_caller([&network] {
    Timer timer;
    const auto response = network.Call(7, {1, 2, 3});
    EXPECT_TRUE(response.status().IsUnavailable())
        << response.status().ToString();
    // Bounded: the 300 ms deadline, not a blocking read. The generous
    // upper bound only guards against an unbounded hang on slow CI.
    EXPECT_GE(timer.ElapsedMillis(), 250.0);
    EXPECT_LT(timer.ElapsedMillis(), 5000.0);
  });
  // While the hung call is pending, the healthy silo stays responsive.
  std::vector<std::thread> healthy_callers;
  for (int t = 0; t < 8; ++t) {
    healthy_callers.emplace_back([&network, &healthy_ok] {
      for (int i = 0; i < 10; ++i) {
        if (network.Call(8, {9}).ok()) ++healthy_ok;
      }
    });
  }
  for (auto& caller : healthy_callers) caller.join();
  hung_caller.join();

  EXPECT_EQ(healthy_ok.load(), 80);
  EXPECT_GT(TimeoutsFor(7), timeouts_before);
  hung.Release();
}

TEST(TcpNetworkTest, FederationExecutesPastAHungSiloWithinDeadline) {
  // The ISSUE-level scenario: >= 8 parallel Execute calls through a real
  // TcpNetwork while one of three silos hangs mid-operation. Queries
  // that sample the hung silo time out (Unavailable) and rotate to a
  // healthy candidate (retry_on_silo_failure), so every call succeeds
  // in bounded time.
  std::vector<ObjectSet> partitions;
  for (int s = 0; s < 3; ++s) {
    partitions.push_back(testing::RandomObjects(3000, kDomain, 40 + s));
  }
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;

  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<HangingEndpoint>> endpoints;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  TcpNetwork::Options net_options;
  net_options.request_timeout_ms = 400;
  TcpNetwork network(net_options);
  for (int s = 0; s < 3; ++s) {
    silos.push_back(Silo::Create(s, partitions[s], silo_options).ValueOrDie());
    endpoints.push_back(std::make_unique<HangingEndpoint>(silos.back().get()));
    servers.push_back(TcpSiloServer::Start(endpoints.back().get()).ValueOrDie());
    ASSERT_TRUE(network.AddSilo(s, servers.back()->port()).ok());
  }
  auto provider = ServiceProvider::Create(&network).ValueOrDie();
  endpoints[2]->Arm();  // silo 2 hangs after Alg. 1 setup

  const uint64_t timeouts_before = TimeoutsFor(2);
  const FraQuery query{QueryRange::MakeCircle({20, 20}, 15),
                       AggregateKind::kCount};
  Timer timer;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&provider, &query, &ok] {
      for (int i = 0; i < 3; ++i) {
        if (provider->Execute(query, FraAlgorithm::kIidEst).ok()) ++ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(ok.load(), 24);  // hung-silo draws rotated to healthy silos
  // Worst case every query drew silo 2 first: 3 sequential timeouts per
  // thread (~1.2 s) plus healthy round trips — far under this bound, and
  // impossible under the old transport, which blocked forever.
  EXPECT_LT(timer.ElapsedMillis(), 30000.0);
  EXPECT_GT(TimeoutsFor(2), timeouts_before);
  endpoints[2]->Release();
}

TEST(TcpNetworkTest, ExactFanOutOverlapsSiloLatencies) {
  // Acceptance shape: 8 silos behind a per-call latency model; the
  // EXACT fan-out must cost ~max(latency), not the 8x sum the old
  // sequential fan-out paid.
  constexpr int kSilos = 8;
  constexpr int kDelayMs = 60;
  std::vector<ObjectSet> partitions;
  for (int s = 0; s < kSilos; ++s) {
    partitions.push_back(testing::RandomObjects(500, kDomain, 60 + s));
  }
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;

  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<DelayingEndpoint>> endpoints;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  TcpNetwork network;
  for (int s = 0; s < kSilos; ++s) {
    silos.push_back(Silo::Create(s, partitions[s], silo_options).ValueOrDie());
    endpoints.push_back(
        std::make_unique<DelayingEndpoint>(silos.back().get(), kDelayMs));
    servers.push_back(TcpSiloServer::Start(endpoints.back().get()).ValueOrDie());
    ASSERT_TRUE(network.AddSilo(s, servers.back()->port()).ok());
  }
  auto provider = ServiceProvider::Create(&network).ValueOrDie();

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 15),
                       AggregateKind::kCount};
  // Warm the pool (first fan-out dials one connection per silo).
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  Timer timer;
  ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kExact).ok());
  const double elapsed_ms = timer.ElapsedMillis();
  // <= 2x the single-silo latency (sequential would be ~8x).
  EXPECT_LT(elapsed_ms, 2.0 * kDelayMs);
}

}  // namespace
}  // namespace fra
