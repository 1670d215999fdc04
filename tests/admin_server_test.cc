// AdminServer: routing, formats, concurrency and graceful shutdown —
// plus the full acceptance scenario of docs/observability.md: a live TCP
// federation scraped over /metrics, /healthz, /statusz and /tracez while
// one silo hangs, degrades, and recovers.

#include "obs/admin_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "federation/admin.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/tcp_network.h"
#include "tests/test_util.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace fra {
namespace {

using testing::HttpGet;
using testing::HttpReply;
using testing::JsonChecker;

TEST(AdminServerTest, MetricsEndpointServesPrometheusText) {
  auto server = AdminServer::Start().ValueOrDie();
  ASSERT_GT(server->port(), 0);
  MetricsRegistry::Default()
      .GetCounter("fra_admin_test_counter")
      .Increment(3);

  const HttpReply reply = HttpGet(server->port(), "/metrics").ValueOrDie();
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(reply.headers.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.body.find("fra_admin_test_counter 3"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1UL);
}

TEST(AdminServerTest, MetricsJsonAndTracezAreValidJson) {
  auto server = AdminServer::Start().ValueOrDie();
  MetricsRegistry::Default().GetGauge("fra_admin_test_gauge").Set(1.5);

  const HttpReply json =
      HttpGet(server->port(), "/metrics.json").ValueOrDie();
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.headers.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonChecker::IsValid(json.body)) << json.body;

  const HttpReply tracez = HttpGet(server->port(), "/tracez").ValueOrDie();
  EXPECT_EQ(tracez.status, 200);
  EXPECT_TRUE(JsonChecker::IsValid(tracez.body)) << tracez.body;
}

TEST(AdminServerTest, UnknownPathIs404AndNonGetIs405) {
  auto server = AdminServer::Start().ValueOrDie();
  EXPECT_EQ(HttpGet(server->port(), "/nope").ValueOrDie().status, 404);
  const HttpReply post =
      HttpGet(server->port(), "/metrics", "POST").ValueOrDie();
  EXPECT_EQ(post.status, 405);
  EXPECT_NE(post.headers.find("Allow: GET"), std::string::npos);
}

TEST(AdminServerTest, QueryStringsDoNotDefeatRouting) {
  auto server = AdminServer::Start().ValueOrDie();
  EXPECT_EQ(HttpGet(server->port(), "/metrics?format=text").ValueOrDie()
                .status,
            200);
}

TEST(AdminServerTest, CustomHandlersAndHealthzDefault) {
  auto server = AdminServer::Start().ValueOrDie();
  EXPECT_EQ(HttpGet(server->port(), "/healthz").ValueOrDie().status, 200);
  server->AddHandler("/custom", [] {
    return HttpResponse::Text("custom body", 200);
  });
  const HttpReply reply = HttpGet(server->port(), "/custom").ValueOrDie();
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "custom body");
}

TEST(AdminServerTest, ScrapesStayConsistentUnderWriteLoad) {
  auto server = AdminServer::Start().ValueOrDie();
  // Register one family up front: each test runs in its own process, so
  // without this the first scrape can race the writer threads' first
  // GetCounter and legitimately see an empty registry (empty body).
  MetricsRegistry::Default()
      .GetCounter("fra_admin_load_counter", {{"writer", "main"}})
      .Increment();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, t] {
      Counter& counter = MetricsRegistry::Default().GetCounter(
          "fra_admin_load_counter", {{"writer", std::to_string(t)}});
      while (!stop.load()) counter.Increment();
    });
  }
  for (int i = 0; i < 20; ++i) {
    const HttpReply reply =
        HttpGet(server->port(), i % 2 == 0 ? "/metrics" : "/metrics.json")
            .ValueOrDie();
    ASSERT_EQ(reply.status, 200);
    ASSERT_FALSE(reply.body.empty()) << "i=" << i << " headers:\n"
                                     << reply.headers;
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
}

TEST(AdminServerTest, ConcurrentScrapersAllGetFullResponses) {
  auto server = AdminServer::Start().ValueOrDie();
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 8; ++t) {
    scrapers.emplace_back([&server, &ok] {
      for (int i = 0; i < 5; ++i) {
        const auto reply = HttpGet(server->port(), "/metrics");
        if (reply.ok() && reply.ValueOrDie().status == 200) ++ok;
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok.load(), 40);
}

TEST(AdminServerTest, GracefulShutdownClosesTheSocket) {
  uint16_t port = 0;
  {
    auto server = AdminServer::Start().ValueOrDie();
    port = server->port();
    ASSERT_EQ(HttpGet(port, "/healthz").ValueOrDie().status, 200);
    server->Stop();
    server->Stop();  // idempotent
  }
  // The listener is gone; connecting must fail rather than hang.
  EXPECT_FALSE(HttpGet(port, "/healthz").ok());
}

TEST(AdminServerTest, FailedStartLeaksNoListenerFd) {
  auto holder = AdminServer::Start().ValueOrDie();
  const size_t baseline = testing::OpenFdCount();
  // The port is taken, so each Start fails at bind; it must close the
  // socket it opened.
  AdminServer::Options options;
  options.port = holder->port();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(AdminServer::Start(options).ok());
  }
  EXPECT_EQ(testing::OpenFdCount(), baseline);
}

// --- Federation acceptance scenario ---------------------------------------

const Rect kDomain{{0, 0}, {40, 40}};

/// While armed, every data-plane request parks on a condition variable
/// (the client times out: a hung silo); disarming releases the parked
/// handlers and restores normal service, so a later recovery probe
/// genuinely succeeds.
class RecoverableHang : public SiloEndpoint {
 public:
  explicit RecoverableHang(SiloEndpoint* inner) : inner_(inner) {}
  ~RecoverableHang() override { Disarm(); }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    released_cv_.notify_all();
  }

  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    FRA_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(request));
    if (type != MessageType::kBuildGridRequest) {
      std::unique_lock<std::mutex> lock(mu_);
      released_cv_.wait(lock, [this] { return !armed_; });
    }
    return inner_->HandleMessage(request);
  }

 private:
  SiloEndpoint* inner_;
  std::mutex mu_;
  std::condition_variable released_cv_;
  bool armed_ = false;
};

uint64_t TcpRequestsFor(int silo_id) {
  return MetricsRegistry::Default()
      .GetCounter("fra_silo_requests_total",
                  {{"silo", std::to_string(silo_id)}, {"transport", "tcp"}})
      .Value();
}

uint64_t TcpTimeoutsFor(int silo_id) {
  return MetricsRegistry::Default()
      .GetCounter("fra_silo_timeouts_total",
                  {{"silo", std::to_string(silo_id)}, {"transport", "tcp"}})
      .Value();
}

TEST(AdminFederationTest, EndpointsTrackALiveTcpFederation) {
  // Three silos over loopback sockets, short request deadline, health
  // breaker opening after 2 consecutive timeouts.
  std::vector<std::unique_ptr<Silo>> silos;
  std::vector<std::unique_ptr<RecoverableHang>> endpoints;
  std::vector<std::unique_ptr<TcpSiloServer>> servers;
  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  TcpNetwork::Options net_options;
  net_options.request_timeout_ms = 250;
  TcpNetwork network(net_options);
  for (int s = 0; s < 3; ++s) {
    silos.push_back(
        Silo::Create(s, testing::RandomObjects(2000, kDomain, 90 + s),
                     silo_options)
            .ValueOrDie());
    endpoints.push_back(std::make_unique<RecoverableHang>(silos.back().get()));
    servers.push_back(
        TcpSiloServer::Start(endpoints.back().get()).ValueOrDie());
    ASSERT_TRUE(network.AddSilo(s, servers.back()->port()).ok());
  }
  ServiceProvider::Options provider_options;
  provider_options.audit_sample_rate = 0.0;
  provider_options.health.down_after_consecutive_failures = 2;
  provider_options.health.probe_backoff_ms = 400;
  auto provider =
      ServiceProvider::Create(&network, provider_options).ValueOrDie();

  auto admin = AdminServer::Start().ValueOrDie();
  InstallFederationAdminHandlers(admin.get(), provider.get());

  const FraQuery query{QueryRange::MakeCircle({20, 20}, 12),
                       AggregateKind::kCount};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kIidEst).ok());
  }

  // Healthy federation: /healthz green, /statusz valid JSON with the
  // federation shape, /metrics carries the per-silo families.
  EXPECT_EQ(HttpGet(admin->port(), "/healthz").ValueOrDie().status, 200);
  const HttpReply statusz =
      HttpGet(admin->port(), "/statusz").ValueOrDie();
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(JsonChecker::IsValid(statusz.body)) << statusz.body;
  EXPECT_NE(statusz.body.find("\"silos\": 3"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"state\": \"up\""), std::string::npos);
  const HttpReply metrics =
      HttpGet(admin->port(), "/metrics").ValueOrDie();
  EXPECT_NE(metrics.body.find("fra_silo_health_state"), std::string::npos);
  EXPECT_NE(metrics.body.find("fra_silo_requests_total"), std::string::npos);

  // Hang silo 0: its draws time out, the breaker opens, /healthz goes
  // red and names the silo.
  endpoints[0]->Arm();
  for (int i = 0;
       i < 20 &&
       provider->health()->state(0) != SiloHealthTracker::State::kDown;
       ++i) {
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kIidEst).ok());
  }
  ASSERT_EQ(provider->health()->state(0), SiloHealthTracker::State::kDown);
  const HttpReply red = HttpGet(admin->port(), "/healthz").ValueOrDie();
  EXPECT_EQ(red.status, 503);
  EXPECT_NE(red.body.find("silo 0 down"), std::string::npos);
  EXPECT_GT(TcpTimeoutsFor(0), 0UL);

  // While the breaker is open, sampling avoids silo 0 entirely: its
  // request and timeout counters freeze across a burst of queries.
  const uint64_t requests_frozen = TcpRequestsFor(0);
  const uint64_t timeouts_frozen = TcpTimeoutsFor(0);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kIidEst).ok());
  }
  EXPECT_EQ(TcpRequestsFor(0), requests_frozen);
  EXPECT_EQ(TcpTimeoutsFor(0), timeouts_frozen);

  // Recover the silo; after the backoff a probe readmits it and the
  // endpoint reports green again.
  endpoints[0]->Disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  for (int i = 0;
       i < 50 && provider->health()->state(0) != SiloHealthTracker::State::kUp;
       ++i) {
    ASSERT_TRUE(provider->Execute(query, FraAlgorithm::kIidEst).ok());
    if (provider->health()->state(0) == SiloHealthTracker::State::kDown) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_EQ(provider->health()->state(0), SiloHealthTracker::State::kUp);
  EXPECT_GT(TcpRequestsFor(0), requests_frozen);
  EXPECT_EQ(HttpGet(admin->port(), "/healthz").ValueOrDie().status, 200);

  // /tracez still serves a loadable document after all of that.
  const HttpReply tracez = HttpGet(admin->port(), "/tracez").ValueOrDie();
  EXPECT_TRUE(JsonChecker::IsValid(tracez.body));
}

}  // namespace
}  // namespace fra
