// Fan-out scaling over real TCP: with the provider's per-silo connection
// pool and the parallel EXACT/OPTA fan-out, one query against m silos
// that each take ~`delay` to answer should cost O(max silo latency), not
// O(sum) — the wall clock stays flat as m grows. Run with the serial
// baseline in mind: m silos × delay each would be m·delay sequentially.
//
// A high-concurrency sustain section then drives the reactor transport
// with thousands of concurrent in-flight queries: each costs a timer-wheel
// entry and a pipelined slot, not a blocked caller thread.
//
//   ./build/bench/bench_tcp_fanout           # m in {1, 2, 4, 8}; 10k in flight
//   FRA_BENCH_SCALE=smoke ./build/bench/bench_tcp_fanout   # 1k in flight

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "net/message.h"
#include "net/tcp_network.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

// Fixed per-request service delay in front of a real silo — the 1-silo
// latency model of the pooled-transport tests.
class DelayingEndpoint : public fra::SiloEndpoint {
 public:
  DelayingEndpoint(fra::SiloEndpoint* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}
  fra::Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->HandleMessage(request);
  }

 private:
  fra::SiloEndpoint* inner_;
  const int delay_ms_;
};

fra::ObjectSet MakeObjects(const fra::Rect& domain, size_t count,
                           fra::Rng* rng) {
  fra::ObjectSet objects;
  objects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    objects.push_back({{rng->NextDouble(domain.min.x, domain.max.x),
                        rng->NextDouble(domain.min.y, domain.max.y)},
                       static_cast<double>(rng->NextInt64(0, 4))});
  }
  return objects;
}

}  // namespace

int main() {
  const char* scale = std::getenv("FRA_BENCH_SCALE");
  const bool smoke = scale != nullptr && std::strcmp(scale, "smoke") == 0;
  const int delay_ms = smoke ? 2 : 10;
  const int repetitions = smoke ? 3 : 20;
  const size_t objects_per_silo = smoke ? 2000 : 20000;

  const fra::Rect domain{{0, 0}, {100, 100}};
  fra::Silo::Options silo_options;
  silo_options.grid_spec.domain = domain;
  silo_options.grid_spec.cell_length = 2.0;

  fra::bench::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("tcp_fanout");
  json.Key("git_sha").String(fra::bench::GitSha());
  json.Key("scale").String(smoke ? "smoke" : "default");
  json.Key("delay_ms").Int(delay_ms);
  json.Key("repetitions").Int(repetitions);
  json.Key("objects_per_silo").Int(static_cast<long long>(objects_per_silo));
  json.Key("points").BeginArray();

  // --- Fan-out latency -----------------------------------------------------
  std::printf("\nEXACT fan-out over TCP, %d ms service delay\n", delay_ms);
  std::printf("%4s %14s %16s %10s\n", "m", "mean query ms",
              "serial ms (m*d)", "speedup");
  for (size_t m : {1UL, 2UL, 4UL, 8UL}) {
    std::vector<std::unique_ptr<fra::Silo>> silos;
    std::vector<std::unique_ptr<DelayingEndpoint>> delayed;
    std::vector<std::unique_ptr<fra::TcpSiloServer>> servers;
    fra::TcpNetwork network;
    fra::Rng rng(7 + m);
    for (size_t s = 0; s < m; ++s) {
      auto silo = fra::Silo::Create(static_cast<int>(s),
                                    MakeObjects(domain, objects_per_silo,
                                                &rng),
                                    silo_options)
                      .ValueOrDie();
      delayed.push_back(
          std::make_unique<DelayingEndpoint>(silo.get(), delay_ms));
      auto server =
          fra::TcpSiloServer::Start(delayed.back().get()).ValueOrDie();
      FRA_CHECK_OK(network.AddSilo(static_cast<int>(s), server->port()));
      silos.push_back(std::move(silo));
      servers.push_back(std::move(server));
    }

    auto provider = fra::ServiceProvider::Create(&network).ValueOrDie();
    const fra::FraQuery query{fra::QueryRange::MakeRect({10, 10}, {90, 90}),
                              fra::AggregateKind::kCount};
    // Warm the pool: the first fan-out pays m connection dials.
    FRA_CHECK_OK(provider->Execute(query, fra::FraAlgorithm::kExact).status());

    fra::Timer timer;
    for (int r = 0; r < repetitions; ++r) {
      FRA_CHECK_OK(
          provider->Execute(query, fra::FraAlgorithm::kExact).status());
    }
    const double mean_ms = timer.ElapsedMillis() / repetitions;
    const double serial_ms = static_cast<double>(m) * delay_ms;
    std::printf("%4zu %14.2f %16.1f %9.1fx\n", m, mean_ms, serial_ms,
                serial_ms / mean_ms);
    json.BeginObject();
    json.Key("mode").String("reactor");
    json.Key("num_silos").Int(static_cast<long long>(m));
    json.Key("mean_query_ms").Number(mean_ms);
    json.Key("serial_ms").Number(serial_ms);
    json.Key("speedup").Number(serial_ms / mean_ms);
    json.EndObject();
  }
  json.EndArray();

  // --- High-concurrency sustain -------------------------------------------
  // Thousands of queries in flight against a handful of silos: each
  // in-flight call costs one timer-wheel entry and a pipelined slot on a
  // pooled connection, not a blocked thread. The window pump keeps
  // `target_inflight` outstanding until `total_ops` complete.
  {
    const size_t target_inflight = smoke ? 1000 : 10000;
    const size_t total_ops = target_inflight * (smoke ? 5 : 10);
    const size_t kSilos = 4;

    std::vector<std::unique_ptr<fra::Silo>> silos;
    std::vector<std::unique_ptr<fra::TcpSiloServer>> servers;
    fra::TcpNetwork::Options net_options;
    // Reactor threads ~ core count; loops are I/O bound.
    net_options.reactor_threads =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    fra::TcpNetwork network(net_options);
    fra::Rng rng(99);
    for (size_t s = 0; s < kSilos; ++s) {
      silos.push_back(fra::Silo::Create(static_cast<int>(s),
                                        MakeObjects(domain, 2000, &rng),
                                        silo_options)
                          .ValueOrDie());
      servers.push_back(
          fra::TcpSiloServer::Start(silos.back().get()).ValueOrDie());
      FRA_CHECK_OK(network.AddSilo(static_cast<int>(s),
                                   servers.back()->port()));
    }

    fra::AggregateRequest request;
    request.range = fra::QueryRange::MakeRect({20, 20}, {80, 80});
    request.mode = fra::LocalQueryMode::kExact;
    const std::vector<uint8_t> encoded = request.Encode();

    std::mutex mu;
    std::condition_variable window_open;
    std::condition_variable drained;
    size_t inflight = 0, completed = 0, failed = 0, max_inflight = 0;

    fra::Timer timer;
    for (size_t issued = 0; issued < total_ops; ++issued) {
      {
        std::unique_lock<std::mutex> lock(mu);
        window_open.wait(lock, [&] { return inflight < target_inflight; });
        ++inflight;
        max_inflight = std::max(max_inflight, inflight);
      }
      network.CallAsync(
          static_cast<int>(issued % kSilos), encoded,
          [&](fra::Result<std::vector<uint8_t>> response) {
            std::lock_guard<std::mutex> lock(mu);
            --inflight;
            ++completed;
            if (!response.ok()) ++failed;
            window_open.notify_one();
            if (completed == total_ops) drained.notify_all();
          });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      drained.wait(lock, [&] { return completed == total_ops; });
    }
    const double seconds = timer.ElapsedMillis() / 1000.0;
    const double qps = static_cast<double>(completed - failed) / seconds;
    std::printf(
        "\nsustain: %zu ops, window %zu (peak %zu in flight), "
        "%zu failed, %.0f qps\n",
        total_ops, target_inflight, max_inflight, failed, qps);

    json.Key("sustain").BeginObject();
    json.Key("target_inflight").Int(static_cast<long long>(target_inflight));
    json.Key("max_inflight").Int(static_cast<long long>(max_inflight));
    json.Key("total_ops").Int(static_cast<long long>(total_ops));
    json.Key("completed").Int(static_cast<long long>(completed));
    json.Key("failed").Int(static_cast<long long>(failed));
    json.Key("qps").Number(qps);
    json.EndObject();
  }

  json.EndObject();
  fra::bench::WriteJsonFile("BENCH_tcp_fanout.json", json.str());
  return 0;
}
