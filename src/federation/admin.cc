#include "federation/admin.h"

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/build_info.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace fra {
namespace {

HttpResponse Healthz(ServiceProvider* provider) {
  SiloHealthTracker* health = provider->health();
  if (health == nullptr) return HttpResponse::Text("ok\n");
  std::string unhealthy;
  for (const auto& silo : health->Snapshot()) {
    if (silo.state == SiloHealthTracker::State::kDown ||
        silo.state == SiloHealthTracker::State::kProbing) {
      if (!unhealthy.empty()) unhealthy += ", ";
      unhealthy += "silo " + std::to_string(silo.silo_id) + " " +
                   SiloHealthTracker::StateToString(silo.state);
    }
  }
  if (unhealthy.empty()) return HttpResponse::Text("ok\n");
  return HttpResponse::Text("unhealthy: " + unhealthy + "\n", 503);
}

HttpResponse Statusz(ServiceProvider* provider) {
  const ServiceProvider::Options& options = provider->options();
  std::ostringstream out;
  out << std::boolalpha;
  out << "{\n";
  out << "  \"federation\": {\n";
  out << "    \"silos\": " << provider->num_silos() << ",\n";
  out << "    \"epsilon\": " << provider->epsilon() << ",\n";
  out << "    \"delta\": " << provider->delta() << ",\n";
  out << "    \"silos_per_query\": " << options.silos_per_query << ",\n";
  out << "    \"heterogeneity\": " << provider->MeasureHeterogeneity()
      << ",\n";
  out << "    \"recommended_algorithm\": \""
      << FraAlgorithmToString(provider->RecommendAlgorithm(true)) << "\",\n";
  out << "    \"grid_memory_bytes\": " << provider->GridMemoryUsage() << "\n";
  out << "  },\n";
  out << "  \"build\": {\n";
  out << "    \"git_sha\": \"" << BuildGitSha() << "\",\n";
  out << "    \"build_type\": \"" << BuildTypeName() << "\",\n";
  out << "    \"tracing_compiled\": " << BuildTracingCompiled() << ",\n";
  out << "    \"tracing_enabled\": " << Tracer::Get().enabled() << "\n";
  out << "  },\n";

  out << "  \"silos\": [";
  if (SiloHealthTracker* health = provider->health()) {
    bool first = true;
    for (const auto& silo : health->Snapshot()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"silo\": " << silo.silo_id << ", \"state\": \""
          << SiloHealthTracker::StateToString(silo.state)
          << "\", \"latency_ewma_micros\": " << silo.latency_ewma_micros
          << ", \"successes\": " << silo.successes
          << ", \"failures\": " << silo.failures
          << ", \"window_failure_ratio\": " << silo.window_failure_ratio
          << "}";
    }
    if (!first) out << "\n  ";
  }
  out << "],\n";

  // The TCP transport mirrors its pool occupancy into these gauges; an
  // in-process federation simply has none registered.
  out << "  \"tcp_pools\": [";
  {
    MetricsRegistry& registry = MetricsRegistry::Default();
    const auto open_gauges =
        registry.GaugesNamed("fra_tcp_pool_open_connections");
    const auto busy_gauges =
        registry.GaugesNamed("fra_tcp_pool_busy_connections");
    bool first = true;
    for (size_t i = 0; i < open_gauges.size(); ++i) {
      std::string silo = "-1";
      for (const auto& [key, value] : open_gauges[i].first) {
        if (key == "silo") silo = value;
      }
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"silo\": " << silo
          << ", \"open\": " << open_gauges[i].second->Value()
          << ", \"busy\": "
          << (i < busy_gauges.size() ? busy_gauges[i].second->Value() : 0.0)
          << "}";
    }
    if (!first) out << "\n  ";
  }
  out << "],\n";

  // One entry per event loop of the reactor transport (empty for an
  // in-process federation): the fra_reactor_* health signals, summarised
  // as mean/p99 so a glance at /statusz shows a stalled loop without a
  // Prometheus scrape.
  out << "  \"reactor_loops\": [";
  {
    MetricsRegistry& registry = MetricsRegistry::Default();
    const auto label_value = [](const MetricLabels& labels,
                                const std::string& key) -> std::string {
      for (const auto& [k, v] : labels) {
        if (k == key) return v;
      }
      return "";
    };
    const auto find_hist = [&](const char* name, const std::string& loop)
        -> const Histogram* {
      for (const auto& [labels, hist] : registry.HistogramsNamed(name)) {
        if (label_value(labels, "loop") == loop) return hist;
      }
      return nullptr;
    };
    const auto emit_hist = [&](const char* key, const Histogram* hist) {
      out << "\"" << key << "\": ";
      if (hist == nullptr) {
        out << "null";
        return;
      }
      out << "{\"count\": " << hist->Count() << ", \"mean_micros\": "
          << hist->Mean() << ", \"p99_micros\": " << hist->Quantile(0.99)
          << "}";
    };
    bool first = true;
    for (const auto& [labels, lag] :
         registry.HistogramsNamed("fra_reactor_loop_lag_microseconds")) {
      const std::string loop = label_value(labels, "loop");
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"loop\": " << (loop.empty() ? "-1" : loop) << ", ";
      emit_hist("lag", lag);
      out << ", ";
      emit_hist("epoll_wait",
                find_hist("fra_reactor_epoll_wait_microseconds", loop));
      out << ", ";
      emit_hist("dispatch",
                find_hist("fra_reactor_dispatch_microseconds", loop));
      out << ", ";
      emit_hist("timer_drift",
                find_hist("fra_reactor_timer_drift_microseconds", loop));
      out << ", \"pending_timers\": ";
      const Gauge* pending = nullptr;
      for (const auto& [glabels, gauge] :
           registry.GaugesNamed("fra_reactor_pending_timers")) {
        if (label_value(glabels, "loop") == loop) pending = gauge;
      }
      out << (pending != nullptr ? pending->Value() : 0.0) << "}";
    }
    if (!first) out << "\n  ";
  }
  out << "],\n";

  out << "  \"flight_recorder\": ";
  if (FlightRecorder* recorder = provider->flight_recorder()) {
    out << "{\"records\": " << recorder->size()
        << ", \"capacity\": " << recorder->capacity()
        << ", \"slow_threshold_micros\": "
        << recorder->slow_threshold_micros() << "},\n";
  } else {
    out << "null,\n";
  }

  // Where each query class's resources go: the cost ledger's rollups,
  // one row per {algorithm, aggregate, cache-outcome}.
  out << "  \"cost_ledger\": ";
  if (QueryCostLedger* ledger = provider->cost_ledger()) {
    out << ledger->RenderJson() << ",\n";
  } else {
    out << "null,\n";
  }

  out << "  \"audit\": ";
  if (AccuracyAuditor* auditor = provider->auditor()) {
    const AccuracyAuditor::Snapshot audit = auditor->snapshot();
    out << "{\"sample_rate\": " << auditor->options().sample_rate
        << ", \"considered\": " << audit.considered
        << ", \"audited\": " << audit.audited
        << ", \"failures\": " << audit.failures
        << ", \"violations\": " << audit.violations
        << ", \"max_relative_error\": " << audit.max_relative_error
        << ", \"mean_relative_error\": " << audit.mean_relative_error
        << "},\n";
  } else {
    out << "null,\n";
  }

  out << "  \"cache\": ";
  if (ProviderCache* cache = provider->cache()) {
    const AnswerCache::Counters exact = cache->exact().counters();
    out << "{\"epoch\": " << cache->epoch()
        << ", \"exact\": {\"entries\": " << cache->exact().size()
        << ", \"hits\": " << exact.hits << ", \"misses\": " << exact.misses
        << ", \"evictions\": " << exact.evictions << "}"
        << "},\n";
  } else {
    out << "null,\n";
  }

  const BufferPool::Stats pool = BufferPool::Default().stats();
  out << "  \"buffer_pool\": {\"enabled\": " << BufferPool::enabled()
      << ", \"hits\": " << pool.hits << ", \"misses\": " << pool.misses
      << ", \"pooled\": " << pool.pooled
      << ", \"discarded\": " << pool.discarded
      << ", \"free_bytes\": " << pool.free_bytes
      << ", \"free_buffers\": " << pool.free_buffers << "},\n";

  const CommStats::Snapshot comm = provider->comm();
  out << "  \"comm\": {\"messages\": " << comm.messages
      << ", \"bytes_to_silos\": " << comm.bytes_to_silos
      << ", \"bytes_to_provider\": " << comm.bytes_to_provider << "}\n";
  out << "}\n";
  return HttpResponse::Json(out.str());
}

}  // namespace

void InstallFederationAdminHandlers(AdminServer* server,
                                    ServiceProvider* provider) {
  server->AddHandler("/healthz",
                     [provider] { return Healthz(provider); });
  server->AddHandler("/statusz",
                     [provider] { return Statusz(provider); });
  if (FlightRecorder* recorder = provider->flight_recorder()) {
    server->AddHandler("/debug/flightz", [recorder] {
      return HttpResponse::Text(recorder->RenderText());
    });
    server->AddHandler("/debug/flightz.json", [recorder] {
      return HttpResponse::Json(recorder->RenderJson());
    });
  }
}

}  // namespace fra
