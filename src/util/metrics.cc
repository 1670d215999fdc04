#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace fra {
namespace {

// Shortest float formatting that round-trips typical bucket bounds and
// sums without scientific noise ("1", "2.5", "1000000").
std::string FormatNumber(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", v);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%g", v);
  }
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// {a="x",b="y"} including braces; "" for an empty label set.
std::string PrometheusLabels(const MetricLabels& labels,
                             const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out.push_back(',');
    out += extra;
  }
  out.push_back('}');
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonLabels(const MetricLabels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  out.push_back('}');
  return out;
}

// Prometheus HELP escaping: only backslash and newline are special on a
// HELP line (label-value escaping additionally quotes '"').
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Help text for every metric family the library itself registers, so the
// exposition carries `# HELP` without every call site threading a string
// through Get*. Families created by embedders pick theirs up via
// MetricsRegistry::SetHelp. Returns "" for unknown names.
const char* BuiltinHelp(const std::string& name) {
  static const std::map<std::string, const char*> kHelp = {
      {"fra_audit_failures_total",
       "Background accuracy audits whose EXACT replay failed"},
      {"fra_audits_total", "Background accuracy audits by outcome"},
      {"fra_batch_flushes_total",
       "Coalescer batch flushes by trigger (size/deadline/shutdown)"},
      {"fra_batch_size", "Requests per flushed coalescer batch"},
      {"fra_build_info",
       "Constant 1; build metadata (git sha, build type, tracing) as labels"},
      {"fra_bufpool_acquires_total",
       "Buffer-pool acquires by result (hit=reused slab, miss=fresh alloc)"},
      {"fra_bufpool_free_buffers", "Buffers currently parked on pool freelists"},
      {"fra_bufpool_free_bytes",
       "Capacity in bytes currently parked on pool freelists"},
      {"fra_bufpool_releases_total",
       "Buffer-pool releases by result (pooled=kept, discarded=freed)"},
      {"fra_cache_evictions_total", "Provider cache evictions by layer"},
      {"fra_cache_hits_total", "Provider cache hits by layer"},
      {"fra_cache_invalidations_total",
       "Cached answers dropped by data-epoch bumps, by layer"},
      {"fra_cache_misses_total", "Provider cache misses by layer"},
      {"fra_coalescer_staged_requests",
       "Requests currently staged in per-silo coalescing buffers"},
      {"fra_comm_bytes_total",
       "Application payload bytes exchanged with silos by direction"},
      {"fra_comm_messages_total", "Messages exchanged with silos"},
      {"fra_estimate_relative_error",
       "Relative error of audited approximate answers"},
      {"fra_federation_silos", "Silos registered with the provider"},
      {"fra_frame_bytes_total",
       "Frame-layer bytes moved by the reactor transport by direction"},
      {"fra_guarantee_violations_total",
       "Audited answers exceeding the (eps, delta) error bound"},
      {"fra_log_records_dropped_total",
       "Log records suppressed by per-call-site rate limiting, by level"},
      {"fra_log_records_total", "Log records accepted into the ring by level"},
      {"fra_profile_alloc_samples_total",
       "Buffer-pool miss stacks sampled by the profiler, by size class"},
      {"fra_profile_overruns_total",
       "Profiler samples lost to ring overruns between drains"},
      {"fra_profile_running_hz",
       "Sampling rate of the continuous profiler (0 while stopped)"},
      {"fra_profile_samples_total", "Stack samples captured by the profiler"},
      {"fra_provider_data_epoch",
       "Data epoch of the provider cache (bumped by SyncGrids)"},
      {"fra_provider_grid_memory_bytes",
       "Provider-side grid index memory (g_0 plus retained silo grids)"},
      {"fra_queries_total", "FRA queries executed by algorithm and result"},
      {"fra_query_cost_bytes_total",
       "Wire payload bytes attributed to queries by class and direction"},
      {"fra_query_cost_cpu_microseconds",
       "Thread-CPU time attributed per query by class"},
      {"fra_query_cost_queue_wait_microseconds",
       "Coalescer staging wait attributed per query by class"},
      {"fra_query_cost_silo_cpu_microseconds",
       "Silo-side CPU time per handled message, by silo"},
      {"fra_query_cost_silo_rpcs_total",
       "Data-plane silo exchanges attributed to queries by class"},
      {"fra_query_latency_microseconds",
       "End-to-end FRA query latency by algorithm"},
      {"fra_reactor_dispatch_microseconds",
       "Time an event loop spends running handlers, tasks and timers per "
       "wakeup"},
      {"fra_reactor_epoll_wait_microseconds",
       "Time an event loop spends blocked in epoll_wait per iteration"},
      {"fra_reactor_loop_lag_microseconds",
       "Delay between submitting a task to an event loop and running it"},
      {"fra_reactor_pending_timers",
       "Timers pending on an event loop's timer wheel"},
      {"fra_reactor_timer_drift_microseconds",
       "How late timer-wheel callbacks fire past their deadline"},
      {"fra_silo_health_state",
       "Health tracker state per silo (0=up 1=degraded 2=down 3=probing)"},
      {"fra_silo_latency_ewma_micros",
       "EWMA of per-silo request latency from the health tracker"},
      {"fra_silo_requests_total", "Provider-to-silo requests by outcome"},
      {"fra_silo_timeouts_total", "Provider-to-silo requests that timed out"},
      {"fra_span_duration_microseconds", "Trace span durations by span name"},
      {"fra_tcp_backpressure_bytes",
       "Unsent bytes buffered toward each silo on the reactor client"},
      {"fra_tcp_batch_frames_total",
       "Coalesced batch frames shipped per silo"},
      {"fra_tcp_inflight_batches", "Batch frames awaiting a silo response"},
      {"fra_tcp_pipeline_depth",
       "Requests in flight on one client connection when another is "
       "pipelined"},
      {"fra_tcp_pool_busy_connections",
       "Connections of a silo pool currently carrying a request"},
      {"fra_tcp_pool_open_connections", "Open connections per silo pool"},
      {"fra_tcp_server_backpressure_bytes",
       "Unsent response bytes buffered across silo-server connections"},
      {"fra_tcp_server_pipeline_depth",
       "Requests in flight on one silo-server connection when another "
       "arrives"},
  };
  const auto it = kHelp.find(name);
  return it != kHelp.end() ? it->second : "";
}

MetricLabels SortedLabels(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Canonical instance key: "k1=v1\x1fk2=v2" over sorted labels.
std::string LabelKey(const MetricLabels& sorted) {
  std::string key;
  for (const auto& [k, v] : sorted) {
    key += k;
    key.push_back('=');
    key += v;
    key.push_back('\x1f');
  }
  return key;
}

}  // namespace

// --- Stripes -----------------------------------------------------------------

size_t metrics_internal::NextStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      lines_per_stripe_((kFirstBucketWord + bounds_.size() + 1 +
                         kWordsPerLine - 1) /
                        kWordsPerLine),
      lines_(new Line[kMetricStripes * lines_per_stripe_]) {
  FRA_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  FRA_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be increasing";
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  const size_t stripe = MetricStripe();
  Word(stripe, kFirstBucketWord + bucket)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic<uint64_t>& sum = Word(stripe, kSumWord);
  uint64_t bits = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(
      bits, std::bit_cast<uint64_t>(std::bit_cast<double>(bits) + value),
      std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (size_t stripe = 0; stripe < kMetricStripes; ++stripe) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      total += Word(stripe, kFirstBucketWord + i)
                   .load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (size_t stripe = 0; stripe < kMetricStripes; ++stripe) {
    total += std::bit_cast<double>(
        Word(stripe, kSumWord).load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t stripe = 0; stripe < kMetricStripes; ++stripe) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += Word(stripe, kFirstBucketWord + i)
                       .load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based ceil, matching "q of the
  // observations are <= the answer").
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    // Target lies in bucket i: interpolate between its bounds.
    if (i == bounds_.size()) return bounds_.back();  // +Inf bucket: clamp
    const double hi = bounds_[i];
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double within = static_cast<double>(rank - seen) /
                          static_cast<double>(counts[i]);
    return lo + (hi - lo) * within;
  }
  return bounds_.back();
}

void Histogram::Reset() {
  for (size_t line = 0; line < kMetricStripes * lines_per_stripe_; ++line) {
    for (std::atomic<uint64_t>& word : lines_[line].words) {
      word.store(0, std::memory_order_relaxed);
    }
  }
}

const std::vector<double>& Histogram::DefaultLatencyBucketsMicros() {
  static const std::vector<double>* kBuckets = new std::vector<double>{
      1,    2.5,   5,     10,     25,     50,     100,     250,     500,
      1000, 2500,  5000,  10000,  25000,  50000,  100000,  250000,  500000,
      1e6,  2.5e6};
  return *kBuckets;
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Instance& MetricsRegistry::GetInstance(
    const std::string& name, const MetricLabels& labels, Kind kind,
    const std::vector<double>* bounds) {
  const MetricLabels sorted = SortedLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = families_[name];
  if (family.instances.empty()) {
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
  }
  FRA_CHECK(family.kind == kind)
      << "metric '" << name << "' registered with a different type";
  auto [it, inserted] = family.instances.try_emplace(LabelKey(sorted));
  Instance& instance = it->second;
  if (inserted) {
    instance.labels = sorted;
    switch (kind) {
      case Kind::kCounter:
        instance.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        instance.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        instance.histogram = std::make_unique<Histogram>(family.bounds);
        break;
    }
  }
  return instance;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return *GetInstance(name, labels, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  return *GetInstance(name, labels, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels,
                                         const std::vector<double>& bounds) {
  return *GetInstance(name, labels, Kind::kHistogram, &bounds).histogram;
}

std::vector<std::pair<MetricLabels, const Histogram*>>
MetricsRegistry::HistogramsNamed(const std::string& name) const {
  std::vector<std::pair<MetricLabels, const Histogram*>> out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kHistogram) {
    return out;
  }
  for (const auto& [key, instance] : it->second.instances) {
    out.emplace_back(instance.labels, instance.histogram.get());
  }
  return out;
}

std::vector<std::pair<MetricLabels, const Counter*>>
MetricsRegistry::CountersNamed(const std::string& name) const {
  std::vector<std::pair<MetricLabels, const Counter*>> out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) {
    return out;
  }
  for (const auto& [key, instance] : it->second.instances) {
    out.emplace_back(instance.labels, instance.counter.get());
  }
  return out;
}

std::vector<std::pair<MetricLabels, const Gauge*>>
MetricsRegistry::GaugesNamed(const std::string& name) const {
  std::vector<std::pair<MetricLabels, const Gauge*>> out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kGauge) {
    return out;
  }
  for (const auto& [key, instance] : it->second.instances) {
    out.emplace_back(instance.labels, instance.gauge.get());
  }
  return out;
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    const auto override_it = help_.find(name);
    const std::string help =
        override_it != help_.end() ? override_it->second : BuiltinHelp(name);
    if (!help.empty()) {
      out << "# HELP " << name << " " << EscapeHelp(help) << "\n";
    }
    switch (family.kind) {
      case Kind::kCounter:
        out << "# TYPE " << name << " counter\n";
        for (const auto& [key, instance] : family.instances) {
          out << name << PrometheusLabels(instance.labels) << " "
              << instance.counter->Value() << "\n";
        }
        break;
      case Kind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        for (const auto& [key, instance] : family.instances) {
          out << name << PrometheusLabels(instance.labels) << " "
              << FormatNumber(instance.gauge->Value()) << "\n";
        }
        break;
      case Kind::kHistogram:
        out << "# TYPE " << name << " histogram\n";
        for (const auto& [key, instance] : family.instances) {
          const Histogram& h = *instance.histogram;
          const std::vector<uint64_t> counts = h.BucketCounts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            const std::string le =
                i < h.bounds().size() ? FormatNumber(h.bounds()[i]) : "+Inf";
            out << name << "_bucket"
                << PrometheusLabels(instance.labels, "le=\"" + le + "\"")
                << " " << cumulative << "\n";
          }
          out << name << "_sum" << PrometheusLabels(instance.labels) << " "
              << FormatNumber(h.Sum()) << "\n";
          out << name << "_count" << PrometheusLabels(instance.labels) << " "
              << h.Count() << "\n";
        }
        break;
    }
  }
  return out.str();
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters;
  std::ostringstream gauges;
  std::ostringstream histograms;
  bool first_counter = true;
  bool first_gauge = true;
  bool first_histogram = true;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, instance] : family.instances) {
      switch (family.kind) {
        case Kind::kCounter:
          counters << (first_counter ? "" : ",") << "\n    {\"name\":"
                   << JsonString(name)
                   << ",\"labels\":" << JsonLabels(instance.labels)
                   << ",\"value\":" << instance.counter->Value() << "}";
          first_counter = false;
          break;
        case Kind::kGauge:
          gauges << (first_gauge ? "" : ",") << "\n    {\"name\":"
                 << JsonString(name)
                 << ",\"labels\":" << JsonLabels(instance.labels)
                 << ",\"value\":" << FormatNumber(instance.gauge->Value())
                 << "}";
          first_gauge = false;
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instance.histogram;
          histograms << (first_histogram ? "" : ",") << "\n    {\"name\":"
                     << JsonString(name)
                     << ",\"labels\":" << JsonLabels(instance.labels)
                     << ",\"count\":" << h.Count()
                     << ",\"sum\":" << FormatNumber(h.Sum())
                     << ",\"p50\":" << FormatNumber(h.Quantile(0.5))
                     << ",\"p95\":" << FormatNumber(h.Quantile(0.95))
                     << ",\"p99\":" << FormatNumber(h.Quantile(0.99))
                     << ",\"buckets\":[";
          const std::vector<uint64_t> counts = h.BucketCounts();
          for (size_t i = 0; i < counts.size(); ++i) {
            const std::string le =
                i < h.bounds().size()
                    ? FormatNumber(h.bounds()[i])
                    : std::string("\"+Inf\"");
            histograms << (i == 0 ? "" : ",") << "{\"le\":" << le
                       << ",\"count\":" << counts[i] << "}";
          }
          histograms << "]}";
          first_histogram = false;
          break;
        }
      }
    }
  }
  std::ostringstream out;
  out << "{\n  \"counters\": [" << counters.str()
      << (first_counter ? "" : "\n  ") << "],\n  \"gauges\": ["
      << gauges.str() << (first_gauge ? "" : "\n  ")
      << "],\n  \"histograms\": [" << histograms.str()
      << (first_histogram ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [key, instance] : family.instances) {
      if (instance.counter) instance.counter->Reset();
      if (instance.gauge) instance.gauge->Reset();
      if (instance.histogram) instance.histogram->Reset();
    }
  }
}

}  // namespace fra
