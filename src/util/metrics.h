#ifndef FRA_UTIL_METRICS_H_
#define FRA_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fra {

/// Label set attached to a metric instance, e.g.
/// {{"algorithm", "IID-est"}, {"silo", "3"}}. Stored sorted by key so two
/// permutations of the same labels address the same instance.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Counters and histograms are striped: an update lands in one of
/// kMetricStripes cache-line-padded stripes, the one this thread was
/// handed on its first update (round robin), and a read sums the
/// stripes. Up to kMetricStripes threads therefore update without
/// sharing a cache line; beyond that, threads share stripes, so a
/// stripe's update stays an atomic read-modify-write.
inline constexpr size_t kMetricStripes = 16;
inline constexpr size_t kCacheLineBytes = 64;

namespace metrics_internal {
size_t NextStripe();
}  // namespace metrics_internal

/// This thread's stripe, in [0, kMetricStripes).
inline size_t MetricStripe() {
  static thread_local const size_t stripe = metrics_internal::NextStripe();
  return stripe;
}

/// Monotonically increasing counter. Updates are lock-free and touch
/// only this thread's stripe; Value() sums the stripes.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    stripes_[MetricStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineBytes) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// Last-written value (silo count, index memory, ...). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram. Observations land in the first bucket
/// whose upper bound is >= the value (cumulative counts, Prometheus
/// semantics); an implicit +Inf bucket catches the rest. Updates are
/// lock-free and touch only this thread's stripe (sum and buckets);
/// reads sum the stripes in stripe order. Quantiles are
/// estimated by linear interpolation inside the covering bucket, so their
/// resolution is one bucket width (see docs/observability.md for the
/// error bound).
class Histogram {
 public:
  /// `bounds` must be strictly increasing upper bounds (excluding +Inf).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  double Mean() const {
    const uint64_t n = Count();
    return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
  }

  /// Estimated q-quantile (q in [0, 1]); 0 when empty. Values in the +Inf
  /// bucket clamp to the largest finite bound.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  std::vector<uint64_t> BucketCounts() const;

  void Reset();

  /// Upper bounds used by every latency histogram in the library:
  /// 1us .. 1s in a 1-2.5-5 ladder (20 finite buckets).
  static const std::vector<double>& DefaultLatencyBucketsMicros();

 private:
  // A stripe is whole cache lines of 64-bit words: word 0 the sum's
  // bits, then one word per bucket (the count is the buckets' sum).
  static constexpr size_t kSumWord = 0;
  static constexpr size_t kFirstBucketWord = 1;
  static constexpr size_t kWordsPerLine = kCacheLineBytes / sizeof(uint64_t);
  struct alignas(kCacheLineBytes) Line {
    std::array<std::atomic<uint64_t>, kWordsPerLine> words{};
  };
  std::atomic<uint64_t>& Word(size_t stripe, size_t word) const {
    return lines_[stripe * lines_per_stripe_ + word / kWordsPerLine]
        .words[word % kWordsPerLine];
  }

  std::vector<double> bounds_;
  size_t lines_per_stripe_;
  std::unique_ptr<Line[]> lines_;  // kMetricStripes * lines_per_stripe_
};

/// Thread-safe registry of named, labeled metrics with Prometheus-text
/// and JSON exporters.
///
/// Get* registers the (name, labels) instance on first use and returns a
/// reference that stays valid for the registry's lifetime, so hot paths
/// can resolve a metric once and update it lock-free afterwards. A name
/// maps to exactly one metric type; mixing types on one name is a
/// programming error (FRA_CHECK).
///
/// The library records into Default(); isolated registries are for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrument writes to.
  static MetricsRegistry& Default();

  Counter& GetCounter(const std::string& name,
                      const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});
  /// `bounds` applies on first registration of `name` only; later calls
  /// reuse the family's buckets.
  Histogram& GetHistogram(const std::string& name,
                          const MetricLabels& labels = {},
                          const std::vector<double>& bounds =
                              Histogram::DefaultLatencyBucketsMicros());

  /// All instances of one histogram family (empty if none), labels sorted.
  std::vector<std::pair<MetricLabels, const Histogram*>> HistogramsNamed(
      const std::string& name) const;
  std::vector<std::pair<MetricLabels, const Counter*>> CountersNamed(
      const std::string& name) const;
  std::vector<std::pair<MetricLabels, const Gauge*>> GaugesNamed(
      const std::string& name) const;

  /// Help text for `name` on the Prometheus exposition (`# HELP`, once
  /// per family before `# TYPE`). The library's own families carry
  /// built-in help; this overrides it or documents embedder-defined
  /// families. May be called before or after the family is registered.
  void SetHelp(const std::string& name, const std::string& help);

  /// Prometheus text exposition format (families sorted by name,
  /// instances by label value; `# HELP` emitted for families with known
  /// help text).
  std::string ExportPrometheus() const;
  /// The same data as one JSON object with "counters" / "gauges" /
  /// "histograms" arrays; histograms carry p50/p95/p99.
  std::string ExportJson() const;

  /// Zeroes every registered metric; registrations (and the references
  /// handed out) stay valid.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instance {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::vector<double> bounds;  // histograms only
    // Keyed by the canonical label encoding, kept sorted for the export.
    std::map<std::string, Instance> instances;
  };

  Instance& GetInstance(const std::string& name, const MetricLabels& labels,
                        Kind kind, const std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::map<std::string, std::string> help_;  // SetHelp overrides
};

}  // namespace fra

#endif  // FRA_UTIL_METRICS_H_
