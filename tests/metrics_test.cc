// Metrics registry and trace spans: lock-free update correctness under
// contention, histogram quantiles against the exact order-statistic
// Quantile from util/stats.h, exporter formats, and the tracer's ring
// buffer / trace-id propagation semantics.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message.h"
#include "tests/test_util.h"
#include "util/stats.h"
#include "util/trace.h"

namespace fra {
namespace {

using testing::JsonChecker;

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

// More threads than stripes, so every stripe is written (threads take
// stripes round robin) and some are shared: the reads still sum every
// update exactly, and Reset leaves no stripe holding an old value.
TEST(StripedMetricsTest, StripesSumExactlyAndResetZeroesEveryStripe) {
  Counter counter;
  Histogram histogram({1.0, 2.0, 4.0});
  constexpr int kThreads = 2 * static_cast<int>(kMetricStripes) + 3;
  const auto run_threads = [&](int increment) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 100; ++i) {
          counter.Increment(static_cast<uint64_t>(increment + t));
          histogram.Observe(0.5 * static_cast<double>(t % 8));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };
  // Sum over threads of 100 * (increment + t), and of 100 * 0.5 * (t % 8):
  // every partial sum is a multiple of 0.5, so it is exact in a double.
  const auto expected_count = [&](int increment) {
    uint64_t total = 0;
    for (int t = 0; t < kThreads; ++t) total += 100u * (increment + t);
    return total;
  };
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) expected_sum += 50.0 * (t % 8);

  run_threads(1);
  EXPECT_EQ(counter.Value(), expected_count(1));
  EXPECT_EQ(histogram.Count(), 100UL * kThreads);
  EXPECT_EQ(histogram.Sum(), expected_sum);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, 100UL * kThreads);

  counter.Reset();
  histogram.Reset();
  EXPECT_EQ(counter.Value(), 0UL);
  EXPECT_EQ(histogram.Count(), 0UL);
  EXPECT_EQ(histogram.Sum(), 0.0);
  for (uint64_t c : histogram.BucketCounts()) EXPECT_EQ(c, 0UL);

  run_threads(5);
  EXPECT_EQ(counter.Value(), expected_count(5));
  EXPECT_EQ(histogram.Count(), 100UL * kThreads);
  EXPECT_EQ(histogram.Sum(), expected_sum);
}

// One thread's updates land in one stripe and are summed in the order
// they came, so this fixed sequence exports the text, and the sums the
// bits, that the unstriped registry (one atomic per value) exported.
TEST(StripedMetricsTest, SingleThreadExportMatchesTheUnstripedRegistry) {
  MetricsRegistry registry;
  Counter& ok = registry.GetCounter(
      "fra_queries_total", {{"algorithm", "EXACT"}, {"result", "ok"}});
  Counter& error = registry.GetCounter(
      "fra_queries_total", {{"algorithm", "EXACT"}, {"result", "error"}});
  registry.GetGauge("fra_federation_silos").Set(6);
  Histogram& latency = registry.GetHistogram(
      "fra_query_latency_microseconds", {{"algorithm", "EXACT"}});
  Histogram& small =
      registry.GetHistogram("h_us", {{"k", "v"}}, {0.25, 0.5, 1.0});
  for (int i = 0; i < 1000; ++i) {
    (i % 7 == 0 ? error : ok).Increment();
    latency.Observe(0.1 * i + 0.3);
    small.Observe(0.1 * (i % 13));
  }
  ok.Increment(5);
  std::string expected =
      "# HELP fra_federation_silos Silos registered with the provider\n"
      "# TYPE fra_federation_silos gauge\n"
      "fra_federation_silos 6\n"
      "# HELP fra_queries_total FRA queries executed by algorithm and "
      "result\n"
      "# TYPE fra_queries_total counter\n"
      "fra_queries_total{algorithm=\"EXACT\",result=\"error\"} 143\n"
      "fra_queries_total{algorithm=\"EXACT\",result=\"ok\"} 862\n"
      "# HELP fra_query_latency_microseconds End-to-end FRA query latency "
      "by algorithm\n"
      "# TYPE fra_query_latency_microseconds histogram\n";
  const std::vector<std::pair<const char*, int>> latency_buckets = {
      {"1", 8},           {"2.5", 23},        {"5", 48},
      {"10", 97},         {"25", 247},        {"50", 498},
      {"100", 998},       {"250", 1000},      {"500", 1000},
      {"1000", 1000},     {"2500", 1000},     {"5000", 1000},
      {"10000", 1000},    {"25000", 1000},    {"50000", 1000},
      {"100000", 1000},   {"250000", 1000},   {"500000", 1000},
      {"1000000", 1000},  {"2500000", 1000},  {"+Inf", 1000}};
  for (const auto& [le, count] : latency_buckets) {
    expected += std::string("fra_query_latency_microseconds_bucket{algorithm="
                            "\"EXACT\",le=\"") +
                le + "\"} " + std::to_string(count) + "\n";
  }
  expected +=
      "fra_query_latency_microseconds_sum{algorithm=\"EXACT\"} 50250\n"
      "fra_query_latency_microseconds_count{algorithm=\"EXACT\"} 1000\n"
      "# TYPE h_us histogram\n"
      "h_us_bucket{k=\"v\",le=\"0.25\"} 231\n"
      "h_us_bucket{k=\"v\",le=\"0.5\"} 462\n"
      "h_us_bucket{k=\"v\",le=\"1\"} 847\n"
      "h_us_bucket{k=\"v\",le=\"+Inf\"} 1000\n"
      "h_us_sum{k=\"v\"} 599.4\n"
      "h_us_count{k=\"v\"} 1000\n";
  EXPECT_EQ(registry.ExportPrometheus(), expected);
  // The exposition rounds sums to six digits; the bits match too.
  EXPECT_EQ(latency.Sum(), 0x1.8893fffffffffp+15);
  EXPECT_EQ(small.Sum(), 0x1.2bb333333333bp+9);
}

TEST(GaugeTest, ConcurrentAddsAllLand) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kAdds; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kAdds);
  gauge.Set(-3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), -3.5);
}

TEST(HistogramTest, CountSumMeanAndBuckets) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 5.0, 50.0, 500.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.Count(), 5UL);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 560.5);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 560.5 / 5.0);
  const std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4UL);  // 3 finite bounds + the +Inf bucket
  EXPECT_EQ(counts[0], 1UL);
  EXPECT_EQ(counts[1], 2UL);
  EXPECT_EQ(counts[2], 1UL);
  EXPECT_EQ(counts[3], 1UL);
}

TEST(HistogramTest, ConcurrentObservesAllLand) {
  Histogram histogram({1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kObserves = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kObserves; ++i) {
        histogram.Observe(static_cast<double>(t % 4));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(), static_cast<uint64_t>(kThreads) * kObserves);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, histogram.Count());
}

TEST(HistogramTest, QuantileTracksExactOrderStatistics) {
  // The estimator interpolates inside the covering bucket, so it can be
  // off by at most one bucket width from the exact order statistic.
  Histogram histogram(Histogram::DefaultLatencyBucketsMicros());
  std::vector<double> samples;
  double v = 1.3;
  for (int i = 0; i < 2000; ++i) {
    histogram.Observe(v);
    samples.push_back(v);
    v = v < 8e5 ? v * 1.01 : 1.3;  // log-uniform-ish sweep of the ladder
  }
  const std::vector<double>& bounds = Histogram::DefaultLatencyBucketsMicros();
  const auto bucket_of = [&bounds](double x) {
    return std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin();
  };
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = Quantile(samples, q);
    const double estimate = histogram.Quantile(q);
    // Documented resolution: the estimate lands in the exact order
    // statistic's bucket (or an adjacent one when the rank conventions
    // straddle a bound).
    EXPECT_LE(std::abs(bucket_of(estimate) - bucket_of(exact)), 1)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram histogram({1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);  // empty
  histogram.Observe(100.0);                        // lands in +Inf
  // +Inf bucket clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 2.0);
  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0UL);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
}

TEST(MetricsRegistryTest, SameNameAndLabelsShareOneInstance) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x_total", {{"k", "v"}, {"a", "b"}});
  // Label order must not matter: permutations address the same instance.
  Counter& b = registry.GetCounter("x_total", {{"a", "b"}, {"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.GetCounter("x_total", {{"a", "b"}, {"k", "w"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedByFirstRegistration) {
  MetricsRegistry registry;
  Histogram& h1 = registry.GetHistogram("h_us", {{"i", "1"}}, {1.0, 2.0});
  Histogram& h2 =
      registry.GetHistogram("h_us", {{"i", "2"}}, {5.0, 6.0, 7.0});
  EXPECT_EQ(h1.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(registry.HistogramsNamed("h_us").size(), 2UL);
  EXPECT_TRUE(registry.HistogramsNamed("absent").empty());
}

TEST(MetricsRegistryTest, PrometheusExportGolden) {
  MetricsRegistry registry;
  registry.GetCounter("fra_queries_total", {{"algorithm", "EXACT"}})
      .Increment(3);
  registry.GetGauge("fra_federation_silos").Set(6);
  Histogram& h =
      registry.GetHistogram("lat_us", {{"algorithm", "EXACT"}}, {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(20.0);
  const std::string expected =
      "# HELP fra_federation_silos Silos registered with the provider\n"
      "# TYPE fra_federation_silos gauge\n"
      "fra_federation_silos 6\n"
      "# HELP fra_queries_total FRA queries executed by algorithm and result\n"
      "# TYPE fra_queries_total counter\n"
      "fra_queries_total{algorithm=\"EXACT\"} 3\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{algorithm=\"EXACT\",le=\"1\"} 1\n"
      "lat_us_bucket{algorithm=\"EXACT\",le=\"10\"} 2\n"
      "lat_us_bucket{algorithm=\"EXACT\",le=\"+Inf\"} 3\n"
      "lat_us_sum{algorithm=\"EXACT\"} 25.5\n"
      "lat_us_count{algorithm=\"EXACT\"} 3\n";
  EXPECT_EQ(registry.ExportPrometheus(), expected);
}

TEST(MetricsRegistryTest, JsonExportGolden) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", {{"silo", "1"}}).Increment(2);
  Histogram& h = registry.GetHistogram("h_us", {}, {1.0});
  h.Observe(0.5);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"counters\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"c_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"silo\":\"1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, HelpPrecedesTypeAndSetHelpOverrides) {
  MetricsRegistry registry;
  registry.GetCounter("fra_queries_total").Increment();
  registry.GetCounter("custom_total").Increment();
  std::string text = registry.ExportPrometheus();
  const size_t help_pos =
      text.find("# HELP fra_queries_total FRA queries executed");
  const size_t type_pos = text.find("# TYPE fra_queries_total counter");
  ASSERT_NE(help_pos, std::string::npos) << text;
  ASSERT_NE(type_pos, std::string::npos) << text;
  EXPECT_LT(help_pos, type_pos);
  // No builtin help for embedder families: bare TYPE until SetHelp.
  EXPECT_EQ(text.find("# HELP custom_total"), std::string::npos) << text;

  registry.SetHelp("custom_total", "An embedder counter\nsecond line");
  registry.SetHelp("fra_queries_total", "Overridden");
  text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# HELP custom_total An embedder counter\\nsecond line"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP fra_queries_total Overridden"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("esc_total", {{"k", "a\"b\\c\nd"}}).Increment();
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("esc_total{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("r_total");
  Histogram& histogram = registry.GetHistogram("r_us", {}, {1.0});
  counter.Increment(7);
  histogram.Observe(0.5);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0UL);
  EXPECT_EQ(histogram.Count(), 0UL);
  // The references stay wired to the registry after Reset.
  counter.Increment();
  EXPECT_EQ(registry.GetCounter("r_total").Value(), 1UL);
}

TEST(TraceTest, ScopedTraceIdNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0UL);
  {
    ScopedTraceId outer(11);
    EXPECT_EQ(CurrentTraceId(), 11UL);
    {
      ScopedTraceId inner(22);
      EXPECT_EQ(CurrentTraceId(), 22UL);
    }
    EXPECT_EQ(CurrentTraceId(), 11UL);
  }
  EXPECT_EQ(CurrentTraceId(), 0UL);
}

TEST(TraceTest, NewTraceIdsAreDistinct) {
  const uint64_t a = NewTraceId();
  const uint64_t b = NewTraceId();
  EXPECT_NE(a, 0UL);
  EXPECT_NE(a, b);
}

TEST(TraceTest, SpansRecordOnlyWhenEnabled) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetEnabled(false);
  {
    ScopedTraceId scoped(NewTraceId());
    FRA_TRACE_SPAN("test.disabled");
  }
  EXPECT_TRUE(tracer.AllSpans().empty());

  tracer.SetEnabled(true);
  const uint64_t trace_id = NewTraceId();
  {
    ScopedTraceId scoped(trace_id);
    FRA_TRACE_SPAN("test.enabled");
  }
  tracer.SetEnabled(false);
  const std::vector<SpanRecord> spans = tracer.SpansForTrace(trace_id);
  ASSERT_EQ(spans.size(), 1UL);
  EXPECT_EQ(spans[0].name, "test.enabled");
  EXPECT_EQ(spans[0].trace_id, trace_id);
  tracer.Clear();
}

TEST(TraceTest, UntracedSpanObservesNothing) {
  const Histogram& durations = MetricsRegistry::Default().GetHistogram(
      "fra_span_duration_microseconds", {{"span", "test.untraced"}});
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetEnabled(false);
  ASSERT_EQ(CurrentTraceId(), 0UL);
  {
    FRA_TRACE_SPAN("test.untraced");
  }
  EXPECT_EQ(durations.Count(), 0UL);

  // A traced thread observes its span even with the tracer disabled; the
  // ring still records nothing.
  {
    ScopedTraceId scoped(NewTraceId());
    FRA_TRACE_SPAN("test.untraced");
  }
  EXPECT_EQ(durations.Count(), 1UL);
  EXPECT_TRUE(tracer.AllSpans().empty());
}

TEST(TraceTest, RingBufferDropsOldestBeyondCapacity) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.SetCapacity(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    tracer.Record(SpanRecord{i, "s", 0, 0});
  }
  const std::vector<SpanRecord> spans = tracer.AllSpans();
  ASSERT_EQ(spans.size(), 4UL);
  EXPECT_EQ(spans.front().trace_id, 7UL);
  EXPECT_EQ(spans.back().trace_id, 10UL);
  tracer.SetCapacity(8192);
  tracer.Clear();
}

TEST(TraceEnvelopeTest, WrapAndStripRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3};
  std::vector<uint8_t> wrapped = WrapWithTraceId(0x0123456789ABCDEFULL,
                                                 payload);
  ASSERT_EQ(wrapped.size(), payload.size() + kTraceEnvelopeBytes);
  EXPECT_EQ(wrapped[0], kTraceEnvelopeTag);
  EXPECT_EQ(StripTraceEnvelope(&wrapped), 0x0123456789ABCDEFULL);
  EXPECT_EQ(wrapped, payload);
}

TEST(TraceEnvelopeTest, NonEnvelopedPayloadPassesThrough) {
  std::vector<uint8_t> payload = {1, 2, 3};
  EXPECT_EQ(StripTraceEnvelope(&payload), 0UL);
  EXPECT_EQ(payload, (std::vector<uint8_t>{1, 2, 3}));
  std::vector<uint8_t> empty;
  EXPECT_EQ(StripTraceEnvelope(&empty), 0UL);
  EXPECT_TRUE(empty.empty());
}

TEST(TraceEnvelopeTest, TruncatedEnvelopeLeftForDecoderToReject) {
  std::vector<uint8_t> truncated = {kTraceEnvelopeTag, 1, 2};
  EXPECT_EQ(StripTraceEnvelope(&truncated), 0UL);
  EXPECT_EQ(truncated.size(), 3UL);
}

TEST(MetricsRegistryTest, RegistrationUpdateAndExportRaceSafely) {
  // 8 threads concurrently registering fresh label sets, updating shared
  // instruments, and exporting both formats — the scrape-during-load
  // pattern the admin server produces. Every increment must land; every
  // export must be internally consistent (no torn families).
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kRounds; ++i) {
        registry
            .GetCounter("race_counter",
                        {{"thread", std::to_string(t)},
                         {"round", std::to_string(i % 7)}})
            .Increment();
        registry.GetCounter("race_shared_counter").Increment();
        registry
            .GetHistogram("race_histogram",
                          {{"thread", std::to_string(t)}})
            .Observe(static_cast<double>(i));
        if (i % 50 == 0) {
          const std::string text = registry.ExportPrometheus();
          EXPECT_NE(text.find("race_shared_counter"), std::string::npos);
          EXPECT_FALSE(registry.ExportJson().empty());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("race_shared_counter").Value(),
            static_cast<uint64_t>(kThreads) * kRounds);
  uint64_t histogram_total = 0;
  for (int t = 0; t < kThreads; ++t) {
    histogram_total += registry
                           .GetHistogram("race_histogram",
                                         {{"thread", std::to_string(t)}})
                           .Count();
  }
  EXPECT_EQ(histogram_total, static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_TRUE(JsonChecker::IsValid(registry.ExportJson()));
}

}  // namespace
}  // namespace fra
