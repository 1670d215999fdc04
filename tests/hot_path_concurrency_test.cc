// The state a cache hit touches, raced from several threads: the
// answer cache's lock-free Lookup against Insert and Clear, striped
// counters and histograms, the cost ledger's row table, the audit draw
// and the health tracker's lock-free state reads. Labelled `net` so the
// TSan stage (ctest -L net) runs it; the plain stages check the sums.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "federation/silo_health.h"
#include "obs/accuracy_auditor.h"
#include "obs/cost_ledger.h"
#include "util/metrics.h"
#include "util/query_record.h"
#include "util/random.h"
#include "util/status.h"

namespace fra {
namespace {

// Key i differs from key j in several words, and its answer is a
// function of i, so a hit that mixed two slots' contents shows.
AnswerKey KeyOf(uint64_t i) {
  AnswerKey key;
  key.words[0] = 2 << 16 | i % 5;
  key.words[1] = i;
  key.words[4] = ~i;
  key.words[7] = i * 0x9E3779B97F4A7C15ULL;
  return key;
}
double AnswerOf(uint64_t i) { return 0.25 + 1.5 * static_cast<double>(i); }

TEST(HotPathRaceTest, CacheHitsDuringInsertAndClearReturnTheirKeysAnswer) {
  AnswerCache::Options options;
  options.capacity = 64;  // 8 sets: inserts evict all the time
  AnswerCache cache(options);
  constexpr uint64_t kKeys = 256;
  constexpr int kReaders = 3;
  constexpr int kLookups = 60000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(3);
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      const uint64_t k = rng.NextUint64(kKeys);
      cache.Insert(KeyOf(k), AnswerOf(k));
      if (i % 5000 == 4999) cache.Clear();
    }
  });
  std::vector<std::thread> readers;
  std::vector<uint64_t> hits(kReaders, 0);
  std::vector<uint64_t> wrong(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(10 + r);
      for (int i = 0; i < kLookups; ++i) {
        const uint64_t k = rng.NextUint64(kKeys);
        if (const std::optional<double> hit = cache.Lookup(KeyOf(k))) {
          ++hits[r];
          if (*hit != AnswerOf(k)) ++wrong[r];
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  done.store(true);
  writer.join();
  uint64_t total_hits = 0;
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(wrong[r], 0UL) << "reader " << r;
    total_hits += hits[r];
  }
  EXPECT_GT(total_hits, 0UL);
  EXPECT_LE(cache.size(), options.capacity);
  EXPECT_EQ(cache.counters().hits + cache.counters().misses,
            static_cast<uint64_t>(kReaders) * kLookups);
}

TEST(HotPathRaceTest, StripedCounterAndHistogramSumExactlyFromEightThreads) {
  Counter counter;
  Histogram histogram(Histogram::DefaultLatencyBucketsMicros());
  constexpr int kThreads = 8;
  constexpr int kUpdates = 20000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const uint64_t now = counter.Value();
      EXPECT_GE(now, last);  // a sum of monotone stripes never falls
      last = now;
      (void)histogram.Quantile(0.5);
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kUpdates; ++i) {
        counter.Increment(2);
        histogram.Observe(0.5 * static_cast<double>((t + i) % 4));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  scraper.join();
  EXPECT_EQ(counter.Value(), 2UL * kThreads * kUpdates);
  EXPECT_EQ(histogram.Count(), static_cast<uint64_t>(kThreads) * kUpdates);
  // Each thread adds 0, 0.5, 1 and 1.5 equally often: 0.75 per update on
  // average, and every partial sum is a multiple of 0.5, exact in a double.
  EXPECT_EQ(histogram.Sum(), 0.75 * kThreads * kUpdates);
}

TEST(HotPathRaceTest, LedgerRecordsFromFourThreadsAgainstSnapshots) {
  QueryCostLedger ledger;
  constexpr int kThreads = 4;
  constexpr int kRecords = 20000;
  const char* const kAlgorithms[] = {"NonIID-est+LSR", "EXACT"};
  const char* const kCaches[] = {"hit", "miss"};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t queries = 0;
      const std::vector<QueryCostLedger::Rollup> rollups = ledger.Snapshot();
      EXPECT_LE(rollups.size(), 4UL);
      for (const QueryCostLedger::Rollup& rollup : rollups) {
        queries += rollup.queries;
      }
      EXPECT_GE(queries, last);
      last = queries;
      EXPECT_FALSE(ledger.RenderJson().empty());
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        QueryRecord record;
        record.algorithm = kAlgorithms[(t + i) % 2];
        record.aggregate = "COUNT";
        record.cache = kCaches[i % 2];
        record.failed = i % 10 == 0;
        record.cost.cpu_micros = 2.0;
        record.cost.silo_rpcs = i % 2;  // misses cost one RPC
        record.cost.bytes_to_silos = 10 * (i % 2);
        ledger.Record(record);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  reader.join();

  const std::vector<QueryCostLedger::Rollup> rollups = ledger.Snapshot();
  ASSERT_EQ(rollups.size(), 4UL);
  uint64_t queries = 0;
  uint64_t failures = 0;
  uint64_t rpcs = 0;
  uint64_t bytes = 0;
  double cpu = 0.0;
  for (const QueryCostLedger::Rollup& rollup : rollups) {
    queries += rollup.queries;
    failures += rollup.failures;
    rpcs += rollup.silo_rpcs;
    bytes += rollup.bytes_to_silos;
    cpu += rollup.cpu_micros;
    if (rollup.cache == "hit") {
      EXPECT_EQ(rollup.silo_rpcs, 0UL);
    }
  }
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kRecords;
  EXPECT_EQ(queries, kTotal);
  EXPECT_EQ(failures, kTotal / 10);
  EXPECT_EQ(rpcs, kTotal / 2);
  EXPECT_EQ(bytes, 10 * kTotal / 2);
  EXPECT_EQ(cpu, 2.0 * static_cast<double>(kTotal));
}

// Lower and upper ends of the two-sided interval for Binomial(n, p) whose
// false-alarm rate is at most `alpha`: P(X < lo) <= alpha / 2 and
// P(X > hi) <= alpha / 2, from the exact pmf.
std::pair<uint64_t, uint64_t> BinomialInterval(uint64_t n, double p,
                                               double alpha) {
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  const double log_n_fact = std::lgamma(static_cast<double>(n) + 1.0);
  uint64_t lo = 0;
  uint64_t hi = n;
  bool have_lo = false;
  double cdf = 0.0;
  for (uint64_t k = 0; k <= n; ++k) {
    const double kd = static_cast<double>(k);
    cdf += std::exp(log_n_fact - std::lgamma(kd + 1.0) -
                    std::lgamma(static_cast<double>(n - k) + 1.0) +
                    kd * log_p + static_cast<double>(n - k) * log_q);
    if (!have_lo && cdf > alpha / 2) {
      lo = k;  // P(X <= k - 1) <= alpha / 2
      have_lo = true;
    }
    if (cdf >= 1.0 - alpha / 2) {
      hi = k;  // P(X > k) <= alpha / 2
      break;
    }
  }
  return {lo, hi};
}

// Thread t draws tickets [t * kDraws, (t + 1) * kDraws): the audited
// count must not depend on the threads, and must keep the rate.
TEST(HotPathRaceTest, AuditDrawFromFourThreadsKeepsItsRate) {
  AccuracyAuditor::Options options;
  options.sample_rate = 0.01;
  AccuracyAuditor auditor(options);
  constexpr int kThreads = 4;
  constexpr uint64_t kDraws = 50000;
  constexpr uint64_t kTotal = kThreads * kDraws;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      EXPECT_LE(auditor.snapshot().considered, kTotal);
    }
  });
  std::vector<uint64_t> audited(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kDraws; ++i) {
        audited[t] += auditor.ShouldAudit(t * kDraws + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  reader.join();
  uint64_t total = 0;
  for (uint64_t count : audited) total += count;
  EXPECT_EQ(auditor.snapshot().considered, kTotal);

  AccuracyAuditor alone(options);
  uint64_t alone_total = 0;
  for (uint64_t ticket = 0; ticket < kTotal; ++ticket) {
    alone_total += alone.ShouldAudit(ticket);
  }
  EXPECT_EQ(total, alone_total);
  // A correct draw lands outside this interval once in a million seeds.
  const auto [lo, hi] = BinomialInterval(kTotal, 0.01, 1e-6);
  EXPECT_GE(total, lo);
  EXPECT_LE(total, hi);
}

TEST(HotPathRaceTest, SelectableReadsRaceHealthTransitions) {
  SiloHealthTracker::Options options;
  options.probe_backoff_ms = 0;  // every TryBeginProbe on a down silo wins
  SiloHealthTracker tracker(options);
  // Silo 100 lies past the lock-free mirror and is read under the lock.
  const std::vector<int> silos = {0, 1, 2, 3, 100};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        for (int silo : silos) {
          const auto state = static_cast<int>(tracker.state(silo));
          EXPECT_GE(state, 0);
          EXPECT_LE(state, 3);
          (void)tracker.IsSelectable(silo);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(50 + w);
      for (int i = 0; i < 20000; ++i) {
        const int silo = silos[rng.NextUint64(silos.size())];
        if (rng.NextBernoulli(0.4)) {
          tracker.OnSiloCall(silo, Status::Unavailable("down"), 10.0);
        } else {
          tracker.OnSiloCall(silo, Status::OK(), 10.0);
        }
        if (i % 7 == 0) (void)tracker.TryBeginProbe(silo);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true);
  for (auto& reader : readers) reader.join();
  // Quiescent: the lock-free reads agree with the state under the lock.
  for (const SiloHealthTracker::SiloSnapshot& silo : tracker.Snapshot()) {
    EXPECT_EQ(tracker.state(silo.silo_id), silo.state) << silo.silo_id;
    EXPECT_EQ(tracker.IsSelectable(silo.silo_id),
              silo.state == SiloHealthTracker::State::kUp ||
                  silo.state == SiloHealthTracker::State::kDegraded);
  }
}

}  // namespace
}  // namespace fra
