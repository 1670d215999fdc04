#ifndef FRA_OBS_COST_LEDGER_H_
#define FRA_OBS_COST_LEDGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"
#include "util/query_record.h"

namespace fra {

/// Aggregates finished queries' costs into per-{algorithm, aggregate,
/// cache-outcome} rollups, mirrored to the fra_query_cost_* metric
/// families and rendered as the /statusz "cost_ledger" section. One
/// Record per query.
///
/// Rows sit in a fixed (algorithm x aggregate x cache) table. Each label
/// dimension numbers its values in first-seen order (at most
/// kMaxAlgorithms, kMaxAggregates and kMaxCacheOutcomes of them; the
/// library records at most 7, 8 and 3: every FraAlgorithm and
/// AggregateKind name plus the "UNKNOWN" their string functions return
/// for any other value, and "off", "miss", "hit"; a value past a full
/// dimension fails a check), and a row's instruments are resolved
/// under the ledger's mutex on its first use only. After that, Record
/// takes no lock and allocates nothing: it finds the row by three short
/// name scans and adds into this thread's stripe of the row's sums.
///
/// The per-query measurement side (QueryRecord, QueryRecordScope) lives
/// in util/query_record.h so the data plane — the coalescer charging
/// queue-wait, CallSilo charging bytes — can note costs without
/// depending on this library.
class QueryCostLedger {
 public:
  struct Rollup {
    std::string algorithm;
    std::string aggregate;
    std::string cache;  // "hit", "miss" or "off"
    uint64_t queries = 0;
    uint64_t failures = 0;
    double cpu_micros = 0.0;
    uint64_t bytes_to_silos = 0;
    uint64_t bytes_from_silos = 0;
    uint64_t silo_rpcs = 0;
    double queue_wait_micros = 0.0;
  };

  static constexpr size_t kMaxAlgorithms = 16;
  static constexpr size_t kMaxAggregates = 16;
  static constexpr size_t kMaxCacheOutcomes = 4;

  QueryCostLedger() = default;
  QueryCostLedger(const QueryCostLedger&) = delete;
  QueryCostLedger& operator=(const QueryCostLedger&) = delete;

  /// Folds one finished query's cost into its {algorithm, aggregate,
  /// cache} rollup.
  void Record(const QueryRecord& record);

  /// All rollups, sorted by (algorithm, aggregate, cache).
  std::vector<Rollup> Snapshot() const;

  /// The rollups as a JSON array (the /statusz "cost_ledger" value).
  std::string RenderJson() const;

 private:
  // One label dimension. A name below `count` never changes once
  // published, so Record reads the names without the mutex.
  template <size_t N>
  struct Labels {
    std::array<std::string, N> names;
    std::atomic<size_t> count{0};
  };
  // One row's sums, one cache line per stripe.
  struct alignas(kCacheLineBytes) RowStripe {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> bytes_to_silos{0};
    std::atomic<uint64_t> bytes_from_silos{0};
    std::atomic<uint64_t> silo_rpcs{0};
    std::atomic<double> cpu_micros{0.0};
    std::atomic<double> queue_wait_micros{0.0};
  };
  struct Row {
    std::string algorithm;
    std::string aggregate;
    std::string cache;
    Counter* rpcs = nullptr;
    Counter* bytes_to_silos = nullptr;
    Counter* bytes_from_silos = nullptr;
    Histogram* cpu = nullptr;
    Histogram* queue_wait = nullptr;
    std::array<RowStripe, kMetricStripes> stripes;
  };

  // `name`'s index in `labels`, numbering it under mu_ on first sight.
  template <size_t N>
  size_t IndexOf(Labels<N>& labels, std::string_view name);
  Row& RowFor(const QueryRecord& record);

  mutable std::mutex mu_;  // numbers new label values and creates rows
  Labels<kMaxAlgorithms> algorithms_;
  Labels<kMaxAggregates> aggregates_;
  Labels<kMaxCacheOutcomes> caches_;
  std::array<std::atomic<Row*>,
             kMaxAlgorithms * kMaxAggregates * kMaxCacheOutcomes>
      rows_{};
  std::vector<std::unique_ptr<Row>> owned_rows_;  // guarded by mu_
};

}  // namespace fra

#endif  // FRA_OBS_COST_LEDGER_H_
