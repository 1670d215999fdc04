#ifndef FRA_OBS_COST_LEDGER_H_
#define FRA_OBS_COST_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/query_record.h"

namespace fra {

class Counter;
class Histogram;

/// Aggregates finished queries' costs into per-{algorithm, aggregate,
/// cache-outcome} rollups, mirrored to the fra_query_cost_* metric
/// families and rendered as the /statusz "cost_ledger" section. One
/// Record per query; instruments are resolved once per distinct key.
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
    std::string cache;  // "hit", "tile", "miss" or "off"
    uint64_t queries = 0;
    uint64_t failures = 0;
    double cpu_micros = 0.0;
    uint64_t bytes_to_silos = 0;
    uint64_t bytes_from_silos = 0;
    uint64_t silo_rpcs = 0;
    double queue_wait_micros = 0.0;
  };

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
  struct Entry {
    Rollup rollup;
    Counter* rpcs = nullptr;
    Counter* bytes_to_silos = nullptr;
    Counter* bytes_from_silos = nullptr;
    Histogram* cpu = nullptr;
    Histogram* queue_wait = nullptr;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace fra

#endif  // FRA_OBS_COST_LEDGER_H_
