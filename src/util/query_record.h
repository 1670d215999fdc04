#ifndef FRA_UTIL_QUERY_RECORD_H_
#define FRA_UTIL_QUERY_RECORD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/trace.h"

namespace fra {

/// Per-query resource attribution (docs/observability.md, "Query cost
/// ledger"): where one query's resources actually went, measured at the
/// points where they are spent.
///
///   cpu_micros        CLOCK_THREAD_CPUTIME_ID deltas summed over every
///                     thread that worked on the query (the Execute
///                     thread plus each fan-out leg; in-process silo
///                     handlers run on those same threads, so their CPU
///                     is attributed too).
///   bytes_to_silos    encoded request payload bytes shipped to silos.
///   bytes_from_silos  response payload bytes received back.
///   silo_rpcs         data-plane exchanges (a coalesced entry counts as
///                     one RPC — it is one answered request).
///   queue_wait_micros time the query's requests sat staged in the
///                     coalescer before their batch flushed.
struct QueryCost {
  double cpu_micros = 0.0;
  uint64_t bytes_to_silos = 0;
  uint64_t bytes_from_silos = 0;
  uint32_t silo_rpcs = 0;
  double queue_wait_micros = 0.0;
};

/// Outcome of one provider->silo exchange inside a query.
struct SiloOutcome {
  int silo_id = -1;
  bool ok = false;
  std::string detail;  // "ok", or the failure Status text
  double micros = 0.0;
};

/// This thread's consumed CPU time (CLOCK_THREAD_CPUTIME_ID), in
/// microseconds. Deltas of this clock measure work, not waiting.
double ThreadCpuMicros();

/// One query's record (docs/observability.md, "The query record"): what
/// ran, how it ended, what it cost and what every silo exchange did. The
/// provider's execute path builds exactly one per Execute/ExecuteBatch
/// query and hands the finished record to every consumer — the query
/// metrics, the cost ledger, the flight recorder and the audit draw.
/// While the query runs, QueryRecordScope writes it.
struct QueryRecord {
  uint64_t trace_id = 0;
  /// Labels: views of static names (FraAlgorithmToString,
  /// AggregateKindToString, the provider's cache-outcome name).
  std::string_view algorithm;
  std::string_view aggregate;
  std::string_view cache;  // "hit", "miss" or "off"
  bool failed = false;
  std::string status;  // "ok" or the failure Status text
  double duration_micros = 0.0;
  QueryCost cost;
  std::vector<SiloOutcome> silos;
};

/// Installs a running query's record on a thread, together with the
/// query's trace id, and charges the thread-CPU time spent inside the
/// scope to the record's cost. The execute path opens the query's root
/// scope on its own thread; each fan-out leg opens one on its pool
/// thread from the caller's Current(). Meanwhile the points that spend
/// something on the query's behalf note into Current(): CallSilo (one
/// NoteSiloCall per exchange) and the coalescer's flush (NoteQueueWait,
/// from the flushing thread). Every scope of a query writes its record
/// under the root scope's lock; the record is read once the root has
/// closed. Scopes nest: each restores the previous scope and trace id.
class QueryRecordScope {
 public:
  /// The query's root scope: installs `record` on this thread.
  QueryRecordScope(QueryRecord* record, uint64_t trace_id);
  /// A fan-out leg's scope: re-installs the query of `parent` (the
  /// caller's Current()) on this thread. A null `parent` installs no
  /// record — background audits run that way — and measures nothing.
  QueryRecordScope(const QueryRecordScope* parent, uint64_t trace_id);
  ~QueryRecordScope();

  QueryRecordScope(const QueryRecordScope&) = delete;
  QueryRecordScope& operator=(const QueryRecordScope&) = delete;

  /// The innermost scope of a running query on this thread, or nullptr.
  static QueryRecordScope* Current();

  void NoteSiloCall(int silo_id, const Status& status, double micros,
                    uint64_t bytes_out, uint64_t bytes_in);
  void NoteQueueWait(double micros);

 private:
  QueryRecordScope* const root_;  // this on the root; null when masking
  QueryRecordScope* const previous_;
  QueryRecord* const record_;  // the query's record (root only)
  std::mutex mu_;              // root only: guards *record_ while open
  ScopedTraceId trace_scope_;
  double cpu_start_ = 0.0;
};

/// Renders a QueryCost as the compact JSON object embedded in flight
/// records and statusz.
std::string QueryCostToJson(const QueryCost& cost);

}  // namespace fra

#endif  // FRA_UTIL_QUERY_RECORD_H_
