#ifndef FRA_OBS_FLIGHT_RECORDER_H_
#define FRA_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/query_record.h"
#include "util/trace.h"

namespace fra {

/// Flight recorder: a bounded ring of the last N queries that were slow
/// (wall clock above the threshold) or failed, each carrying enough to
/// replay the investigation offline — the query range and algorithm, the
/// cache disposition, every silo exchange's outcome, and the full
/// stitched span tree (provider + silo spans) captured from the Tracer
/// at completion time. Served at /debug/flightz (text) and
/// /debug/flightz.json.
///
/// The hot path for a fast, successful query is one atomic load and a
/// comparison (ShouldCapture); only captured queries take the ring lock.
class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 64;
    /// Queries at or above this wall-clock duration are captured; failed
    /// queries are captured regardless. 0 captures everything.
    double slow_threshold_micros = 50'000.0;
  };

  /// A captured query: its QueryRecord plus what only capture adds.
  struct Record : QueryRecord {
    uint64_t sequence = 0;  // assigned by Add, monotonically increasing
    std::string query;      // rendered range + aggregate kind
    std::vector<SpanRecord> spans;  // sorted by start at render time
  };

  explicit FlightRecorder(const Options& options);

  /// The lock-free capture test run on every query.
  bool ShouldCapture(bool failed, double micros) const {
    return failed ||
           micros >= threshold_micros_.load(std::memory_order_relaxed);
  }

  /// Stamps the record's sequence number and appends it, evicting the
  /// oldest record over capacity.
  void Add(Record record);

  /// Adjustable at runtime (tests pin it to 0 to capture everything).
  void set_slow_threshold_micros(double micros) {
    threshold_micros_.store(micros, std::memory_order_relaxed);
  }
  double slow_threshold_micros() const {
    return threshold_micros_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const;

  /// Oldest first.
  std::vector<Record> Snapshot() const;

  void Clear();

  /// /debug/flightz: human-readable replay — one block per record with
  /// the silo outcomes and the span tree indented by containment.
  std::string RenderText() const;
  /// /debug/flightz.json: the same data as a JSON object.
  std::string RenderJson() const;

 private:
  const size_t capacity_;
  std::atomic<double> threshold_micros_;
  mutable std::mutex mu_;
  uint64_t next_sequence_ = 1;
  std::deque<Record> records_;
};

}  // namespace fra

#endif  // FRA_OBS_FLIGHT_RECORDER_H_
