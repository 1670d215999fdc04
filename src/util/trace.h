#ifndef FRA_UTIL_TRACE_H_
#define FRA_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/metrics.h"

namespace fra {

/// Query-path tracing: every stage of a query wraps itself in a
/// FRA_TRACE_SPAN. A span is live only while a trace is active on its
/// thread (non-zero current trace id — the provider samples one in
/// ServiceProvider::Options::trace_sample_every_n queries); on an
/// untraced thread it reads no clock and touches no histogram, so it
/// costs one thread-local load. A live span feeds the
/// `fra_span_duration_microseconds{span=...}` histogram of the default
/// registry, and when the process-wide Tracer is enabled it is also
/// appended to a bounded in-memory buffer tagged with the trace id, so
/// one query's full path (provider dispatch -> network -> silo-local
/// index work -> rescale) can be read back as an ordered list of timed
/// spans. Trace ids cross the wire in a message envelope (see
/// net/message.h and docs/wire_protocol.md), and silo-side spans travel
/// back as a trailing section on response frames, so a TCP federation
/// stitches both sides into ONE trace: the provider ingests the silo's
/// records under the same trace id with a `silo=<id>` tag
/// (SpanRecord::tag).

namespace trace_internal {
// This thread's current trace id; inline so that CurrentTraceId, and with
// it an untraced span, is one thread-local load.
inline thread_local uint64_t current_trace_id = 0;
}  // namespace trace_internal

/// The trace id active on this thread; 0 = no active trace.
inline uint64_t CurrentTraceId() { return trace_internal::current_trace_id; }

/// Draws a fresh non-zero trace id (process-unique).
uint64_t NewTraceId();

/// RAII: installs `trace_id` as this thread's current trace id, restoring
/// the previous one on destruction. Installing 0 clears the context.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t trace_id);
  ~ScopedTraceId();
  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t previous_;
};

/// One completed span.
struct SpanRecord {
  uint64_t trace_id = 0;
  std::string name;
  uint64_t start_nanos = 0;  // steady-clock, comparable within a process
  uint64_t duration_nanos = 0;
  /// Where the span ran: empty for this process, "silo=<id>" for records
  /// ingested from a silo's response frame. Never crosses the wire — the
  /// receiving side tags at ingest, because only it knows which silo the
  /// exchange targeted.
  std::string tag;
};

/// RAII thread-local sink that captures completed spans instead of (not
/// in addition to) the Tracer ring, so a server handler can ship the
/// spans of one request back to its caller. Server transports install
/// one around HandleMessage; a span whose thread has a collector AND a
/// non-zero current trace id goes to the collector — the inbound trace
/// envelope is the propagation signal, no silo-side Tracer toggle
/// needed. Collectors nest (batch entries inside a batch handler); each
/// restores the previous one on destruction.
class SpanCollector {
 public:
  SpanCollector();
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// The collector installed on this thread, or nullptr.
  static SpanCollector* Current();

  void Add(SpanRecord record) {
    if (records_.empty()) records_.reserve(8);  // typical spans per request
    records_.push_back(std::move(record));
  }
  void AddAll(std::vector<SpanRecord> records);
  /// Drains the collected records (the collector stays installed).
  std::vector<SpanRecord> Take();
  size_t size() const { return records_.size(); }

 private:
  SpanCollector* previous_;
  std::vector<SpanRecord> records_;
};

/// Process-wide span buffer, indexed per trace. Disabled by default:
/// recording costs nothing until SetEnabled(true) (spans of traced
/// threads still update histograms).
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Total span budget across all traces (whole oldest traces are
  /// dropped first). Default 8192.
  void SetCapacity(size_t capacity);

  /// Per-trace span cap: a trace id that never stops producing spans (a
  /// leaked ScopedTraceId, a runaway retry loop) drops its own oldest
  /// spans past this instead of evicting every other trace. Default 512.
  void SetPerTraceCapacity(size_t capacity);

  void Record(SpanRecord record);

  /// Bulk entry point for spans shipped from another process (the
  /// trailing span section of a response frame): stamps `tag` on every
  /// record whose tag is still empty, then records them. No-op while the
  /// tracer is disabled, mirroring locally produced spans.
  void Ingest(std::vector<SpanRecord> records, const std::string& tag);

  /// Spans recorded under `trace_id`, in start order. O(spans in that
  /// trace): traces are indexed, not scanned.
  std::vector<SpanRecord> SpansForTrace(uint64_t trace_id) const;
  /// Every buffered span, grouped by trace, oldest trace first.
  std::vector<SpanRecord> AllSpans() const;
  /// Trace ids currently present in the buffer, oldest first.
  std::vector<uint64_t> TraceIds() const;
  void Clear();

  /// The buffer as a Chrome trace-event JSON array (complete "X" events,
  /// one per span, ts/dur in microseconds, one tid per trace id) —
  /// loadable as-is in chrome://tracing or Perfetto. Ingested silo spans
  /// carry their tag in args. Served by the admin server's /tracez and
  /// written by examples/trace_dump.
  std::string ExportChromeTrace() const;

 private:
  Tracer() = default;
  void RecordLocked(SpanRecord record);
  void EvictLocked();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  size_t capacity_ = 8192;
  size_t per_trace_capacity_ = 512;
  size_t total_spans_ = 0;
  // Insertion-ordered per-trace index: order_ lists trace ids oldest
  // first; spans_by_trace_ holds each trace's spans in record order.
  std::deque<uint64_t> order_;
  std::unordered_map<uint64_t, std::deque<SpanRecord>> spans_by_trace_;
};

/// RAII stopwatch behind FRA_TRACE_SPAN. `name` must outlive the span
/// (every call site passes a string literal). The span belongs to the
/// trace active when it opens; with none it does nothing at all.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name), trace_id_(CurrentTraceId()) {
    if (trace_id_ != 0) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() {
    if (trace_id_ != 0) Finish();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  // Observes the duration and records the span (traced spans only).
  void Finish();

  const char* name_;
  uint64_t trace_id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fra

#define FRA_TRACE_CONCAT_INNER(a, b) a##b
#define FRA_TRACE_CONCAT(a, b) FRA_TRACE_CONCAT_INNER(a, b)
/// Times the enclosing scope as one span named `name` (a string literal).
#define FRA_TRACE_SPAN(name) \
  ::fra::TraceSpan FRA_TRACE_CONCAT(fra_trace_span_, __LINE__)(name)

#endif  // FRA_UTIL_TRACE_H_
