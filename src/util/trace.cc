#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <utility>

namespace fra {
namespace {

thread_local SpanCollector* t_current_collector = nullptr;
std::atomic<uint64_t> g_next_trace_id{1};

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

uint64_t NowNanos(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

uint64_t NewTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceId::ScopedTraceId(uint64_t trace_id)
    : previous_(trace_internal::current_trace_id) {
  trace_internal::current_trace_id = trace_id;
}

ScopedTraceId::~ScopedTraceId() {
  trace_internal::current_trace_id = previous_;
}

SpanCollector::SpanCollector() : previous_(t_current_collector) {
  t_current_collector = this;
}

SpanCollector::~SpanCollector() { t_current_collector = previous_; }

SpanCollector* SpanCollector::Current() { return t_current_collector; }

void SpanCollector::AddAll(std::vector<SpanRecord> records) {
  if (records_.empty()) {
    records_ = std::move(records);
    return;
  }
  records_.reserve(records_.size() + records.size());
  for (SpanRecord& record : records) records_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanCollector::Take() {
  std::vector<SpanRecord> out;
  out.swap(records_);
  return out;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity > 0 ? capacity : 1;
  EvictLocked();
}

void Tracer::SetPerTraceCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  per_trace_capacity_ = capacity > 0 ? capacity : 1;
  for (auto& [trace_id, spans] : spans_by_trace_) {
    while (spans.size() > per_trace_capacity_) {
      spans.pop_front();
      --total_spans_;
    }
  }
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(std::move(record));
}

void Tracer::Ingest(std::vector<SpanRecord> records, const std::string& tag) {
  if (!enabled() || records.empty()) return;
  if (!tag.empty()) {
    for (SpanRecord& record : records) {
      if (record.tag.empty()) record.tag = tag;
    }
  }
  // A thread batching spans for an active trace (ServiceProvider wraps
  // each query in a collector) takes the ring lock once at drain time
  // instead of once per ingested response.
  SpanCollector* collector = SpanCollector::Current();
  if (collector != nullptr && CurrentTraceId() != 0) {
    collector->AddAll(std::move(records));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (SpanRecord& record : records) {
    RecordLocked(std::move(record));
  }
}

void Tracer::RecordLocked(SpanRecord record) {
  auto it = spans_by_trace_.find(record.trace_id);
  if (it == spans_by_trace_.end()) {
    it = spans_by_trace_.emplace(record.trace_id, std::deque<SpanRecord>())
             .first;
    order_.push_back(record.trace_id);
  }
  std::deque<SpanRecord>& spans = it->second;
  if (spans.size() >= per_trace_capacity_) {
    // A trace that never completes bounds only itself: drop ITS oldest
    // span rather than growing without limit or starving other traces.
    spans.pop_front();
    --total_spans_;
  }
  spans.push_back(std::move(record));
  ++total_spans_;
  EvictLocked();
}

void Tracer::EvictLocked() {
  while (total_spans_ > capacity_) {
    if (order_.size() <= 1) {
      // Only one trace buffered: trim its front instead of wiping it.
      std::deque<SpanRecord>& spans = spans_by_trace_.begin()->second;
      while (total_spans_ > capacity_ && !spans.empty()) {
        spans.pop_front();
        --total_spans_;
      }
      return;
    }
    const uint64_t oldest = order_.front();
    order_.pop_front();
    const auto it = spans_by_trace_.find(oldest);
    total_spans_ -= it->second.size();
    spans_by_trace_.erase(it);
  }
}

std::vector<SpanRecord> Tracer::SpansForTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = spans_by_trace_.find(trace_id);
    if (it != spans_by_trace_.end()) {
      out.assign(it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_nanos < b.start_nanos;
            });
  return out;
}

std::vector<SpanRecord> Tracer::AllSpans() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(total_spans_);
  for (const uint64_t trace_id : order_) {
    const auto it = spans_by_trace_.find(trace_id);
    if (it == spans_by_trace_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<uint64_t> Tracer::TraceIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<uint64_t>(order_.begin(), order_.end());
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_by_trace_.clear();
  order_.clear();
  total_spans_ = 0;
}

std::string Tracer::ExportChromeTrace() const {
  const std::vector<SpanRecord> spans = AllSpans();
  std::ostringstream out;
  // Fixed notation: span starts are steady-clock nanoseconds, large
  // enough that default formatting would go scientific and drop the
  // sub-microsecond digits the viewer sorts by.
  out << std::fixed << std::setprecision(3);
  out << "[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ",";
    first = false;
    // Complete ("X") events; ts/dur are microseconds by the format's
    // definition. One synthetic tid per trace id lines every trace up as
    // its own track in the viewer.
    out << "\n  {\"name\": \"" << EscapeJson(span.name)
        << "\", \"cat\": \"fra\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << span.trace_id << ", \"ts\": "
        << static_cast<double>(span.start_nanos) / 1e3 << ", \"dur\": "
        << static_cast<double>(span.duration_nanos) / 1e3
        << ", \"args\": {\"trace_id\": " << span.trace_id;
    if (!span.tag.empty()) {
      out << ", \"origin\": \"" << EscapeJson(span.tag) << "\"";
    }
    out << "}}";
  }
  out << "\n]\n";
  return out.str();
}

namespace {

// Span names are string literals, so their addresses identify the call
// site: resolve the histogram once per (thread, site) and update
// lock-free afterwards instead of paying a label allocation plus the
// registry lock on every span destruction.
Histogram& SpanHistogram(const char* name) {
  thread_local std::unordered_map<const void*, Histogram*> cache;
  auto [it, inserted] = cache.try_emplace(name, nullptr);
  if (inserted) {
    it->second = &MetricsRegistry::Default().GetHistogram(
        "fra_span_duration_microseconds", {{"span", name}});
  }
  return *it->second;
}

}  // namespace

void TraceSpan::Finish() {
  const auto end = std::chrono::steady_clock::now();
  const uint64_t duration_nanos = NowNanos(end) - NowNanos(start_);
  SpanHistogram(name_).Observe(static_cast<double>(duration_nanos) / 1e3);
  SpanCollector* collector = SpanCollector::Current();
  Tracer& tracer = Tracer::Get();
  if (collector == nullptr && !tracer.enabled()) return;
  SpanRecord record;
  record.trace_id = trace_id_;
  record.name = name_;
  record.start_nanos = NowNanos(start_);
  record.duration_nanos = duration_nanos;
  if (collector != nullptr) {
    // Inside a server handler serving a traced request (or a provider
    // query batching its spans): the collector ships or drains them.
    collector->Add(std::move(record));
  } else {
    tracer.Record(std::move(record));
  }
}

}  // namespace fra
