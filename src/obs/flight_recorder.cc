#include "obs/flight_recorder.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <utility>

namespace fra {
namespace {

std::string EscapeJson(std::string_view value) {
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

std::vector<SpanRecord> SortedSpans(const FlightRecorder::Record& record) {
  std::vector<SpanRecord> spans = record.spans;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              // Ties (same start): the longer span is the ancestor.
              return a.duration_nanos > b.duration_nanos;
            });
  return spans;
}

/// Nesting depth per span by interval containment: a span is a child of
/// the nearest earlier span that still covers its start. Spans arrive
/// sorted by start, so a stack of open end-times yields the depth.
std::vector<size_t> SpanDepths(const std::vector<SpanRecord>& spans) {
  std::vector<size_t> depths(spans.size(), 0);
  std::vector<uint64_t> open_ends;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t start = spans[i].start_nanos;
    while (!open_ends.empty() && open_ends.back() <= start) {
      open_ends.pop_back();
    }
    depths[i] = open_ends.size();
    open_ends.push_back(start + spans[i].duration_nanos);
  }
  return depths;
}

}  // namespace

FlightRecorder::FlightRecorder(const Options& options)
    : capacity_(options.capacity > 0 ? options.capacity : 1),
      threshold_micros_(options.slow_threshold_micros) {}

void FlightRecorder::Add(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.sequence = next_sequence_++;
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<FlightRecorder::Record> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Record>(records_.begin(), records_.end());
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

std::string FlightRecorder::RenderText() const {
  const std::vector<Record> records = Snapshot();
  std::ostringstream out;
  out << std::fixed << std::setprecision(0);
  out << "flight recorder: " << records.size() << " record"
      << (records.size() == 1 ? "" : "s") << " (capacity " << capacity_
      << ", slow threshold " << slow_threshold_micros() << "us)\n";
  for (const Record& record : records) {
    out << "\n#" << record.sequence << " trace=" << record.trace_id
        << " algorithm=" << record.algorithm << " cache=" << record.cache
        << " duration=" << record.duration_micros << "us status="
        << (record.failed ? record.status : "ok") << "\n";
    out << "  query: " << record.query << "\n";
    out << "  cost: cpu=" << record.cost.cpu_micros
        << "us bytes_out=" << record.cost.bytes_to_silos
        << " bytes_in=" << record.cost.bytes_from_silos
        << " rpcs=" << record.cost.silo_rpcs
        << " queue_wait=" << record.cost.queue_wait_micros << "us\n";
    if (!record.silos.empty()) {
      out << "  silos:";
      for (const SiloOutcome& silo : record.silos) {
        out << " [" << silo.silo_id << " " << (silo.ok ? "ok" : "FAIL") << " "
            << silo.micros << "us" << (silo.ok ? "" : " " + silo.detail)
            << "]";
      }
      out << "\n";
    }
    const std::vector<SpanRecord> spans = SortedSpans(record);
    if (!spans.empty()) {
      const std::vector<size_t> depths = SpanDepths(spans);
      const uint64_t base = spans.front().start_nanos;
      out << "  spans:\n";
      for (size_t i = 0; i < spans.size(); ++i) {
        out << "    ";
        for (size_t d = 0; d < depths[i]; ++d) out << "  ";
        out << spans[i].name << " +"
            << static_cast<double>(spans[i].start_nanos - base) / 1e3
            << "us " << static_cast<double>(spans[i].duration_nanos) / 1e3
            << "us";
        if (!spans[i].tag.empty()) out << " (" << spans[i].tag << ")";
        out << "\n";
      }
    }
  }
  return out.str();
}

std::string FlightRecorder::RenderJson() const {
  const std::vector<Record> records = Snapshot();
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "{\n  \"capacity\": " << capacity_
      << ",\n  \"slow_threshold_micros\": " << slow_threshold_micros()
      << ",\n  \"records\": [";
  bool first_record = true;
  for (const Record& record : records) {
    out << (first_record ? "\n" : ",\n");
    first_record = false;
    out << "    {\"sequence\": " << record.sequence
        << ", \"trace_id\": " << record.trace_id << ", \"query\": \""
        << EscapeJson(record.query) << "\", \"algorithm\": \""
        << EscapeJson(record.algorithm) << "\", \"cache\": \""
        << EscapeJson(record.cache) << "\", \"failed\": "
        << (record.failed ? "true" : "false") << ", \"status\": \""
        << EscapeJson(record.status) << "\", \"duration_micros\": "
        << record.duration_micros << ",\n     \"cost\": "
        << QueryCostToJson(record.cost) << ",\n     \"silos\": [";
    bool first_silo = true;
    for (const SiloOutcome& silo : record.silos) {
      out << (first_silo ? "" : ", ");
      first_silo = false;
      out << "{\"silo\": " << silo.silo_id << ", \"ok\": "
          << (silo.ok ? "true" : "false") << ", \"micros\": " << silo.micros
          << ", \"detail\": \"" << EscapeJson(silo.detail) << "\"}";
    }
    out << "],\n     \"spans\": [";
    const std::vector<SpanRecord> spans = SortedSpans(record);
    const std::vector<size_t> depths = SpanDepths(spans);
    bool first_span = true;
    for (size_t i = 0; i < spans.size(); ++i) {
      out << (first_span ? "" : ", ");
      first_span = false;
      out << "{\"name\": \"" << EscapeJson(spans[i].name)
          << "\", \"depth\": " << depths[i] << ", \"start_nanos\": "
          << spans[i].start_nanos << ", \"duration_nanos\": "
          << spans[i].duration_nanos;
      if (!spans[i].tag.empty()) {
        out << ", \"origin\": \"" << EscapeJson(spans[i].tag) << "\"";
      }
      out << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace fra
