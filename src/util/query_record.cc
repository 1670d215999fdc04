#include "util/query_record.h"

#include <time.h>

#include <cstdio>

namespace fra {

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

namespace {
thread_local QueryRecordScope* t_current_scope = nullptr;
}  // namespace

QueryRecordScope::QueryRecordScope(QueryRecord* record, uint64_t trace_id,
                                   double* cpu_mark)
    : root_(this),
      previous_(t_current_scope),
      record_(record),
      trace_scope_(trace_id),
      cpu_mark_(cpu_mark),
      cpu_start_(cpu_mark != nullptr ? *cpu_mark : ThreadCpuMicros()) {
  t_current_scope = this;
}

QueryRecordScope::QueryRecordScope(const QueryRecordScope* parent,
                                   uint64_t trace_id)
    : root_(parent != nullptr ? parent->root_ : nullptr),
      previous_(t_current_scope),
      record_(nullptr),
      trace_scope_(trace_id),
      cpu_mark_(nullptr),
      cpu_start_(root_ != nullptr ? ThreadCpuMicros() : 0.0) {
  t_current_scope = root_ != nullptr ? this : nullptr;
}

QueryRecordScope::~QueryRecordScope() {
  if (root_ != nullptr) {
    const double now = ThreadCpuMicros();
    if (cpu_mark_ != nullptr) *cpu_mark_ = now;
    const double micros = now - cpu_start_;
    if (micros > 0.0) {
      std::lock_guard<std::mutex> lock(root_->mu_);
      root_->record_->cost.cpu_micros += micros;
    }
  }
  t_current_scope = previous_;
}

QueryRecordScope* QueryRecordScope::Current() { return t_current_scope; }

void QueryRecordScope::NoteSiloCall(int silo_id, const Status& status,
                                    double micros, uint64_t bytes_out,
                                    uint64_t bytes_in) {
  SiloOutcome outcome{silo_id, status.ok(),
                      status.ok() ? "ok" : status.ToString(), micros};
  std::lock_guard<std::mutex> lock(root_->mu_);
  QueryRecord* record = root_->record_;
  record->silos.push_back(std::move(outcome));
  record->cost.bytes_to_silos += bytes_out;
  record->cost.bytes_from_silos += bytes_in;
  ++record->cost.silo_rpcs;
}

void QueryRecordScope::NoteQueueWait(double micros) {
  std::lock_guard<std::mutex> lock(root_->mu_);
  root_->record_->cost.queue_wait_micros += micros;
}

std::string QueryCostToJson(const QueryCost& cost) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_micros\":%.1f,\"bytes_to_silos\":%llu,"
                "\"bytes_from_silos\":%llu,\"silo_rpcs\":%u,"
                "\"queue_wait_micros\":%.1f}",
                cost.cpu_micros,
                static_cast<unsigned long long>(cost.bytes_to_silos),
                static_cast<unsigned long long>(cost.bytes_from_silos),
                cost.silo_rpcs, cost.queue_wait_micros);
  return buf;
}

}  // namespace fra
