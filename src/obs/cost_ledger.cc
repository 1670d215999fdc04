#include "obs/cost_ledger.h"

#include <algorithm>
#include <cstdio>

#include "util/metrics.h"

namespace fra {

void QueryCostLedger::Record(const QueryRecord& record) {
  std::string key;
  key.reserve(record.algorithm.size() + record.aggregate.size() +
              record.cache.size() + 2);
  key.append(record.algorithm).append(1, '|').append(record.aggregate);
  key.append(1, '|').append(record.cache);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[key];
  if (entry.rpcs == nullptr) {
    entry.rollup.algorithm = record.algorithm;
    entry.rollup.aggregate = record.aggregate;
    entry.rollup.cache = record.cache;
    auto& registry = MetricsRegistry::Default();
    const MetricLabels labels = {{"algorithm", entry.rollup.algorithm},
                                 {"aggregate", entry.rollup.aggregate},
                                 {"cache", entry.rollup.cache}};
    entry.rpcs =
        &registry.GetCounter("fra_query_cost_silo_rpcs_total", labels);
    MetricLabels out_labels = labels;
    out_labels.emplace_back("direction", "to_silos");
    entry.bytes_to_silos =
        &registry.GetCounter("fra_query_cost_bytes_total", out_labels);
    MetricLabels in_labels = labels;
    in_labels.emplace_back("direction", "from_silos");
    entry.bytes_from_silos =
        &registry.GetCounter("fra_query_cost_bytes_total", in_labels);
    entry.cpu =
        &registry.GetHistogram("fra_query_cost_cpu_microseconds", labels);
    entry.queue_wait = &registry.GetHistogram(
        "fra_query_cost_queue_wait_microseconds", labels);
  }
  const QueryCost& cost = record.cost;
  Rollup& rollup = entry.rollup;
  ++rollup.queries;
  if (record.failed) ++rollup.failures;
  rollup.cpu_micros += cost.cpu_micros;
  rollup.bytes_to_silos += cost.bytes_to_silos;
  rollup.bytes_from_silos += cost.bytes_from_silos;
  rollup.silo_rpcs += cost.silo_rpcs;
  rollup.queue_wait_micros += cost.queue_wait_micros;

  entry.rpcs->Increment(cost.silo_rpcs);
  entry.bytes_to_silos->Increment(cost.bytes_to_silos);
  entry.bytes_from_silos->Increment(cost.bytes_from_silos);
  entry.cpu->Observe(cost.cpu_micros);
  if (cost.queue_wait_micros > 0.0) {
    entry.queue_wait->Observe(cost.queue_wait_micros);
  }
}

std::vector<QueryCostLedger::Rollup> QueryCostLedger::Snapshot() const {
  std::vector<Rollup> rollups;
  std::lock_guard<std::mutex> lock(mu_);
  rollups.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) rollups.push_back(entry.rollup);
  return rollups;  // map order == sorted by key == (algorithm, agg, cache)
}

std::string QueryCostLedger::RenderJson() const {
  const std::vector<Rollup> rollups = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < rollups.size(); ++i) {
    const Rollup& r = rollups[i];
    if (i > 0) out.push_back(',');
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"algorithm\":\"%s\",\"aggregate\":\"%s\",\"cache\":\"%s\","
        "\"queries\":%llu,\"failures\":%llu,\"cpu_micros\":%.1f,"
        "\"bytes_to_silos\":%llu,\"bytes_from_silos\":%llu,"
        "\"silo_rpcs\":%llu,\"queue_wait_micros\":%.1f}",
        r.algorithm.c_str(), r.aggregate.c_str(), r.cache.c_str(),
        static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.failures), r.cpu_micros,
        static_cast<unsigned long long>(r.bytes_to_silos),
        static_cast<unsigned long long>(r.bytes_from_silos),
        static_cast<unsigned long long>(r.silo_rpcs), r.queue_wait_micros);
    out.append(buf);
  }
  out.push_back(']');
  return out;
}

}  // namespace fra
