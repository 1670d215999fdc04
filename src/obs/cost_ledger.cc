#include "obs/cost_ledger.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "util/logging.h"

namespace fra {

template <size_t N>
size_t QueryCostLedger::IndexOf(Labels<N>& labels, std::string_view name) {
  const auto scan = [&](size_t count) {
    size_t i = 0;
    while (i < count && labels.names[i] != name) ++i;
    return i;
  };
  size_t count = labels.count.load(std::memory_order_acquire);
  if (const size_t i = scan(count); i < count) return i;
  // Not numbered yet: re-scan under the lock, since another
  // thread may have numbered the name meanwhile.
  std::lock_guard<std::mutex> lock(mu_);
  count = labels.count.load(std::memory_order_relaxed);
  if (const size_t i = scan(count); i < count) return i;
  FRA_CHECK(count < N) << "cost ledger: label value '" << name
                       << "' beyond the " << N << " a dimension holds";
  labels.names[count] = std::string(name);
  labels.count.store(count + 1, std::memory_order_release);
  return count;
}

QueryCostLedger::Row& QueryCostLedger::RowFor(const QueryRecord& record) {
  const size_t index =
      (IndexOf(algorithms_, record.algorithm) * kMaxAggregates +
       IndexOf(aggregates_, record.aggregate)) *
          kMaxCacheOutcomes +
      IndexOf(caches_, record.cache);
  if (Row* row = rows_[index].load(std::memory_order_acquire)) return *row;
  std::lock_guard<std::mutex> lock(mu_);
  if (Row* row = rows_[index].load(std::memory_order_relaxed)) return *row;
  Row& row = *owned_rows_.emplace_back(std::make_unique<Row>());
  row.algorithm = record.algorithm;
  row.aggregate = record.aggregate;
  row.cache = record.cache;
  auto& registry = MetricsRegistry::Default();
  const MetricLabels labels = {{"algorithm", row.algorithm},
                               {"aggregate", row.aggregate},
                               {"cache", row.cache}};
  row.rpcs = &registry.GetCounter("fra_query_cost_silo_rpcs_total", labels);
  MetricLabels out_labels = labels;
  out_labels.emplace_back("direction", "to_silos");
  row.bytes_to_silos =
      &registry.GetCounter("fra_query_cost_bytes_total", out_labels);
  MetricLabels in_labels = labels;
  in_labels.emplace_back("direction", "from_silos");
  row.bytes_from_silos =
      &registry.GetCounter("fra_query_cost_bytes_total", in_labels);
  row.cpu = &registry.GetHistogram("fra_query_cost_cpu_microseconds", labels);
  row.queue_wait = &registry.GetHistogram(
      "fra_query_cost_queue_wait_microseconds", labels);
  rows_[index].store(&row, std::memory_order_release);
  return row;
}

void QueryCostLedger::Record(const QueryRecord& record) {
  Row& row = RowFor(record);
  const QueryCost& cost = record.cost;
  RowStripe& stripe = row.stripes[MetricStripe()];
  constexpr auto kRelaxed = std::memory_order_relaxed;
  stripe.queries.fetch_add(1, kRelaxed);
  if (record.failed) stripe.failures.fetch_add(1, kRelaxed);
  stripe.cpu_micros.fetch_add(cost.cpu_micros, kRelaxed);
  row.cpu->Observe(cost.cpu_micros);
  // A hit costs no silo traffic: skip its zero adds.
  if (cost.silo_rpcs > 0) {
    stripe.silo_rpcs.fetch_add(cost.silo_rpcs, kRelaxed);
    row.rpcs->Increment(cost.silo_rpcs);
  }
  if (cost.bytes_to_silos > 0) {
    stripe.bytes_to_silos.fetch_add(cost.bytes_to_silos, kRelaxed);
    row.bytes_to_silos->Increment(cost.bytes_to_silos);
  }
  if (cost.bytes_from_silos > 0) {
    stripe.bytes_from_silos.fetch_add(cost.bytes_from_silos, kRelaxed);
    row.bytes_from_silos->Increment(cost.bytes_from_silos);
  }
  if (cost.queue_wait_micros > 0.0) {
    stripe.queue_wait_micros.fetch_add(cost.queue_wait_micros, kRelaxed);
    row.queue_wait->Observe(cost.queue_wait_micros);
  }
}

std::vector<QueryCostLedger::Rollup> QueryCostLedger::Snapshot() const {
  std::vector<Rollup> rollups;
  std::lock_guard<std::mutex> lock(mu_);
  rollups.reserve(owned_rows_.size());
  constexpr auto kRelaxed = std::memory_order_relaxed;
  for (const std::unique_ptr<Row>& row : owned_rows_) {
    Rollup& rollup = rollups.emplace_back();
    rollup.algorithm = row->algorithm;
    rollup.aggregate = row->aggregate;
    rollup.cache = row->cache;
    for (const RowStripe& stripe : row->stripes) {
      rollup.queries += stripe.queries.load(kRelaxed);
      rollup.failures += stripe.failures.load(kRelaxed);
      rollup.cpu_micros += stripe.cpu_micros.load(kRelaxed);
      rollup.bytes_to_silos += stripe.bytes_to_silos.load(kRelaxed);
      rollup.bytes_from_silos += stripe.bytes_from_silos.load(kRelaxed);
      rollup.silo_rpcs += stripe.silo_rpcs.load(kRelaxed);
      rollup.queue_wait_micros += stripe.queue_wait_micros.load(kRelaxed);
    }
  }
  std::sort(rollups.begin(), rollups.end(),
            [](const Rollup& a, const Rollup& b) {
              return std::tie(a.algorithm, a.aggregate, a.cache) <
                     std::tie(b.algorithm, b.aggregate, b.cache);
            });
  return rollups;
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
