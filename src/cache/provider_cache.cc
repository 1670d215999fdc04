#include "cache/provider_cache.h"

#include "util/serialize.h"

namespace fra {

ProviderCache::ProviderCache(const AnswerCache::Options& exact)
    : exact_(exact),
      exact_invalidations_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_invalidations_total", {{"layer", "exact"}})),
      epoch_gauge_(
          &MetricsRegistry::Default().GetGauge("fra_provider_data_epoch")) {
  epoch_gauge_->Set(0.0);
}

void ProviderCache::OnDataChanged() {
  const uint64_t next = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  epoch_gauge_->Set(static_cast<double>(next));
  exact_invalidations_total_->Increment(exact_.Clear());
}

std::string ProviderCache::MakeKey(const QueryRange& range, uint8_t kind,
                                   uint8_t algorithm, double epsilon,
                                   double delta) const {
  BinaryWriter writer;
  if (range.is_circle()) {
    writer.WriteU8(1);
    writer.WriteDouble(range.circle().center.x);
    writer.WriteDouble(range.circle().center.y);
    writer.WriteDouble(range.circle().radius);
  } else {
    writer.WriteU8(2);
    writer.WriteDouble(range.rect().min.x);
    writer.WriteDouble(range.rect().min.y);
    writer.WriteDouble(range.rect().max.x);
    writer.WriteDouble(range.rect().max.y);
  }
  writer.WriteU8(kind);
  writer.WriteU8(algorithm);
  writer.WriteDouble(epsilon);
  writer.WriteDouble(delta);
  writer.WriteU64(epoch());
  const std::vector<uint8_t> bytes = writer.Release();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace fra
