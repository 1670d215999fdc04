#include "cache/provider_cache.h"

#include <bit>

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

AnswerKey ProviderCache::MakeKey(const QueryRange& range, uint8_t kind,
                                 uint8_t algorithm, double epsilon,
                                 double delta) const {
  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  const uint64_t tag = range.is_circle() ? 1 : 2;
  AnswerKey key;
  key.words[0] = tag << 16 | uint64_t{kind} << 8 | algorithm;
  if (range.is_circle()) {
    const Circle& circle = range.circle();
    key.words[1] = bits(circle.center.x);
    key.words[2] = bits(circle.center.y);
    key.words[3] = bits(circle.radius);
  } else {
    const Rect& rect = range.rect();
    key.words[1] = bits(rect.min.x);
    key.words[2] = bits(rect.min.y);
    key.words[3] = bits(rect.max.x);
    key.words[4] = bits(rect.max.y);
  }
  key.words[5] = bits(epsilon);
  key.words[6] = bits(delta);
  key.words[7] = epoch();
  return key;
}

}  // namespace fra
