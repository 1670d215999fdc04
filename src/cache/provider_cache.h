#ifndef FRA_CACHE_PROVIDER_CACHE_H_
#define FRA_CACHE_PROVIDER_CACHE_H_

#include <atomic>
#include <cstdint>

#include "cache/answer_cache.h"
#include "geo/range.h"
#include "util/metrics.h"

namespace fra {

/// Counters of the answer cache's former tile layer, kept so that
/// perfbench (perfbench/perfbench.cc), their only reader, still builds.
/// Every counter reads zero.
struct TileCache {
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };
  Counters counters() const { return {}; }
};

/// The provider-side answer cache (docs/caching.md): the exact-answer
/// table plus the data epoch that ties it to the dynamic-update path.
///
/// The epoch starts at 0 and bumps once per SyncGrids round that applied
/// any silo delta. It is part of every key, so answers cached before an
/// update can never be returned after it; the bump also clears the table,
/// so those entries stop holding slots. `fra_provider_data_epoch`
/// exports the current value.
class ProviderCache {
 public:
  explicit ProviderCache(const AnswerCache::Options& exact);

  /// Monotonic data epoch; part of every key.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Dynamic-update notification from SyncGrids: bumps the epoch and
  /// clears the exact layer, counting each dropped entry once in
  /// `fra_cache_invalidations_total{layer="exact"}`.
  void OnDataChanged();

  /// Canonical key, built in place: word 0 packs the range tag (1
  /// circle, 2 rectangle), `kind` and `algorithm`; words 1-4 hold the
  /// range's coordinate bits (circle: centre x, y, radius, 0; rectangle:
  /// min x, y, max x, y); words 5-7 hold the bits of epsilon, delta and
  /// the current epoch.
  AnswerKey MakeKey(const QueryRange& range, uint8_t kind, uint8_t algorithm,
                    double epsilon, double delta) const;

  AnswerCache& exact() { return exact_; }
  /// The perfbench seam above; always zero.
  TileCache tiles() const { return {}; }

 private:
  AnswerCache exact_;
  std::atomic<uint64_t> epoch_{0};
  Counter* exact_invalidations_total_;
  Gauge* epoch_gauge_;
};

}  // namespace fra

#endif  // FRA_CACHE_PROVIDER_CACHE_H_
