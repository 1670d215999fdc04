#ifndef FRA_CACHE_ANSWER_CACHE_H_
#define FRA_CACHE_ANSWER_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/metrics.h"

namespace fra {

/// A canonical query key: eight 64-bit words (64 bytes), laid out by
/// ProviderCache::MakeKey (docs/caching.md, "Key anatomy"). Held by
/// value, so building, hashing and comparing one allocates nothing.
struct AnswerKey {
  std::array<uint64_t, 8> words{};

  bool operator==(const AnswerKey&) const = default;
};

/// Exact-answer layer of the provider-side cache (docs/caching.md): an
/// LRU map from an AnswerKey to the finalised double answer, hashed and
/// compared in place.
///
/// The key (built by ProviderCache::MakeKey) encodes the range, the
/// aggregate function, the algorithm, (epsilon, delta) and the
/// provider's data epoch, so a hit returns the answer the provider would
/// have produced — bit-identical, EXACT included — and entries written
/// before a dynamic update become unreachable the moment the epoch bumps
/// (ProviderCache::OnDataChanged then drops them with Clear).
///
/// Thread safe; hits and misses feed
/// `fra_cache_{hits,misses,evictions}_total{layer="exact"}`.
class AnswerCache {
 public:
  struct Options {
    /// Maximum number of cached answers; the least recently used entry is
    /// evicted beyond this.
    size_t capacity = 1024;
  };

  explicit AnswerCache(const Options& options);

  /// Returns the cached answer and refreshes its recency, or nullopt.
  std::optional<double> Lookup(const AnswerKey& key);

  /// Inserts (or refreshes) one answer, evicting the LRU tail if needed.
  void Insert(const AnswerKey& key, double value);

  /// Drops every entry; returns how many were dropped.
  size_t Clear();

  /// Entries currently held.
  size_t size() const;

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Counters counters() const;

  const Options& options() const { return options_; }

 private:
  // Mixes every word of the key. Not noexcept, so the map keeps each
  // node's hash instead of recomputing it while walking a bucket.
  struct KeyHash {
    size_t operator()(const AnswerKey& key) const {
      uint64_t h = 0;
      for (const uint64_t word : key.words) {
        h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 32;
      }
      return static_cast<size_t>(h);
    }
  };
  using Lru = std::list<std::pair<AnswerKey, double>>;

  const Options options_;
  mutable std::mutex mu_;
  // Front = most recently used.
  Lru lru_;
  std::unordered_map<AnswerKey, Lru::iterator, KeyHash> entries_;
  Counters counters_;
  Counter* hits_total_;
  Counter* misses_total_;
  Counter* evictions_total_;
};

}  // namespace fra

#endif  // FRA_CACHE_ANSWER_CACHE_H_
