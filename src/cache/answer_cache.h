#ifndef FRA_CACHE_ANSWER_CACHE_H_
#define FRA_CACHE_ANSWER_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/metrics.h"

namespace fra {

/// Exact-answer layer of the provider-side cache (docs/caching.md): an
/// LRU map from a canonical query key to the finalised double answer.
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
  std::optional<double> Lookup(const std::string& key);

  /// Inserts (or refreshes) one answer, evicting the LRU tail if needed.
  void Insert(const std::string& key, double value);

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
  const Options options_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<std::pair<std::string, double>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, double>>::iterator>
      entries_;
  Counters counters_;
  Counter* hits_total_;
  Counter* misses_total_;
  Counter* evictions_total_;
};

}  // namespace fra

#endif  // FRA_CACHE_ANSWER_CACHE_H_
