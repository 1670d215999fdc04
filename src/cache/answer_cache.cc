#include "cache/answer_cache.h"

namespace fra {

AnswerCache::AnswerCache(const Options& options)
    : options_(options),
      hits_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_hits_total", {{"layer", "exact"}})),
      misses_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_misses_total", {{"layer", "exact"}})),
      evictions_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_evictions_total", {{"layer", "exact"}})) {}

std::optional<double> AnswerCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++counters_.misses;
    misses_total_->Increment();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.hits;
  hits_total_->Increment();
  return it->second->second;
}

void AnswerCache::Insert(const std::string& key, double value) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  entries_.emplace(key, lru_.begin());
  while (entries_.size() > options_.capacity) {
    entries_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
    evictions_total_->Increment();
  }
}

size_t AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = entries_.size();
  entries_.clear();
  lru_.clear();
  return dropped;
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

AnswerCache::Counters AnswerCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace fra
