#ifndef FRA_CACHE_ANSWER_CACHE_H_
#define FRA_CACHE_ANSWER_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "util/metrics.h"

namespace fra {

/// A canonical query key: eight 64-bit words (64 bytes), laid out by
/// ProviderCache::MakeKey (docs/caching.md, "Key anatomy"). Held by
/// value, so building, hashing and comparing one allocates nothing.
struct AnswerKey {
  std::array<uint64_t, 8> words{};

  bool operator==(const AnswerKey&) const = default;
};

/// Exact-answer layer of the provider-side cache (docs/caching.md): a
/// fixed set-associative table from an AnswerKey to the finalised double
/// answer.
///
/// The key (built by ProviderCache::MakeKey) encodes the range, the
/// aggregate function, the algorithm, (epsilon, delta) and the
/// provider's data epoch, so a hit returns the answer the provider would
/// have produced — bit-identical, EXACT included — and entries written
/// before a dynamic update become unreachable the moment the epoch bumps
/// (ProviderCache::OnDataChanged then drops them with Clear).
///
/// The key's hash picks one set of at most kWays slots. A Lookup takes no
/// lock: each slot carries a sequence counter (a seqlock) that a writer
/// makes odd while it rewrites the slot, and a reader that sees the
/// counter move under it counts a miss. A hit writes only its slot's
/// CLOCK reference bit, and only when the bit is clear, plus this
/// thread's stripes of the hit counters. Insert and Clear share one
/// writer mutex; a full set evicts by CLOCK second chance: the hand
/// clears set reference bits until it finds a clear one and evicts that
/// answer. It then stays on the new answer, which the set's next miss
/// evicts unless a hit has set its bit by then, so a stream of one-off
/// keys churns one slot instead of flushing the set's hot answers. On
/// every kPassEvery-th eviction in a set the hand moves past the new
/// answer instead, so residents that no hit references still come up
/// and age out, and a working set that moves to new keys takes the set
/// over (docs/caching.md, "Eviction").
///
/// The table is allocated and zeroed at construction: ceil(capacity /
/// kWays) sets of 1088 bytes, about 136 bytes per answer of capacity,
/// committed whether or not the cache fills.
///
/// Thread safe; hits, misses and evictions feed
/// `fra_cache_{hits,misses,evictions}_total{layer="exact"}`.
class AnswerCache {
 public:
  struct Options {
    /// Most answers held at once. The table has ceil(capacity / kWays)
    /// sets whose slot counts add up to exactly this, so a set can be
    /// full, and evict, while others have room.
    size_t capacity = 1024;
  };

  /// Slots per set.
  static constexpr size_t kWays = 8;

  /// A set's CLOCK hand moves past the new answer on every kPassEvery-th
  /// eviction in the set, and stays on it otherwise.
  static constexpr size_t kPassEvery = 8;

  explicit AnswerCache(const Options& options);

  /// Returns the cached answer and marks it referenced, or nullopt.
  /// Lock-free.
  std::optional<double> Lookup(const AnswerKey& key);

  /// Inserts (or refreshes) one answer, evicting by CLOCK from the key's
  /// set if it is full.
  void Insert(const AnswerKey& key, double value);

  /// Drops every entry; returns how many were dropped.
  size_t Clear();

  /// Entries currently held.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Counters counters() const;

  const Options& options() const { return options_; }

 private:
  // One cached answer. `tag` (the key's hash with its low bit set) is 0
  // while the slot is empty; `seq` is odd while a writer rewrites the
  // slot, and the reader checks it around its reads of tag, key and
  // value. Every field is atomic, so readers never race a writer.
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> value{0};  // the answer's bits
    std::array<std::atomic<uint64_t>, 8> key{};
    std::atomic<bool> referenced{false};  // CLOCK bit, set by hits
  };
  struct Set {
    // Each slot's tag again, in one cache line: a reader scans these and
    // reads only the slots whose tag matches.
    alignas(kCacheLineBytes) std::array<std::atomic<uint64_t>, kWays> tags{};
    std::array<Slot, kWays> slots;
  };

  static uint64_t Tag(const AnswerKey& key);
  size_t SetIndex(uint64_t tag) const;
  size_t WaysOf(size_t set) const;
  // Rewrites `slot` under the seqlock; a zero `tag` empties it.
  static void WriteSlot(Slot& slot, uint64_t tag, const AnswerKey& key,
                        double value);

  const Options options_;
  const size_t num_sets_;
  std::unique_ptr<Set[]> sets_;
  // A set's CLOCK hand and its evictions since the hand last moved past
  // a new answer.
  struct Hand {
    uint8_t way = 0;
    uint8_t evictions = 0;
  };
  std::mutex write_mu_;            // serialises Insert and Clear
  std::vector<Hand> hands_;        // per set, under write_mu_
  std::atomic<size_t> size_{0};    // written under write_mu_
  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter* hits_total_;
  Counter* misses_total_;
  Counter* evictions_total_;
};

}  // namespace fra

#endif  // FRA_CACHE_ANSWER_CACHE_H_
