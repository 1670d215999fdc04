#include "cache/answer_cache.h"

#include <bit>

namespace fra {

AnswerCache::AnswerCache(const Options& options)
    : options_(options),
      num_sets_((options.capacity + kWays - 1) / kWays),
      sets_(num_sets_ > 0 ? new Set[num_sets_] : nullptr),
      hands_(num_sets_),
      hits_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_hits_total", {{"layer", "exact"}})),
      misses_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_misses_total", {{"layer", "exact"}})),
      evictions_total_(&MetricsRegistry::Default().GetCounter(
          "fra_cache_evictions_total", {{"layer", "exact"}})) {}

uint64_t AnswerCache::Tag(const AnswerKey& key) {
  uint64_t h = 0;
  for (const uint64_t word : key.words) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  }
  return h | 1;
}

size_t AnswerCache::SetIndex(uint64_t tag) const {
  // Maps the tag's high bits onto [0, num_sets_) without a division.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(tag) * num_sets_) >> 64);
}

size_t AnswerCache::WaysOf(size_t set) const {
  // The first capacity % num_sets_ sets hold one slot more, so the slot
  // counts add up to the capacity exactly.
  return options_.capacity / num_sets_ +
         (set < options_.capacity % num_sets_ ? 1 : 0);
}

void AnswerCache::WriteSlot(Slot& slot, uint64_t tag, const AnswerKey& key,
                            double value) {
  // The odd count is ordered before every field store by their release,
  // and each field store before the closing even count: a reader whose
  // acquire loads see any new field also sees the count move.
  const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  slot.tag.store(tag, std::memory_order_release);
  for (size_t i = 0; i < key.words.size(); ++i) {
    slot.key[i].store(key.words[i], std::memory_order_release);
  }
  slot.value.store(std::bit_cast<uint64_t>(value), std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::optional<double> AnswerCache::Lookup(const AnswerKey& key) {
  if (num_sets_ > 0) {
    const uint64_t tag = Tag(key);
    Set& set = sets_[SetIndex(tag)];
    for (size_t way = 0; way < kWays; ++way) {
      if (set.tags[way].load(std::memory_order_relaxed) != tag) continue;
      Slot& slot = set.slots[way];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq & 1) continue;
      bool match = slot.tag.load(std::memory_order_acquire) == tag;
      for (size_t i = 0; i < key.words.size(); ++i) {
        match &= slot.key[i].load(std::memory_order_acquire) == key.words[i];
      }
      const uint64_t bits = slot.value.load(std::memory_order_acquire);
      if (!match || slot.seq.load(std::memory_order_relaxed) != seq) continue;
      if (!slot.referenced.load(std::memory_order_relaxed)) {
        slot.referenced.store(true, std::memory_order_relaxed);
      }
      hits_.Increment();
      hits_total_->Increment();
      return std::bit_cast<double>(bits);
    }
  }
  misses_.Increment();
  misses_total_->Increment();
  return std::nullopt;
}

void AnswerCache::Insert(const AnswerKey& key, double value) {
  if (num_sets_ == 0) return;
  const uint64_t tag = Tag(key);
  const size_t index = SetIndex(tag);
  const size_t ways = WaysOf(index);
  Set& set = sets_[index];
  std::lock_guard<std::mutex> lock(write_mu_);
  size_t way = ways;  // the first empty slot, if any
  for (size_t w = 0; w < ways; ++w) {
    Slot& slot = set.slots[w];
    const uint64_t slot_tag = slot.tag.load(std::memory_order_relaxed);
    if (slot_tag == 0) {
      if (way == ways) way = w;
      continue;
    }
    bool same = slot_tag == tag;
    for (size_t i = 0; same && i < key.words.size(); ++i) {
      same = slot.key[i].load(std::memory_order_relaxed) == key.words[i];
    }
    if (same) {  // refresh in place
      WriteSlot(slot, tag, key, value);
      slot.referenced.store(true, std::memory_order_relaxed);
      return;
    }
  }
  if (way == ways) {
    // Second chance: clear set bits until a clear one comes up; after
    // one full turn the hand is back where it started, bit cleared. The
    // hand then stays on the new answer, except on every kPassEvery-th
    // eviction in the set, when it moves past so that the set's other
    // answers come up too (class comment).
    Hand& hand = hands_[index];
    for (size_t step = 0;
         step < ways &&
         set.slots[hand.way].referenced.load(std::memory_order_relaxed);
         ++step) {
      set.slots[hand.way].referenced.store(false, std::memory_order_relaxed);
      hand.way = static_cast<uint8_t>((hand.way + 1) % ways);
    }
    way = hand.way;
    if (++hand.evictions == kPassEvery) {
      hand.evictions = 0;
      hand.way = static_cast<uint8_t>((hand.way + 1) % ways);
    }
    evictions_.Increment();
    evictions_total_->Increment();
  } else {
    size_.fetch_add(1, std::memory_order_relaxed);
  }
  set.tags[way].store(0, std::memory_order_relaxed);
  WriteSlot(set.slots[way], tag, key, value);
  set.slots[way].referenced.store(false, std::memory_order_relaxed);
  set.tags[way].store(tag, std::memory_order_release);
}

size_t AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(write_mu_);
  size_t dropped = 0;
  for (size_t index = 0; index < num_sets_; ++index) {
    Set& set = sets_[index];
    for (size_t way = 0; way < kWays; ++way) {
      Slot& slot = set.slots[way];
      if (slot.tag.load(std::memory_order_relaxed) == 0) continue;
      set.tags[way].store(0, std::memory_order_relaxed);
      WriteSlot(slot, 0, AnswerKey{}, 0.0);
      slot.referenced.store(false, std::memory_order_relaxed);
      ++dropped;
    }
    hands_[index] = Hand{};
  }
  size_.store(0, std::memory_order_relaxed);
  return dropped;
}

AnswerCache::Counters AnswerCache::counters() const {
  return {hits_.Value(), misses_.Value(), evictions_.Value()};
}

}  // namespace fra
