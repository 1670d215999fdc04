#ifndef FRA_PERFBENCH_LAYER_TRACE_H_
#define FRA_PERFBENCH_LAYER_TRACE_H_

// Outside-in layer tracing for the benchmark's traced run. Two forwarding
// decorators sit at the library's public seams — a Network between the
// provider and its transport, and a SiloEndpoint around each silo — and
// record one span per exchange in memory. Nothing inside the library is
// changed or instrumented; the spans are read after the run.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "geo/range.h"
#include "net/network.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNanos();

/// One exchange seen at a seam: a provider→transport call (TracingNetwork)
/// or a silo handler invocation (TracingEndpoint).
struct Span {
  /// Leading request bytes kept per span: the message type plus the
  /// serialised query range, enough to key the span to its query.
  static constexpr size_t kHeadBytes = 40;

  int64_t batch = -1;  // client batch in flight when the exchange began
  int silo = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t request_bytes = 0;
  uint32_t response_bytes = 0;
  bool ok = true;
  std::thread::id thread;
  uint8_t head_len = 0;
  std::array<uint8_t, kHeadBytes> head{};

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  /// The wire MessageType byte of the request (0 when empty).
  uint8_t type() const { return head_len > 0 ? head[0] : 0; }
};

/// Thread-safe in-memory span buffer plus the client's current batch index.
class SpanLog {
 public:
  void Add(const Span& span);
  /// Moves out every span recorded so far.
  std::vector<Span> Take();

  void set_batch(int64_t batch) {
    batch_.store(batch, std::memory_order_relaxed);
  }
  int64_t batch() const { return batch_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int64_t> batch_{-1};
};

/// Forwards every entry point (Call, CallAsync, CallAsyncChunks,
/// reactor()) to `inner`, so the provider takes the same transport code
/// paths, and records one span per exchange into `calls`. The wire truth
/// (CommStats) stays on `inner`; this decorator's own stats() is unused.
class TracingNetwork : public fra::Network {
 public:
  TracingNetwork(fra::Network* inner, SpanLog* calls)
      : inner_(inner), calls_(calls) {}

  fra::Reactor* reactor() override { return inner_->reactor(); }
  const char* transport_name() const override {
    return inner_->transport_name();
  }
  size_t num_silos() const override { return inner_->num_silos(); }
  std::vector<int> silo_ids() const override { return inner_->silo_ids(); }

 protected:
  fra::Result<std::vector<uint8_t>> CallImpl(
      int silo_id, const std::vector<uint8_t>& request) override;
  void CallAsyncImpl(int silo_id, const std::vector<uint8_t>& request,
                     CallCallback done) override;
  void CallAsyncChunksImpl(int silo_id, std::vector<fra::BufferRef> chunks,
                           CallCallback done) override;

 private:
  fra::Network* inner_;
  SpanLog* calls_;
};

/// Forwards both handler entry points to `inner` and records one span per
/// invocation into `handles`.
class TracingEndpoint : public fra::SiloEndpoint {
 public:
  TracingEndpoint(int silo_id, fra::SiloEndpoint* inner, SpanLog* handles)
      : silo_id_(silo_id), inner_(inner), handles_(handles) {}

  fra::Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override;
  fra::Result<std::vector<uint8_t>> HandleMessageView(
      fra::ConstByteSpan request) override;

 private:
  const int silo_id_;
  fra::SiloEndpoint* inner_;
  SpanLog* handles_;
};

/// Canonical key of a query range: its wire serialisation.
std::string RangeKey(const fra::QueryRange& range);

/// The range key of a data-plane request span (kAggregateRequest or
/// kCellVectorRequest); empty for any other message or a short head.
std::string RangeKeyOf(const Span& span);

}  // namespace perfbench

#endif  // FRA_PERFBENCH_LAYER_TRACE_H_
