#ifndef FRA_NET_REQUEST_COALESCER_H_
#define FRA_NET_REQUEST_COALESCER_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "util/query_record.h"
#include "util/result.h"

namespace fra {

class Counter;
class EventLoop;
class Gauge;
class Histogram;

/// Dynamic micro-batching of the multi-query wire path.
///
/// Under Alg. 4 the provider keeps |Q|/m queries in flight per silo, and
/// at high throughput the hot path is dominated by per-request fixed
/// costs — wire framing, send/recv syscalls, connection-pool contention —
/// not by aggregation. The coalescer amortises that fixed cost: callers
/// stage their encoded silo request into a per-silo buffer and wait for
/// completion; everything staged for one silo is packed into a single
/// kAggregateBatchRequest frame and shipped in one exchange when either
/// trigger fires:
///
///   * size    — the buffer reached max_batch_size (the staging caller
///               ships the batch, so several batches to one silo can be
///               in flight concurrently),
///   * deadline — the oldest staged request has waited max_batch_delay_us
///               (bounding the latency a lone query pays for batching),
///   * shutdown — destruction flushes whatever is still staged.
///
/// Coalescing is a feature of reactor transports (TcpNetwork): the
/// deadline is a timer-wheel entry on one of the network's event loops
/// and batches ship through Network::CallAsyncChunks, so the coalescer
/// owns no threads. In process there are no frames or syscalls to
/// amortise, and a network without a reactor is rejected.
///
/// The response frame's entries are scattered positionally back to the
/// waiting callers. Per-entry failures arrive as embedded error-response
/// entries, so one bad sub-query cannot poison its batch; a failure of
/// the batch exchange itself (hung silo, decode error) fails every staged
/// request with the same Status — the underlying Network deadline
/// therefore bounds how long any batched query can hang.
///
/// Observable state (docs/observability.md): fra_batch_flushes_total
/// {reason=size|deadline|shutdown}, the fra_batch_size histogram, and the
/// fra_coalescer_staged_requests gauge.
///
/// Thread safe. The wrapped network must outlive the coalescer; callers
/// must not race destruction with in-flight Call()s. Call blocks, so it
/// must not be invoked from one of the reactor's loop threads (it would
/// deadlock waiting for that loop).
class RequestCoalescer {
 public:
  struct Options {
    /// Flush as soon as this many requests are staged for one silo.
    /// 1 still exercises the batch wire path (one entry per frame).
    size_t max_batch_size = 16;
    /// Flush when the oldest staged request has waited this long, so a
    /// lone query is delayed at most this much. <= 0 flushes eagerly.
    /// The timer wheel's 1 ms tick rounds the delay up to the next
    /// millisecond.
    int max_batch_delay_us = 200;
  };

  /// `network` must have a reactor (FRA_CHECKed).
  RequestCoalescer(Network* network, const Options& options);

  RequestCoalescer(const RequestCoalescer&) = delete;
  RequestCoalescer& operator=(const RequestCoalescer&) = delete;

  /// Cancels the armed deadline timers and flushes every staged request
  /// (reason=shutdown).
  ~RequestCoalescer();

  /// Stages `request` for `silo_id` and blocks until its response entry
  /// (or the batch's failure Status) arrives. The payload returned is
  /// exactly what an un-coalesced Network::Call would have produced.
  Result<std::vector<uint8_t>> Call(int silo_id,
                                    const std::vector<uint8_t>& request);

  const Options& options() const { return options_; }

 private:
  struct Pending {
    /// The staged batch-frame segment, pre-encoded at staging time:
    /// `u32 entry_len ‖ [trace envelope] ‖ request bytes` in one pooled
    /// buffer. A flush concatenates nothing — the header chunk plus
    /// these per-entry chunks go to the transport as a scatter-gather
    /// list (Network::CallAsyncChunks).
    BufferRef entry;
    /// Fulfilled exactly once with the response entry or the batch's
    /// failure; the staging Call waits on its future.
    std::promise<Result<std::vector<uint8_t>>> done;
    /// The staging query's record scope (or null), captured on the
    /// staging thread: the flush charges this entry's staged time to its
    /// record as queue-wait. Valid until `done` is fulfilled — Call holds
    /// its caller, and so the caller's scope, open until then.
    QueryRecordScope* query = nullptr;
    std::chrono::steady_clock::time_point staged_at;
  };
  struct SiloQueue {
    std::mutex mu;  // guards staged/oldest_at/stopping/timer_*
    std::vector<std::unique_ptr<Pending>> staged;
    std::chrono::steady_clock::time_point oldest_at;
    bool stopping = false;

    // The loop owning this silo's deadline timer.
    EventLoop* loop = nullptr;
    bool timer_armed = false;
    uint64_t timer_id = 0;  // 0 while the arming task is still queued
  };

  SiloQueue* QueueFor(int silo_id);
  /// Schedules the deadline timer on the queue's loop.
  void ArmDeadline(int silo_id, SiloQueue* queue);
  /// Loop thread: fires the deadline flush, or re-arms when a size flush
  /// already took the batch the timer was armed for.
  void OnDeadline(int silo_id, SiloQueue* queue);
  /// Ships one batch via Network::CallAsyncChunks and scatters the
  /// response entries (or the failure) to every staged caller. The
  /// completion is self-contained — it captures no coalescer state — so
  /// an in-flight batch cannot race destruction.
  void SendBatch(int silo_id, std::vector<std::unique_ptr<Pending>> batch,
                 const char* reason);

  Network* const network_;
  const Options options_;

  std::mutex mu_;  // guards queues_ map structure
  std::unordered_map<int, std::unique_ptr<SiloQueue>> queues_;

  // Registry instruments, resolved once.
  Counter* flushes_size_;
  Counter* flushes_deadline_;
  Counter* flushes_shutdown_;
  Histogram* batch_size_;
  Gauge* staged_gauge_;
};

}  // namespace fra

#endif  // FRA_NET_REQUEST_COALESCER_H_
