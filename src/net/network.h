#ifndef FRA_NET_NETWORK_H_
#define FRA_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/buffer.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace fra {

class Reactor;

/// Aggregate communication counters for a federation. All methods are
/// thread safe; the evaluation layer snapshots before/after a query batch
/// and reports deltas — this is the paper's "communication cost" metric,
/// measured in real encoded bytes and message count.
///
/// CommStats predates the MetricsRegistry and is kept as a per-network
/// shim over it: every exchange is mirrored into the registry's global
/// `fra_comm_messages_total` / `fra_comm_bytes_total{direction=...}`
/// counters (cumulative across all networks in the process, never
/// affected by Reset()), while the per-instance atomics keep supporting
/// the snapshot/delta reads the evaluation layer depends on.
class CommStats {
 public:
  struct Snapshot {
    uint64_t messages = 0;       // request/response pairs
    uint64_t bytes_to_silos = 0;
    uint64_t bytes_to_provider = 0;

    uint64_t TotalBytes() const { return bytes_to_silos + bytes_to_provider; }

    Snapshot operator-(const Snapshot& other) const {
      return Snapshot{messages - other.messages,
                      bytes_to_silos - other.bytes_to_silos,
                      bytes_to_provider - other.bytes_to_provider};
    }
  };

  CommStats()
      : messages_total_(&MetricsRegistry::Default().GetCounter(
            "fra_comm_messages_total")),
        bytes_to_silos_total_(&MetricsRegistry::Default().GetCounter(
            "fra_comm_bytes_total", {{"direction", "to_silos"}})),
        bytes_to_provider_total_(&MetricsRegistry::Default().GetCounter(
            "fra_comm_bytes_total", {{"direction", "to_provider"}})) {}

  void RecordExchange(size_t request_bytes, size_t response_bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_to_silos_.fetch_add(request_bytes, std::memory_order_relaxed);
    bytes_to_provider_.fetch_add(response_bytes, std::memory_order_relaxed);
    messages_total_->Increment();
    bytes_to_silos_total_->Increment(request_bytes);
    bytes_to_provider_total_->Increment(response_bytes);
  }

  Snapshot Read() const {
    return Snapshot{messages_.load(std::memory_order_relaxed),
                    bytes_to_silos_.load(std::memory_order_relaxed),
                    bytes_to_provider_.load(std::memory_order_relaxed)};
  }

  void Reset() {
    messages_.store(0);
    bytes_to_silos_.store(0);
    bytes_to_provider_.store(0);
  }

 private:
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_to_silos_{0};
  std::atomic<uint64_t> bytes_to_provider_{0};
  // Registry mirrors (shared across every CommStats in the process).
  Counter* messages_total_;
  Counter* bytes_to_silos_total_;
  Counter* bytes_to_provider_total_;
};

/// Implemented by data silos: consumes one serialised request, produces
/// one serialised response. Must be safe to call concurrently.
class SiloEndpoint {
 public:
  virtual ~SiloEndpoint() = default;
  virtual Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) = 0;

  /// Borrowed-view entry point: the request bytes stay owned by the
  /// transport and are only valid for the duration of the call. The
  /// zero-copy transports (in-process, the reactor TCP server) dispatch
  /// through this; the default bridges to HandleMessage with one copy,
  /// so existing endpoints keep working unchanged. Implementations that
  /// decode in place (Silo) override it and make HandleMessage the
  /// delegating shim instead.
  virtual Result<std::vector<uint8_t>> HandleMessageView(
      ConstByteSpan request) {
    return HandleMessage(request.ToVector());
  }
};

/// Observes the outcome of every Network::Call — the hook the
/// federation's SiloHealthTracker hangs off so per-silo availability is
/// tracked at the provider/network boundary, identically for every
/// transport. Implementations must be thread safe (calls arrive from
/// every query worker concurrently).
class SiloCallObserver {
 public:
  virtual ~SiloCallObserver() = default;

  /// One completed exchange with `silo_id`: its final Status (OK on
  /// success; Unavailable covers timeouts, refused connections and hung
  /// silos) and the wall-clock duration of the whole Call in
  /// microseconds.
  virtual void OnSiloCall(int silo_id, const Status& status,
                          double micros) = 0;
};

/// The transport the service provider speaks through: one synchronous
/// request/response exchange per Call. Implementations must be safe for
/// concurrent calls (the Alg. 4 framework issues them from a worker per
/// query) and must account every exchange in stats().
///
/// Call itself is the transport-agnostic boundary: it times the exchange,
/// maintains the per-silo `fra_silo_requests_total` /
/// `fra_silo_timeouts_total` registry counters (labelled by transport),
/// and notifies the installed SiloCallObserver — transports implement
/// CallImpl only, so failure accounting can never diverge between the
/// in-process and TCP substrates.
///
/// Two implementations ship with the library: InProcessNetwork (below,
/// silos in the same process — the default evaluation substrate) and
/// TcpNetwork (tcp_network.h, silos behind real sockets — the paper's
/// deployment shape).
class Network {
 public:
  /// Completion of one asynchronous exchange. Reactor transports invoke
  /// it on an event-loop thread — callbacks must be quick and must never
  /// block on another Call through the same network.
  using CallCallback = std::function<void(Result<std::vector<uint8_t>>)>;

  virtual ~Network() = default;

  /// One request/response exchange with a silo: delegates to the
  /// transport's CallImpl, then records the outcome (counters + observer).
  Result<std::vector<uint8_t>> Call(int silo_id,
                                    const std::vector<uint8_t>& request);

  /// The non-blocking variant: `done` fires exactly once with the
  /// outcome, and the per-silo counters/observer are recorded in front of
  /// it — identically to Call, which is implemented over the same
  /// accounting. Transports without a native async path (in-process) run
  /// the exchange synchronously on the calling thread before returning.
  void CallAsync(int silo_id, const std::vector<uint8_t>& request,
                 CallCallback done);

  /// Scatter-gather variant of CallAsync: the request payload is the
  /// concatenation of `chunks`, which the transport may ship as an iovec
  /// list without ever materialising the joined buffer (the reactor TCP
  /// client queues one frame-writer chunk per ref). Outcome accounting is
  /// identical to CallAsync. Transports without a scatter path fall back
  /// to concatenating once and calling their CallAsyncImpl.
  void CallAsyncChunks(int silo_id, std::vector<BufferRef> chunks,
                       CallCallback done);

  /// The event-loop substrate driving this transport's async calls, or
  /// nullptr for purely synchronous transports. The RequestCoalescer
  /// requires one: its deadline flushes are timers on the reactor's
  /// loops.
  virtual Reactor* reactor() { return nullptr; }

  /// Stable transport label for per-silo metrics ("inprocess", "tcp").
  virtual const char* transport_name() const = 0;

  virtual size_t num_silos() const = 0;
  virtual std::vector<int> silo_ids() const = 0;

  /// Installs (or clears, with nullptr) the observer notified after every
  /// Call. At most one observer at a time; the caller must keep it alive
  /// until it is cleared or the network is destroyed.
  void set_call_observer(SiloCallObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }
  SiloCallObserver* call_observer() const {
    return observer_.load(std::memory_order_acquire);
  }

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

 protected:
  /// The transport-specific exchange; implementations account bytes in
  /// stats() but leave per-silo outcome recording to Call.
  virtual Result<std::vector<uint8_t>> CallImpl(
      int silo_id, const std::vector<uint8_t>& request) = 0;

  /// The transport-specific async exchange; the default degrades to the
  /// synchronous CallImpl on the calling thread. Implementations must
  /// invoke `done` exactly once and leave outcome recording to CallAsync.
  virtual void CallAsyncImpl(int silo_id, const std::vector<uint8_t>& request,
                             CallCallback done);

  /// The transport-specific scatter-gather exchange; `chunks` concatenated
  /// in order form the complete request payload. The default joins them
  /// into one pooled buffer and degrades to CallAsyncImpl.
  virtual void CallAsyncChunksImpl(int silo_id, std::vector<BufferRef> chunks,
                                   CallCallback done);

  CommStats stats_;

 private:
  // Per-silo registry counters, resolved once so the per-call cost is one
  // small map lookup under a short lock plus lock-free increments.
  struct SiloInstruments {
    Counter* requests_total;
    Counter* timeouts_total;
  };
  SiloInstruments InstrumentsFor(int silo_id);
  /// The transport-agnostic accounting shared by Call and CallAsync.
  void RecordOutcome(int silo_id, const Status& status, double micros);
  /// Strips the tolerant trailing span section (net/message.h) off a
  /// successful response and feeds the records to the process Tracer
  /// tagged `silo=<id>` — the stitch point of cross-silo tracing, shared
  /// by every transport and both call shapes. Runs before the payload
  /// reaches any message decoder.
  void IngestResponseSpans(int silo_id, std::vector<uint8_t>* response);
  /// Wraps an async caller's `done` with the span ingest and outcome
  /// accounting above, timed from now — shared by CallAsync and
  /// CallAsyncChunks.
  CallCallback Completion(int silo_id, CallCallback done);

  std::atomic<SiloCallObserver*> observer_{nullptr};
  std::mutex instruments_mu_;
  std::unordered_map<int, SiloInstruments> instruments_;
};

/// The federation's transport, simulated in process.
///
/// The paper ran the provider and silos on separate machines over TCP;
/// what its evaluation measures is transferred volume and the parallelism
/// of silo-local work, both of which this substrate reproduces: every
/// call serialises through the message layer (bytes metered by
/// CommStats), silo handlers execute on the caller's thread (the query
/// framework supplies one thread per in-flight query), and an optional
/// latency model charges per-message and per-byte delays.
class InProcessNetwork : public Network {
 public:
  /// Synthetic link delay applied on every exchange (request + response).
  struct LatencyModel {
    double fixed_micros = 0.0;     // per-message round-trip overhead
    double per_kb_micros = 0.0;    // serialisation-volume cost
  };

  InProcessNetwork() : InProcessNetwork(LatencyModel{}) {}
  explicit InProcessNetwork(LatencyModel latency) : latency_(latency) {}

  /// Registers a silo endpoint under `silo_id` (not owned; must outlive
  /// the network). Fails if the id is taken.
  Status RegisterSilo(int silo_id, SiloEndpoint* endpoint);

  const char* transport_name() const override { return "inprocess"; }
  size_t num_silos() const override;
  std::vector<int> silo_ids() const override;

 protected:
  /// One request/response exchange with a silo. Accounts bytes both ways
  /// and applies the latency model. Unknown ids yield Unavailable.
  Result<std::vector<uint8_t>> CallImpl(
      int silo_id, const std::vector<uint8_t>& request) override;

 private:
  LatencyModel latency_;
  mutable std::mutex mu_;  // guards endpoints_ registration/lookup
  std::unordered_map<int, SiloEndpoint*> endpoints_;
};

}  // namespace fra

#endif  // FRA_NET_NETWORK_H_
