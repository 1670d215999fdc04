#ifndef FRA_NET_REACTOR_H_
#define FRA_NET_REACTOR_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/buffer.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace fra {

/// Hashed timer wheel: O(1) schedule/cancel, deadlines fire on Advance.
///
/// This is the deadline substrate of the event loop: every pending
/// request/connect deadline is one entry, so 10k in-flight queries cost
/// 10k wheel entries instead of 10k blocked poll() calls. Entries land in
/// `slot = expiry_tick % kSlots`; an entry whose deadline lies beyond one
/// wheel span simply stays in its slot until the wheel has wrapped around
/// to its absolute tick (the classic "rounds" scheme, expressed as an
/// absolute-tick comparison). Single-threaded: the owning event loop is
/// the only caller.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using Callback = std::function<void()>;

  /// `tick_ms` is the firing granularity (deadlines are rounded *up* to
  /// the next tick, so a timer never fires early).
  explicit TimerWheel(Clock::time_point now, int tick_ms = 1);

  /// Schedules `fn` to run at `deadline` (clamped to at least one tick
  /// from now). Returns a nonzero id usable with Cancel.
  uint64_t ScheduleAt(Clock::time_point deadline, Callback fn);
  uint64_t ScheduleAfter(std::chrono::milliseconds delay, Callback fn) {
    return ScheduleAt(Clock::now() + delay, std::move(fn));
  }

  /// Cancels a pending timer. False when the id already fired, was
  /// cancelled, or never existed.
  bool Cancel(uint64_t id);

  /// Fires every timer whose deadline is <= `now`. Callbacks run after
  /// the wheel state is updated, so they may freely schedule or cancel.
  void Advance(Clock::time_point now);

  /// Milliseconds until the earliest pending deadline (clamped to >= 0),
  /// or -1 when no timers are pending — the epoll_wait timeout.
  int NextTimeoutMs(Clock::time_point now);

  size_t pending() const { return index_.size(); }

  /// Observer invoked once per fired timer with how late it ran, in
  /// microseconds past its scheduled deadline (>= 0; the wheel never
  /// fires early). The owning event loop installs this to feed the
  /// fra_reactor_timer_drift_microseconds histogram.
  using DriftObserver = std::function<void(double late_micros)>;
  void set_drift_observer(DriftObserver fn) { drift_observer_ = std::move(fn); }

 private:
  struct Entry {
    uint64_t id = 0;
    uint64_t expiry_tick = 0;
    Callback fn;
  };
  static constexpr size_t kSlots = 512;
  static constexpr uint64_t kNoExpiry = ~0ull;

  uint64_t TickFor(Clock::time_point at) const;       // ceil: scheduling
  uint64_t FloorTickFor(Clock::time_point at) const;  // floor: firing
  void RecomputeMinExpiry();

  const Clock::time_point origin_;
  const int tick_ms_;
  uint64_t current_tick_ = 0;
  uint64_t next_id_ = 1;
  // Cached earliest expiry tick across every slot; kNoExpiry when the
  // cache must be rebuilt by scanning (after firing, or after cancelling
  // the minimum) — the rebuild is O(pending), amortised over fire batches.
  uint64_t min_expiry_ = kNoExpiry;
  bool min_valid_ = true;  // empty wheel: valid, nothing pending
  DriftObserver drift_observer_;
  std::array<std::list<Entry>, kSlots> slots_;
  std::unordered_map<uint64_t, std::pair<size_t, std::list<Entry>::iterator>>
      index_;
};

/// One single-threaded epoll loop: fd readiness callbacks, a timer wheel
/// for deadlines, and an eventfd-backed task queue for cross-thread
/// submission. Everything except Submit/SubmitAndWait/Stop must run on
/// the loop thread (submit a task to get there).
class EventLoop {
 public:
  using FdHandler = std::function<void(uint32_t epoll_events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the loop on the calling thread until Stop(). Pending tasks are
  /// drained once more after the loop exits, so a task submitted before
  /// Stop() is never silently lost.
  void Run();

  /// Thread safe; the loop wakes promptly. Idempotent.
  void Stop();

  /// Enqueues `task` for the loop thread (thread safe). Returns false —
  /// and drops the task — once the loop has exited; shutdown sequences
  /// must quiesce submitters before stopping the loop.
  bool Submit(Task task);

  /// Submit + wait for completion. Runs inline when already on the loop
  /// thread. Returns false (without running) when the loop has exited.
  bool SubmitAndWait(Task task);

  /// Loop thread only. `events` is an EPOLLIN/EPOLLOUT/... mask; the
  /// handler receives the ready mask of each wakeup.
  Status RegisterFd(int fd, uint32_t events, FdHandler handler);
  Status UpdateFd(int fd, uint32_t events);
  void DeregisterFd(int fd);

  /// Loop thread only: deadlines on the timer wheel.
  uint64_t ScheduleTimerAfter(std::chrono::milliseconds delay,
                              TimerWheel::Callback fn);
  uint64_t ScheduleTimerAt(TimerWheel::Clock::time_point deadline,
                           TimerWheel::Callback fn);
  bool CancelTimer(uint64_t id);

  bool InLoopThread() const {
    return loop_thread_id_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// Process-unique id of this loop; the `loop` label on every
  /// fra_reactor_* instrument.
  uint64_t id() const { return id_; }

 private:
  /// A cross-thread task plus its submission time, so the drain can
  /// measure event-loop lag (submit -> run) — the headline health signal
  /// of a reactor thread: a stalled handler shows up here first.
  struct QueuedTask {
    Task fn;
    TimerWheel::Clock::time_point submitted;
  };

  void RunQueuedTasks();
  void DrainWakeup();

  const uint64_t id_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> exited_{false};
  std::atomic<std::thread::id> loop_thread_id_{};
  TimerWheel wheel_;
  std::unordered_map<int, FdHandler> handlers_;  // loop thread only
  std::mutex tasks_mu_;
  std::vector<QueuedTask> tasks_;
  // Per-loop telemetry, resolved once at construction (loop label fixed
  // for the loop's lifetime); all updates are lock-free.
  Histogram* lag_hist_;
  Histogram* wait_hist_;
  Histogram* dispatch_hist_;
  Histogram* drift_hist_;
  Gauge* pending_timers_gauge_;
};

/// N event loops, one thread each — the "reactor per core" of the
/// network stack. Connections are spread across loops (NextLoop) and
/// each is then owned by exactly one loop, so per-connection state needs
/// no locks.
class Reactor {
 public:
  /// 0 threads means DefaultThreadCount().
  explicit Reactor(size_t num_threads = 0);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Stops every loop and joins the threads. Idempotent.
  void Stop();

  /// Round-robin loop assignment for a new connection or silo.
  EventLoop* NextLoop();
  EventLoop* loop(size_t i) { return loops_[i].get(); }
  size_t num_loops() const { return loops_.size(); }

  /// min(4, hardware_concurrency), at least 1 — loops are I/O bound, so
  /// a handful saturates loopback well before core count matters.
  static size_t DefaultThreadCount();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> stopped_{false};
};

/// Streaming decoder for the wire framing (`u32 big-endian length ‖
/// payload`, docs/wire_protocol.md): feed it a readable non-blocking fd
/// and it invokes `on_frame` once per completed frame. Returns OK on
/// would-block (call again on the next EPOLLIN), Unavailable on a clean
/// peer close, OutOfRange on an oversized length prefix, IOError
/// otherwise. `on_frame` returning false stops the drain early with OK
/// (read backpressure); buffered partial state is kept across calls.
class FrameReader {
 public:
  using FrameSink = std::function<bool(std::vector<uint8_t> payload)>;

  Status Drain(int fd, const FrameSink& on_frame);

 private:
  uint8_t header_[4];
  size_t header_filled_ = 0;
  bool in_payload_ = false;
  std::vector<uint8_t> payload_;
  size_t payload_filled_ = 0;
};

/// Buffered frame writer for a non-blocking fd: frames queue as chunks
/// (an inline 4-byte length header plus one or more payload segments)
/// and Flush gathers the queue into an iovec array sent with one
/// vectored syscall per round instead of one send() per chunk — the
/// "partial write" half of the connection state machine. The caller owns
/// EPOLLOUT interest: arm it while has_pending() after a Flush.
///
/// Owned payload buffers are recycled to BufferPool::Default() once
/// fully written; BufferRef chunks release through their refcount.
class FrameWriter {
 public:
  /// Queues one frame. The payload must already satisfy
  /// ValidateFramePayloadSize (message.h).
  void EnqueueFrame(std::vector<uint8_t> payload);

  /// Scatter-gather enqueue: the frame's payload is the concatenation of
  /// `chunks`, shipped from their own buffers (no join). The total size
  /// must already satisfy ValidateFramePayloadSize.
  void EnqueueFrameChunks(const std::vector<BufferRef>& chunks);

  /// Writes until drained or EAGAIN (both return OK); IOError on a
  /// broken socket.
  Status Flush(int fd);

  bool has_pending() const { return !queue_.empty(); }
  size_t pending_bytes() const { return pending_bytes_; }

 private:
  // One contiguous wire segment: either an inline frame header or a
  // payload buffer (owned vector or shared BufferRef, never both).
  struct Chunk {
    uint8_t header[4];
    uint8_t header_len = 0;
    std::vector<uint8_t> owned;
    BufferRef ref;

    const uint8_t* data() const {
      if (header_len > 0) return header;
      return ref.empty() ? owned.data() : ref.data();
    }
    size_t size() const {
      if (header_len > 0) return header_len;
      return ref.empty() ? owned.size() : ref.size();
    }
  };

  void PushHeader(uint32_t payload_bytes);

  std::deque<Chunk> queue_;
  size_t front_offset_ = 0;
  size_t pending_bytes_ = 0;
};

/// What an accept() failure means for an accept handler. Factored out so
/// the policy is unit-testable and shared by TcpSiloServer and
/// AdminServer (an accept loop that killed the listener on ANY errno
/// other than EINTR let one aborted handshake or a transient fd-limit
/// spike silently stop the server).
enum class AcceptAction {
  kRetry,    // transient per-connection failure: try the next accept
  kBackoff,  // resource exhaustion (EMFILE/ENFILE/...): pause briefly,
             // keep the listener alive
  kFatal,    // the listening socket itself is gone
};
AcceptAction ClassifyAcceptErrno(int err);

/// Puts `fd` into non-blocking mode.
Status SetNonBlocking(int fd);

/// A listening socket from ListenLoopback.
struct LoopbackListener {
  int fd = -1;
  uint16_t port = 0;  // the bound port (resolved when 0 was requested)
};

/// The listen sequence both servers share: a non-blocking socket with
/// SO_REUSEADDR, bound to 127.0.0.1:`port` (0 picks an ephemeral port)
/// and listening with `backlog`. Every failure path closes the socket,
/// so a server whose Start fails holds no fd.
Result<LoopbackListener> ListenLoopback(uint16_t port, int backlog);

}  // namespace fra

#endif  // FRA_NET_REACTOR_H_
