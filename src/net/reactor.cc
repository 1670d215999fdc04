#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>
#include <future>
#include <limits>
#include <string>
#include <utility>

#include "net/message.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace fra {
namespace {

// Loop ids are process-unique so every event loop — reactors owned by
// networks, servers, admin endpoints — exports under a distinct `loop`
// label for its whole lifetime.
std::atomic<uint64_t> g_next_loop_id{0};

double ToMicros(TimerWheel::Clock::duration d) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::micro>>(d)
      .count();
}

// Frame-layer byte accounting (fra_frame_bytes_total{direction}): every
// byte the reactor transport moves, headers included, counted at the
// syscall boundary — the wire truth the per-query cost ledger is checked
// against. One atomic add per recv/sendmsg.
Counter* FrameBytesIn() {
  static Counter* counter = &MetricsRegistry::Default().GetCounter(
      "fra_frame_bytes_total", {{"direction", "in"}});
  return counter;
}

Counter* FrameBytesOut() {
  static Counter* counter = &MetricsRegistry::Default().GetCounter(
      "fra_frame_bytes_total", {{"direction", "out"}});
  return counter;
}

}  // namespace

// --- TimerWheel ------------------------------------------------------------

TimerWheel::TimerWheel(Clock::time_point now, int tick_ms)
    : origin_(now), tick_ms_(std::max(1, tick_ms)) {}

uint64_t TimerWheel::TickFor(Clock::time_point at) const {
  if (at <= origin_) return 0;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(at - origin_)
          .count();
  // Round up: a deadline mid-tick fires on the tick after it, never early.
  return (static_cast<uint64_t>(elapsed) + tick_ms_ - 1) / tick_ms_;
}

uint64_t TimerWheel::FloorTickFor(Clock::time_point at) const {
  if (at <= origin_) return 0;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(at - origin_)
          .count();
  return static_cast<uint64_t>(elapsed) / tick_ms_;
}

uint64_t TimerWheel::ScheduleAt(Clock::time_point deadline, Callback fn) {
  const uint64_t id = next_id_++;
  Entry entry;
  entry.id = id;
  entry.expiry_tick = std::max(TickFor(deadline), current_tick_ + 1);
  entry.fn = std::move(fn);
  const size_t slot = entry.expiry_tick % kSlots;
  slots_[slot].push_back(std::move(entry));
  index_.emplace(id, std::make_pair(slot, std::prev(slots_[slot].end())));
  if (min_valid_) {
    min_expiry_ = index_.size() == 1
                      ? slots_[slot].back().expiry_tick
                      : std::min(min_expiry_, slots_[slot].back().expiry_tick);
  }
  return id;
}

bool TimerWheel::Cancel(uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const auto [slot, entry_it] = it->second;
  const uint64_t expiry = entry_it->expiry_tick;
  slots_[slot].erase(entry_it);
  index_.erase(it);
  if (index_.empty()) {
    min_expiry_ = kNoExpiry;
    min_valid_ = true;
  } else if (min_valid_ && expiry == min_expiry_) {
    min_valid_ = false;  // recompute lazily
  }
  return true;
}

void TimerWheel::RecomputeMinExpiry() {
  min_expiry_ = kNoExpiry;
  for (const auto& slot : slots_) {
    for (const Entry& entry : slot) {
      min_expiry_ = std::min(min_expiry_, entry.expiry_tick);
    }
  }
  min_valid_ = true;
}

void TimerWheel::Advance(Clock::time_point now) {
  // Floor, where scheduling ceils: an entry fires only once `now` has
  // actually reached its deadline, never up to a tick early.
  const uint64_t target_tick = FloorTickFor(now);
  if (target_tick <= current_tick_) return;
  if (index_.empty()) {
    current_tick_ = target_tick;
    return;
  }
  // Collect every due entry first, then fire: callbacks may re-enter
  // ScheduleAt/Cancel without invalidating this sweep.
  std::vector<Entry> due;
  while (current_tick_ < target_tick) {
    ++current_tick_;
    auto& slot = slots_[current_tick_ % kSlots];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->expiry_tick <= current_tick_) {
        due.push_back(std::move(*it));
        index_.erase(it->id);
        it = slot.erase(it);
      } else {
        ++it;  // a later wheel round
      }
    }
    if (index_.empty()) {
      current_tick_ = target_tick;
      break;
    }
  }
  if (!due.empty()) min_valid_ = false;
  if (index_.empty()) {
    min_expiry_ = kNoExpiry;
    min_valid_ = true;
  }
  for (Entry& entry : due) {
    if (drift_observer_) {
      // Lateness against the entry's scheduled tick: >= 0 by
      // construction (fire ticks floor where scheduling ceils).
      const auto deadline =
          origin_ + std::chrono::milliseconds(
                        static_cast<int64_t>(entry.expiry_tick) * tick_ms_);
      drift_observer_(std::max(0.0, ToMicros(now - deadline)));
    }
    entry.fn();
  }
}

int TimerWheel::NextTimeoutMs(Clock::time_point now) {
  if (index_.empty()) return -1;
  if (!min_valid_) RecomputeMinExpiry();
  const auto deadline = origin_ + std::chrono::milliseconds(
                                      static_cast<int64_t>(min_expiry_) *
                                      tick_ms_);
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(
      std::min<int64_t>(left, std::numeric_limits<int>::max()));
}

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop()
    : id_(g_next_loop_id.fetch_add(1, std::memory_order_relaxed)),
      wheel_(TimerWheel::Clock::now()) {
  const MetricLabels labels = {{"loop", std::to_string(id_)}};
  MetricsRegistry& registry = MetricsRegistry::Default();
  lag_hist_ =
      &registry.GetHistogram("fra_reactor_loop_lag_microseconds", labels);
  wait_hist_ =
      &registry.GetHistogram("fra_reactor_epoll_wait_microseconds", labels);
  dispatch_hist_ =
      &registry.GetHistogram("fra_reactor_dispatch_microseconds", labels);
  drift_hist_ =
      &registry.GetHistogram("fra_reactor_timer_drift_microseconds", labels);
  pending_timers_gauge_ =
      &registry.GetGauge("fra_reactor_pending_timers", labels);
  wheel_.set_drift_observer(
      [this](double late_micros) { drift_hist_->Observe(late_micros); });
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FRA_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << std::strerror(errno);
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  FRA_CHECK(wakeup_fd_ >= 0) << "eventfd: " << std::strerror(errno);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeup_fd_;
  FRA_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &event) == 0)
      << "epoll_ctl(wakeup): " << std::strerror(errno);
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::DrainWakeup() {
  uint64_t value = 0;
  while (::read(wakeup_fd_, &value, sizeof(value)) > 0) {
  }
}

void EventLoop::RunQueuedTasks() {
  std::vector<QueuedTask> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  if (tasks.empty()) return;
  // One timestamp per drain batch: the lag of interest is scheduling
  // delay (how long the loop took to get to the task), not intra-batch
  // ordering.
  const auto drained_at = TimerWheel::Clock::now();
  for (QueuedTask& task : tasks) {
    lag_hist_->Observe(ToMicros(drained_at - task.submitted));
    task.fn();
  }
}

void EventLoop::Run() {
  loop_thread_id_.store(std::this_thread::get_id(),
                        std::memory_order_release);
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const auto wait_start = TimerWheel::Clock::now();
    int timeout_ms;
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      timeout_ms = tasks_.empty() ? wheel_.NextTimeoutMs(wait_start) : 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    FRA_CHECK(n >= 0 || errno == EINTR)
        << "epoll_wait: " << std::strerror(errno);
    const auto woke = TimerWheel::Clock::now();
    wait_hist_->Observe(ToMicros(woke - wait_start));
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        DrainWakeup();
        continue;
      }
      // Copy: a handler may deregister (even itself) mid-dispatch.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      FdHandler handler = it->second;
      handler(events[i].events);
    }
    RunQueuedTasks();
    wheel_.Advance(TimerWheel::Clock::now());
    // Dispatch covers everything a wakeup triggered — fd handlers,
    // queued tasks, fired timers: the time this loop was NOT available
    // to react to the next event.
    dispatch_hist_->Observe(ToMicros(TimerWheel::Clock::now() - woke));
    pending_timers_gauge_->Set(static_cast<double>(wheel_.pending()));
  }
  // Final drain, atomic with the exited_ flip: every Submit that returned
  // true sees its task run here, and every later Submit sees exited_
  // under the same mutex and refuses — no stranded tasks.
  std::vector<QueuedTask> last;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    exited_.store(true, std::memory_order_release);
    last.swap(tasks_);
  }
  for (QueuedTask& task : last) task.fn();
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  (void)!::write(wakeup_fd_, &one, sizeof(one));
}

bool EventLoop::Submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (exited_.load(std::memory_order_acquire)) return false;
    tasks_.push_back(QueuedTask{std::move(task), TimerWheel::Clock::now()});
  }
  const uint64_t one = 1;
  (void)!::write(wakeup_fd_, &one, sizeof(one));
  return true;
}

bool EventLoop::SubmitAndWait(Task task) {
  if (InLoopThread()) {
    task();
    return true;
  }
  std::promise<void> done;
  std::future<void> future = done.get_future();
  if (!Submit([&task, &done] {
        task();
        done.set_value();
      })) {
    return false;
  }
  future.wait();
  return true;
}

Status EventLoop::RegisterFd(int fd, uint32_t events, FdHandler handler) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") +
                           std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
  return Status::OK();
}

Status EventLoop::UpdateFd(int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::DeregisterFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

uint64_t EventLoop::ScheduleTimerAfter(std::chrono::milliseconds delay,
                                       TimerWheel::Callback fn) {
  return wheel_.ScheduleAfter(delay, std::move(fn));
}

uint64_t EventLoop::ScheduleTimerAt(TimerWheel::Clock::time_point deadline,
                                    TimerWheel::Callback fn) {
  return wheel_.ScheduleAt(deadline, std::move(fn));
}

bool EventLoop::CancelTimer(uint64_t id) { return wheel_.Cancel(id); }

// --- Reactor ---------------------------------------------------------------

size_t Reactor::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw == 0 ? 1u : hw));
}

Reactor::Reactor(size_t num_threads) {
  const size_t n = num_threads == 0 ? DefaultThreadCount() : num_threads;
  loops_.reserve(n);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([loop = loops_[i].get()] { loop->Run(); });
  }
}

Reactor::~Reactor() { Stop(); }

void Reactor::Stop() {
  if (stopped_.exchange(true)) return;
  for (auto& loop : loops_) loop->Stop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

EventLoop* Reactor::NextLoop() {
  return loops_[next_.fetch_add(1, std::memory_order_relaxed) % loops_.size()]
      .get();
}

// --- framing state machines ------------------------------------------------

Status FrameReader::Drain(int fd, const FrameSink& on_frame) {
  for (;;) {
    if (!in_payload_) {
      while (header_filled_ < sizeof(header_)) {
        const ssize_t n = ::recv(fd, header_ + header_filled_,
                                 sizeof(header_) - header_filled_, 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
          return Status::IOError(std::string("recv: ") +
                                 std::strerror(errno));
        }
        if (n == 0) return Status::Unavailable("peer closed connection");
        FrameBytesIn()->Increment(static_cast<uint64_t>(n));
        header_filled_ += static_cast<size_t>(n);
      }
      uint32_t wire_length = 0;
      std::memcpy(&wire_length, header_, sizeof(wire_length));
      const uint32_t length = ntohl(wire_length);
      if (length > kMaxFrameBytes) {
        return Status::OutOfRange("frame exceeds limit");
      }
      // Frame payloads come from the buffer pool: a connection serving a
      // steady request size recycles the same slab frame after frame.
      payload_ = BufferPool::Default().Acquire(length);
      payload_.resize(length);
      payload_filled_ = 0;
      in_payload_ = true;
    }
    while (payload_filled_ < payload_.size()) {
      const ssize_t n = ::recv(fd, payload_.data() + payload_filled_,
                               payload_.size() - payload_filled_, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
        return Status::IOError(std::string("recv: ") + std::strerror(errno));
      }
      if (n == 0) return Status::Unavailable("peer closed connection");
      FrameBytesIn()->Increment(static_cast<uint64_t>(n));
      payload_filled_ += static_cast<size_t>(n);
    }
    // Frame complete; reset before the sink runs so a re-entrant look at
    // the reader sees a clean state.
    std::vector<uint8_t> payload = std::move(payload_);
    payload_ = {};
    payload_filled_ = 0;
    header_filled_ = 0;
    in_payload_ = false;
    if (!on_frame(std::move(payload))) return Status::OK();
  }
}

void FrameWriter::PushHeader(uint32_t payload_bytes) {
  Chunk chunk;
  const uint32_t wire_length = htonl(payload_bytes);
  std::memcpy(chunk.header, &wire_length, sizeof(wire_length));
  chunk.header_len = sizeof(wire_length);
  pending_bytes_ += chunk.header_len;
  queue_.push_back(std::move(chunk));
}

void FrameWriter::EnqueueFrame(std::vector<uint8_t> payload) {
  PushHeader(static_cast<uint32_t>(payload.size()));
  // A zero-length payload is just its header; no body chunk is queued,
  // so pending_bytes_ counts exactly the 4 header bytes for it.
  if (payload.empty()) return;
  Chunk chunk;
  pending_bytes_ += payload.size();
  chunk.owned = std::move(payload);
  queue_.push_back(std::move(chunk));
}

void FrameWriter::EnqueueFrameChunks(const std::vector<BufferRef>& chunks) {
  size_t total = 0;
  for (const BufferRef& ref : chunks) total += ref.size();
  PushHeader(static_cast<uint32_t>(total));
  for (const BufferRef& ref : chunks) {
    if (ref.empty()) continue;
    Chunk chunk;
    chunk.ref = ref;
    pending_bytes_ += ref.size();
    queue_.push_back(std::move(chunk));
  }
}

Status FrameWriter::Flush(int fd) {
  // Upper bound on segments gathered per syscall; well under IOV_MAX and
  // large enough that a full batch frame (header + n staged entries)
  // usually leaves in one vectored send.
  constexpr size_t kMaxIovPerFlush = 64;
  while (!queue_.empty()) {
    struct iovec iov[kMaxIovPerFlush];
    size_t iov_count = 0;
    size_t offset = front_offset_;  // applies to the first chunk only
    for (const Chunk& chunk : queue_) {
      if (iov_count == kMaxIovPerFlush) break;
      iov[iov_count].iov_base =
          const_cast<uint8_t*>(chunk.data() + offset);
      iov[iov_count].iov_len = chunk.size() - offset;
      ++iov_count;
      offset = 0;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    // sendmsg rather than writev: the transport relies on MSG_NOSIGNAL
    // (nothing in the process ignores SIGPIPE).
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      return Status::IOError(std::string("sendmsg: ") + std::strerror(errno));
    }
    FrameBytesOut()->Increment(static_cast<uint64_t>(n));
    pending_bytes_ -= static_cast<size_t>(n);
    size_t written = static_cast<size_t>(n);
    while (written > 0) {
      Chunk& front = queue_.front();
      const size_t remaining = front.size() - front_offset_;
      if (written < remaining) {
        front_offset_ += written;
        break;
      }
      written -= remaining;
      front_offset_ = 0;
      // Fully written: recycle owned buffers; BufferRef storage returns
      // through its refcount when the last holder (possibly a retry
      // copy) drops.
      if (!front.owned.empty()) {
        BufferPool::Default().Release(std::move(front.owned));
      }
      queue_.pop_front();
    }
  }
  return Status::OK();
}

// --- accept policy / fd helpers --------------------------------------------

AcceptAction ClassifyAcceptErrno(int err) {
  switch (err) {
    // Per-connection failures surfaced through accept(): the handshake
    // aborted before we got the socket. Nothing is wrong with the
    // listener — take the next connection.
    case EINTR:
    case ECONNABORTED:
#ifdef EPROTO
    case EPROTO:
#endif
      return AcceptAction::kRetry;
    // Resource exhaustion: accepting again immediately would spin (the
    // pending connection stays queued), so pause briefly and retry —
    // never kill the listener over a transient fd-limit spike.
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM:
      return AcceptAction::kBackoff;
    // The listening socket itself is gone (typically Stop() closed it).
    case EBADF:
    case EINVAL:
    case ENOTSOCK:
    case EOPNOTSUPP:
      return AcceptAction::kFatal;
    default:
      // Unknown errno: stay alive, but back off so a persistent failure
      // cannot spin the accept loop.
      return AcceptAction::kBackoff;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<LoopbackListener> ListenLoopback(uint16_t port, int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const auto fail = [fd](const char* what) {
    const Status status =
        Status::IOError(std::string(what) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  };
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0) {
    return fail("bind");
  }
  socklen_t address_length = sizeof(address);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address),
                    &address_length) < 0) {
    return fail("getsockname");
  }
  if (::listen(fd, backlog) < 0) return fail("listen");
  return LoopbackListener{fd, ntohs(address.sin_port)};
}

}  // namespace fra
