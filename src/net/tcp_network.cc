#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include <algorithm>
#include <future>
#include <string>
#include <utility>

#include "net/message.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace fra {
namespace {

// Server-side read backpressure: stop reading new requests off a
// connection while this many responses are pending on it, or while this
// much response data is buffered for a reader that has stopped draining
// (the slow-scraper case) — the loop stays responsive to every other
// connection either way.
constexpr size_t kMaxServerPipeline = 256;
constexpr size_t kServerWriterPauseBytes = 4u << 20;

// Accept backoff after resource exhaustion (EMFILE/ENFILE/...): long
// enough for fds to free up, short enough that the listener recovers
// promptly.
constexpr int kAcceptBackoffMs = 20;

// Client side: connections opened per silo; past this, calls pipeline
// onto the least-loaded connection, up to kMaxPipelinePerConnection
// requests each before dispatch stalls.
constexpr size_t kMaxConnectionsPerSilo = 8;
constexpr size_t kMaxPipelinePerConnection = 4096;

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

void SetNoDelay(int fd) {
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

// Handler workers back every blocking HandleMessage; enough of them to
// overlap blocking silo work even on small machines.
size_t DefaultHandlerThreads() {
  return std::max<size_t>(8, std::thread::hardware_concurrency());
}

// Server-role connection telemetry. Unlabelled process-wide instruments:
// a production silo runs one server per process, and in-process test
// federations aggregate meaningfully (total queued depth / unsent bytes
// across every serving socket).
const std::vector<double>& PipelineDepthBuckets() {
  static const std::vector<double> kBuckets = {1,  2,  4,   8,   16,
                                               32, 64, 128, 256, 512};
  return kBuckets;
}

Histogram* ServerPipelineDepthHist() {
  static Histogram* hist = &MetricsRegistry::Default().GetHistogram(
      "fra_tcp_server_pipeline_depth", {}, PipelineDepthBuckets());
  return hist;
}

Gauge* ServerBackpressureGauge() {
  static Gauge* gauge =
      &MetricsRegistry::Default().GetGauge("fra_tcp_server_backpressure_bytes");
  return gauge;
}

}  // namespace

// --- TcpSiloServer ---------------------------------------------------------

/// One accepted connection's state machine. Owned by shared_ptr: the
/// epoll handler, in-flight handler-pool tasks, and their loop-thread
/// completions all hold references, and `closed` lets a completion that
/// arrives after the connection died return without touching the socket.
/// Everything here is touched only from the connection's loop thread.
struct TcpSiloServer::Conn {
  int fd = -1;
  EventLoop* loop = nullptr;
  FrameReader reader;
  FrameWriter writer;
  uint32_t interest = EPOLLIN;
  bool closed = false;
  // Peer closed its write side while responses are still pending: finish
  // writing them, then close (a request sent before the half-close is
  // still answered).
  bool draining = false;
  // Last pending_bytes() reported to the process-wide backpressure
  // gauge; the gauge is kept consistent by deltas because connections
  // live on different loop threads.
  size_t reported_backpressure = 0;

  void SyncBackpressure(const FrameWriter& writer) {
    const size_t unsent = writer.pending_bytes();
    if (unsent != reported_backpressure) {
      ServerBackpressureGauge()->Add(static_cast<double>(unsent) -
                                     static_cast<double>(
                                         reported_backpressure));
      reported_backpressure = unsent;
    }
  }

  /// Ordered response pipelining: one slot per request, in arrival
  /// order. Workers complete out of order; responses flush in order.
  struct Slot {
    bool done = false;
    std::vector<uint8_t> response;
  };
  std::deque<std::shared_ptr<Slot>> slots;
};

Result<std::unique_ptr<TcpSiloServer>> TcpSiloServer::Start(
    SiloEndpoint* endpoint, uint16_t port) {
  if (endpoint == nullptr) {
    return Status::InvalidArgument("null endpoint");
  }
  FRA_ASSIGN_OR_RETURN(const LoopbackListener listener,
                       ListenLoopback(port, 256));
  auto server = std::unique_ptr<TcpSiloServer>(new TcpSiloServer());
  server->endpoint_ = endpoint;
  server->listen_fd_ = listener.fd;
  server->port_ = listener.port;
  server->reactor_ = std::make_unique<Reactor>();
  server->handler_pool_ =
      std::make_unique<ThreadPool>(DefaultHandlerThreads());
  server->accept_loop_ = server->reactor_->loop(0);
  TcpSiloServer* raw = server.get();
  Status registered = Status::OK();
  raw->accept_loop_->SubmitAndWait([raw, &registered] {
    registered = raw->accept_loop_->RegisterFd(
        raw->listen_fd_, EPOLLIN, [raw](uint32_t) { raw->OnAcceptReady(); });
  });
  FRA_RETURN_NOT_OK(registered);
  return server;
}

void TcpSiloServer::OnAcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      SetNoDelay(fd);
      EventLoop* loop = reactor_->NextLoop();
      loop->Submit([this, fd, loop] { AdoptConnection(fd, loop); });
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    const int accept_errno = errno;
    switch (ClassifyAcceptErrno(accept_errno)) {
      case AcceptAction::kRetry:
        continue;
      case AcceptAction::kBackoff:
        FRA_LOG(WARN) << "silo server accept backoff: "
                      << std::strerror(accept_errno) << "; parking listener "
                      << kAcceptBackoffMs << "ms";
        // Level-triggered epoll would spin on the still-pending
        // connection; park the listener and re-arm shortly.
        (void)accept_loop_->UpdateFd(listen_fd_, 0);
        accept_loop_->ScheduleTimerAfter(
            std::chrono::milliseconds(kAcceptBackoffMs), [this] {
              if (!stopping_.load() && listen_fd_ >= 0) {
                (void)accept_loop_->UpdateFd(listen_fd_, EPOLLIN);
              }
            });
        return;
      case AcceptAction::kFatal:
        // The listening socket itself is gone (normally Stop()).
        if (!stopping_.load()) {
          FRA_LOG(ERROR) << "silo server listener lost: "
                         << std::strerror(accept_errno)
                         << "; no longer accepting connections";
        }
        accept_loop_->DeregisterFd(listen_fd_);
        return;
    }
  }
}

void TcpSiloServer::AdoptConnection(int fd, EventLoop* loop) {
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->loop = loop;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    conns_.insert(conn);
  }
  const Status registered = loop->RegisterFd(
      fd, EPOLLIN, [this, conn](uint32_t events) { OnConnEvent(conn, events); });
  if (!registered.ok()) {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn);
    ::close(fd);
  }
}

void TcpSiloServer::OnConnEvent(const std::shared_ptr<Conn>& conn,
                                uint32_t events) {
  if (conn->closed) return;
  if (events & EPOLLOUT) {
    if (!conn->writer.Flush(conn->fd).ok()) {
      CloseConn(conn);
      return;
    }
    if (conn->draining && conn->slots.empty() && !conn->writer.has_pending()) {
      CloseConn(conn);
      return;
    }
    UpdateConnInterest(conn);
  }
  if (events & EPOLLIN) {
    const Status drained =
        conn->reader.Drain(conn->fd, [&](std::vector<uint8_t> payload) {
          DispatchRequest(conn, std::move(payload));
          return conn->slots.size() < kMaxServerPipeline &&
                 conn->writer.pending_bytes() < kServerWriterPauseBytes;
        });
    if (!drained.ok()) {
      if (drained.IsUnavailable() &&
          (!conn->slots.empty() || conn->writer.has_pending())) {
        // Clean peer close with responses still owed: drain writes first.
        conn->draining = true;
      } else {
        CloseConn(conn);
        return;
      }
    }
    UpdateConnInterest(conn);
    return;
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(conn);
  }
}

void TcpSiloServer::DispatchRequest(const std::shared_ptr<Conn>& conn,
                                    std::vector<uint8_t> request) {
  auto slot = std::make_shared<Conn::Slot>();
  conn->slots.push_back(slot);
  // Depth at arrival: how many requests this connection has queued or
  // executing ahead of (and including) this one.
  ServerPipelineDepthHist()->Observe(static_cast<double>(conn->slots.size()));
  // The loop never blocks on query execution: HandleMessage runs on the
  // worker pool, and its completion hops back to the connection's loop.
  handler_pool_->Submit([this, conn, slot,
                         request = std::move(request)]() mutable {
    // A request may arrive inside a trace envelope; the carried trace id
    // becomes this worker's context so silo-side spans correlate with
    // the provider-side ones (0 when the envelope is absent). Spans the
    // handler records under that id are captured by the collector and
    // shipped back as the response's trailing span section.
    ConstByteSpan view(request);
    const uint64_t trace_id = StripTraceEnvelopeView(&view);
    ScopedTraceId trace_scope(trace_id);
    SpanCollector collector;
    // Borrowed-view dispatch: the silo decodes the frame bytes in place
    // (the view stays valid — `request` is owned by this closure).
    Result<std::vector<uint8_t>> response = endpoint_->HandleMessageView(view);
    std::vector<uint8_t> frame =
        response.ok() ? std::move(response).ValueOrDie()
                      : EncodeErrorResponse(response.status());
    // The request frame (a pool-acquired FrameReader payload) is done;
    // recycle it for the connection's next frame.
    BufferPool::Default().Release(std::move(request));
    // No trace-id gate: a deadline-flushed batch frame carries no outer
    // envelope, yet its entries may each be traced — the collector holds
    // whatever spans any of them produced (no-op when empty).
    AppendSpanSection(collector.Take(), &frame);
    conn->loop->Submit([this, conn, slot, frame = std::move(frame)]() mutable {
      if (conn->closed) return;
      slot->done = true;
      slot->response = std::move(frame);
      FlushReadyResponses(conn);
    });
  });
}

void TcpSiloServer::FlushReadyResponses(const std::shared_ptr<Conn>& conn) {
  while (!conn->slots.empty() && conn->slots.front()->done) {
    // Count before replying so a client that has decoded the response
    // already observes the increment.
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    conn->writer.EnqueueFrame(std::move(conn->slots.front()->response));
    conn->slots.pop_front();
  }
  if (!conn->writer.Flush(conn->fd).ok()) {
    CloseConn(conn);
    return;
  }
  if (conn->draining && conn->slots.empty() && !conn->writer.has_pending()) {
    CloseConn(conn);
    return;
  }
  UpdateConnInterest(conn);
}

void TcpSiloServer::UpdateConnInterest(const std::shared_ptr<Conn>& conn) {
  conn->SyncBackpressure(conn->writer);
  uint32_t want = 0;
  const bool paused = conn->draining ||
                      conn->slots.size() >= kMaxServerPipeline ||
                      conn->writer.pending_bytes() >= kServerWriterPauseBytes;
  if (!paused) want |= EPOLLIN;
  if (conn->writer.has_pending()) want |= EPOLLOUT;
  if (want != conn->interest) {
    if (!conn->loop->UpdateFd(conn->fd, want).ok()) {
      CloseConn(conn);
      return;
    }
    conn->interest = want;
  }
}

void TcpSiloServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->reported_backpressure != 0) {
    ServerBackpressureGauge()->Add(
        -static_cast<double>(conn->reported_backpressure));
    conn->reported_backpressure = 0;
  }
  conn->loop->DeregisterFd(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn);
}

TcpSiloServer::~TcpSiloServer() { Stop(); }

void TcpSiloServer::Stop() {
  if (stopping_.exchange(true)) return;
  accept_loop_->SubmitAndWait([this] {
    accept_loop_->DeregisterFd(listen_fd_);
    CloseFd(&listen_fd_);
  });
  // Drain in-flight handlers; their completions land on the loops and
  // flush whatever responses the sockets will still take.
  handler_pool_.reset();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.assign(conns_.begin(), conns_.end());
  }
  // SubmitAndWait doubles as a barrier: completions queued above run
  // before the close (per-loop FIFO), so graceful responses go out.
  for (const std::shared_ptr<Conn>& conn : conns) {
    conn->loop->SubmitAndWait([this, conn] { CloseConn(conn); });
  }
  reactor_->Stop();
}

size_t TcpSiloServer::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

// --- TcpNetwork -------------------------------------------------------------

/// One in-flight call. Created on the caller's thread, then owned by the
/// silo's loop: queued, bound to a connection, finished exactly once.
struct TcpNetwork::Op {
  /// Trace-wrapped request bytes as a scatter-gather chunk list (the
  /// concatenation is the frame payload). Refs are shared with the frame
  /// writer on enqueue and kept here so a transport-error retry can
  /// re-enqueue the same bytes without copying them back.
  std::vector<BufferRef> chunks;
  size_t wire_bytes = 0;  // sum of chunk sizes, for exchange accounting
  CallCallback done;
  uint64_t timer_id = 0;  // request deadline on the loop's wheel
  bool finished = false;
  int attempts = 0;  // transport-error retries consumed
  bool is_batch = false;
  ClientConn* bound = nullptr;  // connection carrying it, once assigned
};

/// One non-blocking connection of a silo. Loop-thread only.
struct TcpNetwork::ClientConn {
  int fd = -1;
  enum State { kConnecting, kReady } state = kConnecting;
  FrameReader reader;
  FrameWriter writer;
  uint32_t interest = 0;
  uint64_t connect_timer = 0;
  bool closed = false;
  /// Requests on the wire, oldest first: response i answers entry i.
  std::deque<std::shared_ptr<Op>> inflight;
};

/// One registered silo: its event loop, the not-yet-assigned op queue,
/// its connections, and its registry instruments.
struct TcpNetwork::SiloState {
  SiloState(int id, uint16_t silo_port) : silo_id(id), port(silo_port) {
    const std::string silo = std::to_string(silo_id);
    MetricsRegistry& registry = MetricsRegistry::Default();
    open_gauge =
        &registry.GetGauge("fra_tcp_pool_open_connections", {{"silo", silo}});
    busy_gauge =
        &registry.GetGauge("fra_tcp_pool_busy_connections", {{"silo", silo}});
    inflight_batches_gauge =
        &registry.GetGauge("fra_tcp_inflight_batches", {{"silo", silo}});
    batch_frames_total =
        &registry.GetCounter("fra_tcp_batch_frames_total", {{"silo", silo}});
    static const std::vector<double> kDepthBuckets = {1,  2,  4,   8,   16,
                                                      32, 64, 128, 256, 512};
    pipeline_depth_hist = &registry.GetHistogram(
        "fra_tcp_pipeline_depth", {{"silo", silo}}, kDepthBuckets);
    backpressure_gauge =
        &registry.GetGauge("fra_tcp_backpressure_bytes", {{"silo", silo}});
  }

  const int silo_id;
  const uint16_t port;
  EventLoop* loop = nullptr;
  bool shutdown = false;
  std::deque<std::shared_ptr<Op>> queue;
  std::vector<std::shared_ptr<ClientConn>> conns;

  Gauge* open_gauge;
  Gauge* busy_gauge;
  Gauge* inflight_batches_gauge;
  Counter* batch_frames_total;
  Histogram* pipeline_depth_hist;  // per-assignment connection depth
  Gauge* backpressure_gauge;       // unsent request bytes, all connections
};

TcpNetwork::TcpNetwork(const Options& options)
    : options_(options),
      reactor_(std::make_unique<Reactor>(options.reactor_threads)) {}

TcpNetwork::~TcpNetwork() {
  std::vector<SiloState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : silos_) states.push_back(state.get());
  }
  for (SiloState* state : states) {
    state->loop->SubmitAndWait([this, state] {
      state->shutdown = true;
      const std::vector<std::shared_ptr<ClientConn>> conns = state->conns;
      for (const std::shared_ptr<ClientConn>& conn : conns) {
        const std::deque<std::shared_ptr<Op>> inflight =
            std::move(conn->inflight);
        conn->inflight.clear();
        RemoveConn(state, conn);
        for (const std::shared_ptr<Op>& op : inflight) {
          FinishOp(state, op,
                   Status::Unavailable("tcp network is shutting down"));
        }
      }
      while (!state->queue.empty()) {
        const std::shared_ptr<Op> op = state->queue.front();
        state->queue.pop_front();
        FinishOp(state, op,
                 Status::Unavailable("tcp network is shutting down"));
      }
      UpdateGauges(state);
    });
  }
  reactor_->Stop();
}

Status TcpNetwork::AddSilo(int silo_id, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  auto state = std::make_unique<SiloState>(silo_id, port);
  state->loop = reactor_->NextLoop();
  const auto [it, inserted] = silos_.emplace(silo_id, std::move(state));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("silo id " + std::to_string(silo_id) +
                                 " already registered");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> TcpNetwork::CallImpl(
    int silo_id, const std::vector<uint8_t>& request) {
  FRA_TRACE_SPAN("net.tcp.call");
  auto promise =
      std::make_shared<std::promise<Result<std::vector<uint8_t>>>>();
  std::future<Result<std::vector<uint8_t>>> future = promise->get_future();
  CallAsyncImpl(silo_id, request,
                [promise](Result<std::vector<uint8_t>> outcome) {
                  promise->set_value(std::move(outcome));
                });
  return future.get();
}

void TcpNetwork::CallAsyncImpl(int silo_id,
                               const std::vector<uint8_t>& request,
                               CallCallback done) {
  // The op keeps its bytes for a retry, so the caller's request (which
  // it may free on return) is copied once into a pooled chunk.
  std::vector<uint8_t> copy = BufferPool::Default().Acquire(request.size());
  copy.insert(copy.end(), request.begin(), request.end());
  std::vector<BufferRef> chunks;
  chunks.push_back(BufferRef::Wrap(std::move(copy)));
  CallAsyncChunksImpl(silo_id, std::move(chunks), std::move(done));
}

void TcpNetwork::CallAsyncChunksImpl(int silo_id,
                                     std::vector<BufferRef> chunks,
                                     CallCallback done) {
  // Peek the message type off the leading chunk BEFORE prepending any
  // envelope — the batch gauge keys off the application frame type.
  bool is_batch = false;
  for (const BufferRef& chunk : chunks) {
    if (chunk.empty()) continue;
    is_batch = static_cast<MessageType>(chunk.data()[0]) ==
               MessageType::kAggregateBatchRequest;
    break;
  }
  // Under an active trace, ship the trace id ahead of the payload so the
  // silo process records its spans under the same id. The caller's
  // thread holds the trace context, so the envelope is built here, not
  // on the loop.
  const uint64_t trace_id = CurrentTraceId();
  if (trace_id != 0) {
    // The envelope alone (an empty payload wrapped), as the first chunk.
    chunks.insert(chunks.begin(),
                  BufferRef::Wrap(WrapWithTraceId(trace_id, {})));
  }
  SiloState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = silos_.find(silo_id);
    if (it != silos_.end()) state = it->second.get();
  }
  if (state == nullptr) {
    done(Status::Unavailable("no silo registered under id " +
                             std::to_string(silo_id)));
    return;
  }
  auto op = std::make_shared<Op>();
  op->chunks = std::move(chunks);
  for (const BufferRef& chunk : op->chunks) op->wire_bytes += chunk.size();
  const Status frame_size = ValidateFramePayloadSize(op->wire_bytes);
  if (!frame_size.ok()) {
    done(frame_size);
    return;
  }
  op->is_batch = is_batch;
  op->done = std::move(done);
  if (!state->loop->Submit([this, state, op] { EnqueueOp(state, op); })) {
    op->done(Status::Unavailable("tcp network is shutting down"));
  }
}

void TcpNetwork::EnqueueOp(SiloState* state, const std::shared_ptr<Op>& op) {
  if (state->shutdown) {
    op->finished = true;
    op->done(Status::Unavailable("tcp network is shutting down"));
    return;
  }
  if (op->is_batch) {
    state->batch_frames_total->Increment();
    state->inflight_batches_gauge->Add(1.0);
  }
  if (options_.request_timeout_ms > 0) {
    // The whole call under one wheel entry: queueing, connecting,
    // sending, waiting. Expiry is terminal — a retry could not finish in
    // time — and poisons the carrying connection, whose late response
    // would desync positional matching.
    op->timer_id = state->loop->ScheduleTimerAfter(
        std::chrono::milliseconds(options_.request_timeout_ms),
        [this, state, op] {
          op->timer_id = 0;
          if (op->finished) return;
          FRA_LOG(WARN) << "request to silo " << state->silo_id
                        << " exceeded its " << options_.request_timeout_ms
                        << "ms deadline; poisoning the carrying connection";
          ClientConn* bound = op->bound;
          FinishOp(state, op,
                   Status::Unavailable(
                       "deadline exceeded: waiting for response from silo " +
                       std::to_string(state->silo_id)));
          if (bound != nullptr) {
            for (const std::shared_ptr<ClientConn>& conn : state->conns) {
              if (conn.get() == bound) {
                HandleConnFailure(
                    state, conn,
                    Status::Unavailable("connection abandoned after deadline"));
                break;
              }
            }
          }
        });
  }
  state->queue.push_back(op);
  DispatchQueue(state);
}

void TcpNetwork::FinishOp(SiloState* state, const std::shared_ptr<Op>& op,
                          Result<std::vector<uint8_t>> outcome) {
  if (op->finished) return;
  op->finished = true;
  op->bound = nullptr;
  if (op->timer_id != 0) {
    state->loop->CancelTimer(op->timer_id);
    op->timer_id = 0;
  }
  if (op->is_batch) state->inflight_batches_gauge->Add(-1.0);
  if (outcome.ok()) {
    stats_.RecordExchange(op->wire_bytes, outcome.ValueOrDie().size());
  }
  op->done(std::move(outcome));
}

void TcpNetwork::DispatchQueue(SiloState* state) {
  if (state->shutdown) return;
  const auto pop_next = [state]() -> std::shared_ptr<Op> {
    while (!state->queue.empty()) {
      std::shared_ptr<Op> op = state->queue.front();
      state->queue.pop_front();
      if (!op->finished) return op;
    }
    return nullptr;
  };
  // 1. Idle ready connections take work first (one request per socket
  //    while sockets are free: the silo serves them in parallel).
  for (const std::shared_ptr<ClientConn>& conn : state->conns) {
    if (state->queue.empty()) break;
    if (!conn->closed && conn->state == ClientConn::kReady &&
        conn->inflight.empty()) {
      const std::shared_ptr<Op> op = pop_next();
      if (op == nullptr) break;
      AssignOp(state, conn, op);
    }
  }
  // 2. Below the connection cap with more queued work than connections
  //    being established: dial.
  size_t connecting = 0;
  for (const std::shared_ptr<ClientConn>& conn : state->conns) {
    if (conn->state == ClientConn::kConnecting) ++connecting;
  }
  while (!state->queue.empty() &&
         state->conns.size() < kMaxConnectionsPerSilo &&
         connecting < state->queue.size()) {
    DialConn(state);
    if (state->shutdown || state->queue.empty()) break;
    ++connecting;
  }
  // 3. At the cap: pipeline onto the least-loaded ready connection —
  //    in-flight capacity beyond connection count is what makes 10k
  //    concurrent calls cost wheel entries instead of sockets.
  while (!state->queue.empty() &&
         state->conns.size() >= kMaxConnectionsPerSilo) {
    std::shared_ptr<ClientConn> best;
    for (const std::shared_ptr<ClientConn>& conn : state->conns) {
      if (conn->closed || conn->state != ClientConn::kReady) continue;
      if (conn->inflight.size() >= kMaxPipelinePerConnection) continue;
      if (best == nullptr || conn->inflight.size() < best->inflight.size()) {
        best = conn;
      }
    }
    if (best == nullptr) break;  // all connecting or saturated: wait
    const std::shared_ptr<Op> op = pop_next();
    if (op == nullptr) break;
    AssignOp(state, best, op);
  }
  UpdateGauges(state);
}

void TcpNetwork::AssignOp(SiloState* state,
                          const std::shared_ptr<ClientConn>& conn,
                          const std::shared_ptr<Op>& op) {
  op->bound = conn.get();
  conn->inflight.push_back(op);
  // Depth at assignment time: how deep this request was pipelined behind
  // earlier in-flight ones on its connection.
  state->pipeline_depth_hist->Observe(
      static_cast<double>(conn->inflight.size()));
  // The writer shares the chunk refs; op->chunks keeps them for a retry.
  conn->writer.EnqueueFrameChunks(op->chunks);
  if (!conn->writer.Flush(conn->fd).ok()) {
    HandleConnFailure(state, conn,
                      Status::IOError("send failed on pooled connection"));
    return;
  }
  const uint32_t want =
      EPOLLIN | (conn->writer.has_pending() ? EPOLLOUT : 0u);
  if (want != conn->interest) {
    if (state->loop->UpdateFd(conn->fd, want).ok()) conn->interest = want;
  }
}

void TcpNetwork::DialConn(SiloState* state) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    const Status status =
        Status::IOError(std::string("socket: ") + std::strerror(errno));
    while (!state->queue.empty()) {
      const std::shared_ptr<Op> op = state->queue.front();
      state->queue.pop_front();
      FinishOp(state, op, status);
    }
    return;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(state->port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0 && errno != EINPROGRESS) {
    const Status status =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    // Dial failures fail every queued op as-is: a fresh attempt would
    // dial the same dead endpoint.
    while (!state->queue.empty()) {
      const std::shared_ptr<Op> op = state->queue.front();
      state->queue.pop_front();
      FinishOp(state, op, status);
    }
    return;
  }
  auto conn = std::make_shared<ClientConn>();
  conn->fd = fd;
  conn->state = ClientConn::kConnecting;
  state->conns.push_back(conn);
  const Status registered = state->loop->RegisterFd(
      fd, EPOLLOUT,
      [this, state, conn](uint32_t events) { OnConnEvent(state, conn, events); });
  if (!registered.ok()) {
    HandleConnFailure(state, conn, registered);
    return;
  }
  conn->interest = EPOLLOUT;
  if (options_.connect_timeout_ms > 0) {
    conn->connect_timer = state->loop->ScheduleTimerAfter(
        std::chrono::milliseconds(options_.connect_timeout_ms),
        [this, state, conn] {
          conn->connect_timer = 0;
          if (conn->closed || conn->state != ClientConn::kConnecting) return;
          HandleConnFailure(
              state, conn,
              Status::Unavailable("deadline exceeded: connecting to silo " +
                                  std::to_string(state->silo_id)));
        });
  }
}

void TcpNetwork::OnConnEvent(SiloState* state,
                             const std::shared_ptr<ClientConn>& conn,
                             uint32_t events) {
  if (conn->closed) return;
  if (conn->state == ClientConn::kConnecting) {
    int error = 0;
    socklen_t error_length = sizeof(error);
    if (::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &error, &error_length) <
            0 ||
        error != 0) {
      HandleConnFailure(
          state, conn,
          Status::Unavailable(std::string("connect: ") +
                              std::strerror(error != 0 ? error : errno)));
      return;
    }
    conn->state = ClientConn::kReady;
    SetNoDelay(conn->fd);
    if (conn->connect_timer != 0) {
      state->loop->CancelTimer(conn->connect_timer);
      conn->connect_timer = 0;
    }
    if (state->loop->UpdateFd(conn->fd, EPOLLIN).ok()) {
      conn->interest = EPOLLIN;
    }
    DispatchQueue(state);
    return;
  }
  if (events & EPOLLIN) {
    bool protocol_violation = false;
    const Status drained =
        conn->reader.Drain(conn->fd, [&](std::vector<uint8_t> payload) {
          if (conn->inflight.empty()) {
            protocol_violation = true;
            return false;
          }
          const std::shared_ptr<Op> op = conn->inflight.front();
          conn->inflight.pop_front();
          op->bound = nullptr;
          FinishOp(state, op, std::move(payload));
          return true;
        });
    if (protocol_violation) {
      HandleConnFailure(state, conn,
                        Status::IOError("unexpected response frame"));
      return;
    }
    if (!drained.ok()) {
      HandleConnFailure(state, conn, drained);
      return;
    }
    DispatchQueue(state);  // completed responses freed pipeline capacity
    if (conn->closed) return;
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    HandleConnFailure(state, conn, Status::Unavailable("connection reset"));
    return;
  }
  if (events & EPOLLOUT) {
    if (!conn->writer.Flush(conn->fd).ok()) {
      HandleConnFailure(state, conn,
                        Status::IOError("send failed on pooled connection"));
      return;
    }
    const uint32_t want =
        EPOLLIN | (conn->writer.has_pending() ? EPOLLOUT : 0u);
    if (want != conn->interest) {
      if (state->loop->UpdateFd(conn->fd, want).ok()) conn->interest = want;
    }
  }
}

void TcpNetwork::HandleConnFailure(SiloState* state,
                                   const std::shared_ptr<ClientConn>& conn,
                                   const Status& status) {
  if (conn->closed) return;
  const bool was_connecting = conn->state == ClientConn::kConnecting;
  const std::deque<std::shared_ptr<Op>> inflight = std::move(conn->inflight);
  conn->inflight.clear();
  RemoveConn(state, conn);

  // A transport error on one connection usually means the silo process
  // restarted, which invalidates every pooled connection to it at once —
  // close the idle ones so retries dial fresh instead of landing on
  // another stale socket.
  std::vector<std::shared_ptr<Op>> requeue;
  for (const std::shared_ptr<Op>& op : inflight) {
    if (op->finished) continue;
    op->bound = nullptr;
    if (op->attempts == 0) {
      op->attempts = 1;
      requeue.push_back(op);
    } else {
      FinishOp(state, op,
               Status::Unavailable("silo " + std::to_string(state->silo_id) +
                                   " unreachable after reconnect: " +
                                   status.ToString()));
    }
  }
  if (!requeue.empty()) {
    const std::vector<std::shared_ptr<ClientConn>> conns = state->conns;
    for (const std::shared_ptr<ClientConn>& other : conns) {
      if (!other->closed && other->state == ClientConn::kReady &&
          other->inflight.empty()) {
        RemoveConn(state, other);
      }
    }
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      state->queue.push_front(*it);
    }
  }
  if (was_connecting) {
    // Dial failure: every op waiting for a connection shares the
    // outcome — a fresh attempt would dial the same dead endpoint.
    while (!state->queue.empty()) {
      const std::shared_ptr<Op> op = state->queue.front();
      state->queue.pop_front();
      FinishOp(state, op, status);
    }
  }
  DispatchQueue(state);
}

void TcpNetwork::RemoveConn(SiloState* state,
                            const std::shared_ptr<ClientConn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->connect_timer != 0) {
    state->loop->CancelTimer(conn->connect_timer);
    conn->connect_timer = 0;
  }
  state->loop->DeregisterFd(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  state->conns.erase(
      std::remove(state->conns.begin(), state->conns.end(), conn),
      state->conns.end());
}

void TcpNetwork::UpdateGauges(SiloState* state) {
  size_t busy = 0;
  size_t unsent = 0;
  for (const std::shared_ptr<ClientConn>& conn : state->conns) {
    if (!conn->inflight.empty()) ++busy;
    unsent += conn->writer.pending_bytes();
  }
  state->open_gauge->Set(static_cast<double>(state->conns.size()));
  state->busy_gauge->Set(static_cast<double>(busy));
  state->backpressure_gauge->Set(static_cast<double>(unsent));
}

size_t TcpNetwork::num_silos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return silos_.size();
}

std::vector<int> TcpNetwork::silo_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  ids.reserve(silos_.size());
  for (const auto& [id, state] : silos_) ids.push_back(id);
  return ids;
}

}  // namespace fra
