// The epoll reactor core (timer wheel, event loop, frame state machines,
// accept-errno policy) plus the network behaviours the reactor exists
// for: deadlines firing off the wheel, partial-write backpressure with a
// slow reader, Stop() during in-flight requests, connection churn
// returning every connection and fd, and deadline flushes of the
// RequestCoalescer running off the reactor's timer wheel.

#include "net/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "federation/silo.h"
#include "net/message.h"
#include "net/request_coalescer.h"
#include "net/tcp_network.h"
#include "tests/test_util.h"
#include "util/metrics.h"

namespace fra {
namespace {

using Clock = TimerWheel::Clock;

const Rect kDomain{{0, 0}, {40, 40}};

class EchoEndpoint : public SiloEndpoint {
 public:
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    ++calls;
    return request;
  }
  std::atomic<int> calls{0};
};

// Adds a fixed service delay in front of `inner`.
class DelayingEndpoint : public SiloEndpoint {
 public:
  DelayingEndpoint(SiloEndpoint* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->HandleMessage(request);
  }

 private:
  SiloEndpoint* inner_;
  const int delay_ms_;
};

// Once armed, blocks every request until Release() — a hung silo whose
// server handler threads the test can unblock at teardown.
class HangingEndpoint : public SiloEndpoint {
 public:
  explicit HangingEndpoint(SiloEndpoint* inner) : inner_(inner) {}
  ~HangingEndpoint() override { Release(); }

  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override {
    if (armed_.load()) {
      std::unique_lock<std::mutex> lock(mu_);
      released_cv_.wait(lock, [this] { return released_; });
    }
    return inner_->HandleMessage(request);
  }

  void Arm() { armed_.store(true); }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  SiloEndpoint* inner_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

// --- Raw-socket helpers (blocking client side) -----------------------------

int DialBlocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)),
      0)
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    p += n;
    size -= static_cast<size_t>(n);
  }
}

void SendRawFrame(int fd, const std::vector<uint8_t>& payload) {
  const uint32_t length = htonl(static_cast<uint32_t>(payload.size()));
  SendAll(fd, &length, sizeof(length));
  if (!payload.empty()) SendAll(fd, payload.data(), payload.size());
}

void RecvAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    p += n;
    size -= static_cast<size_t>(n);
  }
}

std::vector<uint8_t> RecvRawFrame(int fd) {
  uint32_t wire_length = 0;
  RecvAll(fd, &wire_length, sizeof(wire_length));
  std::vector<uint8_t> payload(ntohl(wire_length));
  if (!payload.empty()) RecvAll(fd, payload.data(), payload.size());
  return payload;
}

// --- TimerWheel ------------------------------------------------------------

TEST(TimerWheelTest, FiresAtDeadlineNeverEarly) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  bool fired = false;
  wheel.ScheduleAt(start + std::chrono::milliseconds(5),
                   [&fired] { fired = true; });
  wheel.Advance(start + std::chrono::milliseconds(4));
  EXPECT_FALSE(fired);  // one tick short of the deadline
  wheel.Advance(start + std::chrono::milliseconds(6));
  EXPECT_TRUE(fired);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, FiresInDeadlineOrderAcrossSlots) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  std::vector<int> order;
  wheel.ScheduleAt(start + std::chrono::milliseconds(30),
                   [&order] { order.push_back(30); });
  wheel.ScheduleAt(start + std::chrono::milliseconds(10),
                   [&order] { order.push_back(10); });
  wheel.ScheduleAt(start + std::chrono::milliseconds(20),
                   [&order] { order.push_back(20); });
  wheel.Advance(start + std::chrono::milliseconds(40));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 20);
  EXPECT_EQ(order[2], 30);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  bool fired = false;
  const uint64_t id = wheel.ScheduleAt(start + std::chrono::milliseconds(5),
                                       [&fired] { fired = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // already gone
  wheel.Advance(start + std::chrono::milliseconds(50));
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, DeadlineBeyondOneWheelSpanWaitsForItsRound) {
  // 512 slots x 1 ms tick: a 600 ms deadline shares a slot with an
  // earlier round and must not fire when the wheel first passes its
  // slot.
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  bool fired = false;
  wheel.ScheduleAt(start + std::chrono::milliseconds(600),
                   [&fired] { fired = true; });
  wheel.Advance(start + std::chrono::milliseconds(550));
  EXPECT_FALSE(fired);
  wheel.Advance(start + std::chrono::milliseconds(601));
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, NextTimeoutTracksEarliestDeadline) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  EXPECT_EQ(wheel.NextTimeoutMs(start), -1);
  wheel.ScheduleAt(start + std::chrono::milliseconds(50), [] {});
  const int timeout = wheel.NextTimeoutMs(start);
  EXPECT_GT(timeout, 0);
  EXPECT_LE(timeout, 51);
  wheel.Advance(start + std::chrono::milliseconds(60));
  EXPECT_EQ(wheel.NextTimeoutMs(start + std::chrono::milliseconds(60)), -1);
}

TEST(TimerWheelTest, CallbacksMayScheduleMoreTimers) {
  const Clock::time_point start = Clock::now();
  TimerWheel wheel(start);
  bool second_fired = false;
  wheel.ScheduleAt(start + std::chrono::milliseconds(5), [&] {
    wheel.ScheduleAt(start + std::chrono::milliseconds(10),
                     [&second_fired] { second_fired = true; });
  });
  wheel.Advance(start + std::chrono::milliseconds(6));
  EXPECT_FALSE(second_fired);
  wheel.Advance(start + std::chrono::milliseconds(11));
  EXPECT_TRUE(second_fired);
}

// --- Accept errno policy ---------------------------------------------------

TEST(AcceptErrnoTest, TransientResourceAndFatalClassesAreDistinct) {
  // Per-connection transients: keep accepting. The old loop returned on
  // ECONNABORTED, silently killing the server on one aborted handshake.
  EXPECT_EQ(ClassifyAcceptErrno(EINTR), AcceptAction::kRetry);
  EXPECT_EQ(ClassifyAcceptErrno(ECONNABORTED), AcceptAction::kRetry);
  // Resource exhaustion: back off briefly, keep the listener alive.
  EXPECT_EQ(ClassifyAcceptErrno(EMFILE), AcceptAction::kBackoff);
  EXPECT_EQ(ClassifyAcceptErrno(ENFILE), AcceptAction::kBackoff);
  EXPECT_EQ(ClassifyAcceptErrno(ENOBUFS), AcceptAction::kBackoff);
  EXPECT_EQ(ClassifyAcceptErrno(ENOMEM), AcceptAction::kBackoff);
  // The listening socket itself is gone.
  EXPECT_EQ(ClassifyAcceptErrno(EBADF), AcceptAction::kFatal);
  EXPECT_EQ(ClassifyAcceptErrno(EINVAL), AcceptAction::kFatal);
  EXPECT_EQ(ClassifyAcceptErrno(ENOTSOCK), AcceptAction::kFatal);
}

// --- Frame state machines --------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
    EXPECT_TRUE(SetNonBlocking(a).ok());
    EXPECT_TRUE(SetNonBlocking(b).ok());
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(FrameMachineTest, WriterAndReaderRoundTripAcrossPartialIo) {
  SocketPair pair;
  // Small buffers force EAGAIN mid-frame: the partial-write and
  // partial-read paths both engage.
  const int small = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(pair.b, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::vector<std::vector<uint8_t>> sent;
  sent.push_back({});  // empty frame
  sent.push_back({1, 2, 3, 4, 5});
  sent.emplace_back(300 * 1024);
  for (size_t i = 0; i < sent.back().size(); ++i) {
    sent.back()[i] = static_cast<uint8_t>(i * 31);
  }

  FrameWriter writer;
  for (const auto& frame : sent) writer.EnqueueFrame(frame);
  EXPECT_TRUE(writer.has_pending());

  FrameReader reader;
  std::vector<std::vector<uint8_t>> received;
  bool saw_partial_write = false;
  for (int spin = 0; spin < 100000 && received.size() < sent.size(); ++spin) {
    ASSERT_TRUE(writer.Flush(pair.a).ok());
    if (writer.has_pending()) saw_partial_write = true;
    const Status drained =
        reader.Drain(pair.b, [&received](std::vector<uint8_t> payload) {
          received.push_back(std::move(payload));
          return true;
        });
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  }
  EXPECT_TRUE(saw_partial_write);
  EXPECT_FALSE(writer.has_pending());
  EXPECT_EQ(writer.pending_bytes(), 0u);
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(received[i], sent[i]);
}

TEST(FrameMachineTest, ReaderRejectsOversizedLengthPrefix) {
  SocketPair pair;
  const uint32_t huge = htonl(kMaxFrameBytes + 1);
  ASSERT_EQ(::send(pair.a, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  FrameReader reader;
  const Status drained =
      reader.Drain(pair.b, [](std::vector<uint8_t>) { return true; });
  EXPECT_TRUE(drained.IsOutOfRange()) << drained.ToString();
}

TEST(FrameMachineTest, SinkFalsePausesDrainWithoutLosingFrames) {
  SocketPair pair;
  FrameWriter writer;
  writer.EnqueueFrame({1});
  writer.EnqueueFrame({2});
  ASSERT_TRUE(writer.Flush(pair.a).ok());
  ASSERT_FALSE(writer.has_pending());

  FrameReader reader;
  std::vector<uint8_t> seen;
  // Backpressure: the sink accepts one frame and pauses the drain.
  ASSERT_TRUE(reader
                  .Drain(pair.b,
                         [&seen](std::vector<uint8_t> payload) {
                           seen.push_back(payload[0]);
                           return false;
                         })
                  .ok());
  EXPECT_EQ(seen, std::vector<uint8_t>({1}));
  ASSERT_TRUE(reader
                  .Drain(pair.b,
                         [&seen](std::vector<uint8_t> payload) {
                           seen.push_back(payload[0]);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen, std::vector<uint8_t>({1, 2}));
}

TEST(FrameMachineTest, EmptyPayloadFrameAccountsHeaderOnly) {
  SocketPair pair;
  FrameWriter writer;
  writer.EnqueueFrame({});
  // A zero-length payload is a legal frame: exactly the 4-byte length
  // prefix is pending, nothing more.
  EXPECT_TRUE(writer.has_pending());
  EXPECT_EQ(writer.pending_bytes(), 4u);
  ASSERT_TRUE(writer.Flush(pair.a).ok());
  EXPECT_FALSE(writer.has_pending());
  EXPECT_EQ(writer.pending_bytes(), 0u);

  FrameReader reader;
  std::vector<std::vector<uint8_t>> received;
  ASSERT_TRUE(reader
                  .Drain(pair.b,
                         [&received](std::vector<uint8_t> payload) {
                           received.push_back(std::move(payload));
                           return true;
                         })
                  .ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_TRUE(received[0].empty());
}

TEST(FrameMachineTest, PendingBytesTracksEnqueueAndFlush) {
  SocketPair pair;
  FrameWriter writer;
  EXPECT_EQ(writer.pending_bytes(), 0u);
  writer.EnqueueFrame({1, 2, 3});
  EXPECT_EQ(writer.pending_bytes(), 4u + 3u);
  writer.EnqueueFrame(std::vector<uint8_t>(100, 7));
  EXPECT_EQ(writer.pending_bytes(), 4u + 3u + 4u + 100u);
  ASSERT_TRUE(writer.Flush(pair.a).ok());
  EXPECT_EQ(writer.pending_bytes(), 0u);
  EXPECT_FALSE(writer.has_pending());
}

TEST(FrameMachineTest, ChunkedFrameGathersAcrossSegments) {
  SocketPair pair;
  const int small = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(pair.b, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  // One frame assembled from many scattered segments, interleaved with
  // contiguous frames — the receiver must see identical bytes either way.
  std::vector<uint8_t> head = {0xAA, 0xBB};
  std::vector<uint8_t> mid(64 * 1024);
  for (size_t i = 0; i < mid.size(); ++i) mid[i] = static_cast<uint8_t>(i * 7);
  std::vector<uint8_t> tail = {0xCC};
  std::vector<uint8_t> expected;
  expected.insert(expected.end(), head.begin(), head.end());
  expected.insert(expected.end(), mid.begin(), mid.end());
  expected.insert(expected.end(), tail.begin(), tail.end());

  FrameWriter writer;
  writer.EnqueueFrame({9, 9});
  std::vector<BufferRef> chunks;
  chunks.push_back(BufferRef::Wrap(std::move(head)));
  chunks.push_back(BufferRef::Wrap(std::move(mid)));
  chunks.push_back(BufferRef::Wrap({}));  // empty segments are skipped
  chunks.push_back(BufferRef::Wrap(std::move(tail)));
  writer.EnqueueFrameChunks(chunks);
  EXPECT_EQ(writer.pending_bytes(), 4u + 2u + 4u + expected.size());

  FrameReader reader;
  std::vector<std::vector<uint8_t>> received;
  bool saw_partial = false;
  for (int spin = 0; spin < 100000 && received.size() < 2; ++spin) {
    ASSERT_TRUE(writer.Flush(pair.a).ok());
    if (writer.has_pending()) saw_partial = true;
    ASSERT_TRUE(reader
                    .Drain(pair.b,
                           [&received](std::vector<uint8_t> payload) {
                             received.push_back(std::move(payload));
                             return true;
                           })
                    .ok());
  }
  EXPECT_TRUE(saw_partial);  // SO_SNDBUF forced at least one partial writev
  EXPECT_FALSE(writer.has_pending());
  EXPECT_EQ(writer.pending_bytes(), 0u);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], (std::vector<uint8_t>{9, 9}));
  EXPECT_EQ(received[1], expected);
}

TEST(FrameMachineTest, ReaderReportsCleanCloseAsUnavailable) {
  SocketPair pair;
  ::close(pair.a);
  pair.a = -1;
  FrameReader reader;
  const Status drained =
      reader.Drain(pair.b, [](std::vector<uint8_t>) { return true; });
  EXPECT_TRUE(drained.IsUnavailable()) << drained.ToString();
}

// --- EventLoop -------------------------------------------------------------

TEST(EventLoopTest, RunsSubmittedTasksAndTimers) {
  EventLoop loop;
  std::thread runner([&loop] { loop.Run(); });

  std::atomic<int> counter{0};
  ASSERT_TRUE(loop.SubmitAndWait([&counter] { ++counter; }));
  EXPECT_EQ(counter.load(), 1);

  // Timers are loop-thread-only: arm from a submitted task.
  std::promise<void> fired;
  ASSERT_TRUE(loop.Submit([&loop, &fired] {
    loop.ScheduleTimerAfter(std::chrono::milliseconds(10),
                            [&fired] { fired.set_value(); });
  }));
  EXPECT_EQ(fired.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  loop.Stop();
  runner.join();
}

TEST(EventLoopTest, PendingTasksDrainAfterStop) {
  EventLoop loop;
  std::thread runner([&loop] { loop.Run(); });
  ASSERT_TRUE(loop.SubmitAndWait([] {}));  // loop is live

  std::atomic<bool> ran{false};
  ASSERT_TRUE(loop.Submit([&ran] { ran.store(true); }));
  loop.Stop();
  runner.join();
  // A task accepted before Stop() is never silently lost.
  EXPECT_TRUE(ran.load());
  // After exit, submissions are refused (not silently dropped).
  EXPECT_FALSE(loop.Submit([] {}));
  EXPECT_FALSE(loop.SubmitAndWait([] {}));
}

TEST(ReactorTest, StopIsIdempotentAndJoinsLoops) {
  Reactor reactor(2);
  EXPECT_EQ(reactor.num_loops(), 2u);
  EXPECT_NE(reactor.NextLoop(), nullptr);
  std::atomic<int> ran{0};
  EXPECT_TRUE(reactor.loop(0)->SubmitAndWait([&ran] { ++ran; }));
  EXPECT_TRUE(reactor.loop(1)->SubmitAndWait([&ran] { ++ran; }));
  EXPECT_EQ(ran.load(), 2);
  reactor.Stop();
  reactor.Stop();  // idempotent
}

// --- Send-side frame guard -------------------------------------------------

TEST(FrameGuardTest, PayloadAtLimitPassesOversizedRejected) {
  EXPECT_TRUE(ValidateFramePayloadSize(0).ok());
  EXPECT_TRUE(ValidateFramePayloadSize(kMaxFrameBytes).ok());
  const Status over =
      ValidateFramePayloadSize(static_cast<size_t>(kMaxFrameBytes) + 1);
  EXPECT_TRUE(over.IsOutOfRange()) << over.ToString();
  // The u32-truncation hazard: 4 GiB + 1 byte would htonl-wrap to 1.
  const Status wrap = ValidateFramePayloadSize((1ull << 32) + 1);
  EXPECT_TRUE(wrap.IsOutOfRange()) << wrap.ToString();
}

// --- Reactor-served networking behaviours ----------------------------------

TEST(ReactorNetTest, DeadlineFiresViaTimerWheelOnHungSilo) {
  EchoEndpoint echo;
  HangingEndpoint hanging(&echo);
  auto server = TcpSiloServer::Start(&hanging).ValueOrDie();

  TcpNetwork::Options options;
  options.request_timeout_ms = 200;
  TcpNetwork network(options);
  ASSERT_NE(network.reactor(), nullptr);
  ASSERT_TRUE(network.AddSilo(7, server->port()).ok());

  hanging.Arm();
  const auto start = std::chrono::steady_clock::now();
  const auto response = network.Call(7, {0x42});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable())
      << response.status().ToString();
  // The wheel fired the deadline: well before any blocking-read bound,
  // and not before the configured 200 ms.
  EXPECT_GE(elapsed, std::chrono::milliseconds(150));
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  hanging.Release();  // unblock the server's handler thread
}

TEST(ReactorNetTest, PartialWriteBackpressureWithSlowReader) {
  EchoEndpoint echo;
  auto server = TcpSiloServer::Start(&echo).ValueOrDie();

  // A scraper-shaped client: tiny receive window, sends a burst of
  // pipelined requests, then reads nothing for a while. The server must
  // buffer partial writes for this connection without stalling others.
  // A modest receive buffer keeps the client's window far smaller than
  // the response volume, so the server's writer must buffer (without
  // dropping into TCP zero-window persist-timer territory, which would
  // make the drain below crawl).
  const int slow_fd = DialBlocking(server->port());
  const int small = 32 * 1024;
  ::setsockopt(slow_fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  const size_t kFrames = 24;
  std::vector<uint8_t> payload(64 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  for (size_t i = 0; i < kFrames; ++i) {
    payload[0] = static_cast<uint8_t>(i);
    SendRawFrame(slow_fd, payload);
  }

  // While the slow connection's responses sit buffered server-side, a
  // second connection gets served promptly — the loop is not blocked on
  // the stalled writer.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int fast_fd = DialBlocking(server->port());
  SendRawFrame(fast_fd, {9, 9, 9});
  EXPECT_EQ(RecvRawFrame(fast_fd), std::vector<uint8_t>({9, 9, 9}));
  ::close(fast_fd);

  // Now drain slowly; every buffered response must arrive intact and in
  // order.
  for (size_t i = 0; i < kFrames; ++i) {
    const std::vector<uint8_t> response = RecvRawFrame(slow_fd);
    payload[0] = static_cast<uint8_t>(i);
    ASSERT_EQ(response, payload) << "frame " << i;
  }
  ::close(slow_fd);
  EXPECT_EQ(echo.calls.load(), static_cast<int>(kFrames) + 1);
}

TEST(ReactorNetTest, StopDuringInFlightRequestsNeverLosesACallback) {
  EchoEndpoint echo;
  DelayingEndpoint slow(&echo, 40);
  auto server = TcpSiloServer::Start(&slow).ValueOrDie();

  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(1, server->port()).ok());

  const int kCalls = 8;
  std::atomic<int> completed{0};
  std::promise<void> all_done;
  for (int i = 0; i < kCalls; ++i) {
    network.CallAsync(1, {static_cast<uint8_t>(i)},
                      [&completed, &all_done](Result<std::vector<uint8_t>>) {
                        if (++completed == kCalls) all_done.set_value();
                      });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->Stop();  // requests are mid-handler right now

  // Every callback fires exactly once — served before the socket closed,
  // or failed Unavailable — and nothing hangs.
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(completed.load(), kCalls);
}

TEST(ReactorNetTest, ConnectionChurnReturnsConnectionsAndFds) {
  EchoEndpoint echo;
  auto server = TcpSiloServer::Start(&echo).ValueOrDie();
  const size_t baseline_fds = testing::OpenFdCount();

  // 50 connect/exchange/close cycles: each accepted connection must be
  // closed and forgotten once its peer goes away.
  for (int i = 0; i < 50; ++i) {
    const std::vector<uint8_t> frame = {static_cast<uint8_t>(i)};
    const int fd = DialBlocking(server->port());
    SendRawFrame(fd, frame);
    EXPECT_EQ(RecvRawFrame(fd), frame);
    ::close(fd);
  }
  // The loops see the last closes asynchronously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server->open_connections() != 0 ||
          testing::OpenFdCount() != baseline_fds) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->open_connections(), 0u);
  EXPECT_EQ(testing::OpenFdCount(), baseline_fds);
  EXPECT_EQ(echo.calls.load(), 50);
}

TEST(ReactorNetTest, CoalescerDeadlineFlushRunsOffTheReactor) {
  const auto deadline_flushes = [] {
    return MetricsRegistry::Default()
        .GetCounter("fra_batch_flushes_total", {{"reason", "deadline"}})
        .Value();
  };

  Silo::Options silo_options;
  silo_options.grid_spec.domain = kDomain;
  silo_options.grid_spec.cell_length = 2.0;
  auto silo =
      Silo::Create(3, testing::RandomObjects(2000, kDomain, 9), silo_options)
          .ValueOrDie();
  auto server = TcpSiloServer::Start(silo.get()).ValueOrDie();
  TcpNetwork network;
  ASSERT_TRUE(network.AddSilo(3, server->port()).ok());
  ASSERT_NE(network.reactor(), nullptr);

  RequestCoalescer::Options options;
  options.max_batch_size = 64;  // size trigger can never fire here
  options.max_batch_delay_us = 1000;
  RequestCoalescer coalescer(&network, options);

  AggregateRequest request;
  request.range = QueryRange::MakeRect({5, 5}, {30, 30});
  request.mode = LocalQueryMode::kExact;
  const std::vector<uint8_t> encoded = request.Encode();

  const uint64_t before = deadline_flushes();
  // A lone request has no batch to ride: only the reactor's timer wheel
  // can flush it (the coalescer owns no threads).
  const auto coalesced = coalescer.Call(3, encoded);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status().ToString();
  EXPECT_GE(deadline_flushes(), before + 1);

  // Batching is a wire-path optimisation only: the response bytes match
  // an un-coalesced exchange exactly.
  const auto direct = network.Call(3, encoded);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(*coalesced, *direct);
}

}  // namespace
}  // namespace fra
