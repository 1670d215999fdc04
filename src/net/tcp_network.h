#ifndef FRA_NET_TCP_NETWORK_H_
#define FRA_NET_TCP_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.h"
#include "net/reactor.h"
#include "util/result.h"

namespace fra {

class ThreadPool;

/// Serves one SiloEndpoint over TCP — the silo side of the paper's
/// deployment, where every data provider runs on its own machine.
///
/// The wire protocol is trivial framing: a 4-byte big-endian (network
/// byte order) length followed by the message payload (the same encoded
/// messages the in-process network carries). Requests on one connection
/// may be pipelined; responses come back in request order.
///
/// All connections are served by N single-threaded epoll event loops
/// (docs/architecture.md); handlers run on a fixed worker pool so the
/// loops never block on query execution. Thread usage is constant
/// regardless of connection count.
class TcpSiloServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port), starts serving
  /// `endpoint` (not owned; must outlive the server) until
  /// Stop()/destruction.
  static Result<std::unique_ptr<TcpSiloServer>> Start(SiloEndpoint* endpoint,
                                                      uint16_t port = 0);

  TcpSiloServer(const TcpSiloServer&) = delete;
  TcpSiloServer& operator=(const TcpSiloServer&) = delete;

  /// Stops accepting, closes all connections, joins all threads.
  ~TcpSiloServer();

  /// The bound port.
  uint16_t port() const { return port_; }

  /// Requests served so far (across all connections).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Accepted connections currently open.
  size_t open_connections() const;

  void Stop();

 private:
  struct Conn;  // per-connection state machine (tcp_network.cc)

  TcpSiloServer() = default;

  // All On*/Close methods run on the connection's loop.
  void OnAcceptReady();
  void AdoptConnection(int fd, EventLoop* loop);
  void OnConnEvent(const std::shared_ptr<Conn>& conn, uint32_t events);
  void DispatchRequest(const std::shared_ptr<Conn>& conn,
                       std::vector<uint8_t> request);
  void FlushReadyResponses(const std::shared_ptr<Conn>& conn);
  void UpdateConnInterest(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);

  SiloEndpoint* endpoint_ = nullptr;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};

  std::unique_ptr<Reactor> reactor_;
  EventLoop* accept_loop_ = nullptr;
  std::unique_ptr<ThreadPool> handler_pool_;
  mutable std::mutex conns_mu_;
  std::unordered_set<std::shared_ptr<Conn>> conns_;
};

/// The provider-side transport over real sockets.
///
/// Every silo's connections live on one event loop of the network's
/// reactor; Call/CallAsync submit an operation to that loop, which dials
/// non-blocking connections (up to 8 per silo), pipelines requests onto
/// them (up to 4096 per connection), and matches responses positionally.
/// Request and connect deadlines are timer-wheel entries on the loop —
/// 10k in-flight calls cost 10k wheel entries, not 10k blocked threads —
/// and a hung or unreachable silo yields Status::Unavailable within
/// Options::request_timeout_ms. A transport error retries the affected
/// operations once on a fresh connection (the silo process may have
/// restarted between calls); deadline expiry is terminal.
class TcpNetwork : public Network {
 public:
  struct Options {
    /// Time allowed for establishing one TCP connection, in
    /// milliseconds; <= 0 disables the bound.
    int connect_timeout_ms = 5000;
    /// Deadline for one whole Call — queueing, connect if needed,
    /// request write, response read — in milliseconds; <= 0 disables
    /// the bound (a hung silo then blocks the calling worker forever).
    int request_timeout_ms = 30000;
    /// Event-loop threads; 0 means Reactor::DefaultThreadCount().
    size_t reactor_threads = 0;
  };

  TcpNetwork() : TcpNetwork(Options()) {}
  explicit TcpNetwork(const Options& options);
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Registers a silo reachable at 127.0.0.1:`port` (e.g. a
  /// TcpSiloServer's port). No connection is made until the first Call.
  Status AddSilo(int silo_id, uint16_t port);

  const char* transport_name() const override { return "tcp"; }
  size_t num_silos() const override;
  std::vector<int> silo_ids() const override;

  /// The reactor driving every call.
  Reactor* reactor() override { return reactor_.get(); }

  const Options& options() const { return options_; }

 protected:
  Result<std::vector<uint8_t>> CallImpl(
      int silo_id, const std::vector<uint8_t>& request) override;
  void CallAsyncImpl(int silo_id, const std::vector<uint8_t>& request,
                     CallCallback done) override;
  /// The one send path: the chunks feed the frame writer's iovec queue
  /// as-is (one vectored send, no join).
  void CallAsyncChunksImpl(int silo_id, std::vector<BufferRef> chunks,
                           CallCallback done) override;

 private:
  struct Op;          // one in-flight call
  struct ClientConn;  // one non-blocking connection
  struct SiloState;   // one silo: its loop, queue, connections, gauges

  // Everything below runs on the silo's loop.
  void EnqueueOp(SiloState* state, const std::shared_ptr<Op>& op);
  void DispatchQueue(SiloState* state);
  void AssignOp(SiloState* state, const std::shared_ptr<ClientConn>& conn,
                const std::shared_ptr<Op>& op);
  void DialConn(SiloState* state);
  void OnConnEvent(SiloState* state, const std::shared_ptr<ClientConn>& conn,
                   uint32_t events);
  void HandleConnFailure(SiloState* state,
                         const std::shared_ptr<ClientConn>& conn,
                         const Status& status);
  void RemoveConn(SiloState* state, const std::shared_ptr<ClientConn>& conn);
  void FinishOp(SiloState* state, const std::shared_ptr<Op>& op,
                Result<std::vector<uint8_t>> outcome);
  void UpdateGauges(SiloState* state);

  const Options options_;
  std::unique_ptr<Reactor> reactor_;

  mutable std::mutex mu_;  // guards the map's structure
  std::unordered_map<int, std::unique_ptr<SiloState>> silos_;
};

}  // namespace fra

#endif  // FRA_NET_TCP_NETWORK_H_
