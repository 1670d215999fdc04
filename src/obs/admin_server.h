#ifndef FRA_OBS_ADMIN_SERVER_H_
#define FRA_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/result.h"

namespace fra {

class EventLoop;
class Reactor;

/// One admin-endpoint response: status line + content type + body.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse Text(std::string body, int status = 200) {
    HttpResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
  }
  static HttpResponse Json(std::string body, int status = 200) {
    HttpResponse response;
    response.status = status;
    response.content_type = "application/json";
    response.body = std::move(body);
    return response;
  }
};

/// Minimal embedded HTTP/1.0 admin server — the scrape/debug surface of
/// a deployed federation. Serves GET only, one request per connection
/// (Connection: close).
///
/// All connections are served from the server's own single-loop epoll
/// reactor (the same substrate as the TCP transport): non-blocking reads
/// accumulate the request head, responses are buffered and flushed as
/// the socket accepts them, and a per-connection timer drops clients
/// stalling past a 5 s I/O deadline — a stuck scraper holds one idle
/// connection's state, never a thread.
///
/// Built-in routes:
///   /metrics             Prometheus text exposition of the registry
///   /metrics.json        the same data as JSON
///   /tracez              recorded spans as a Chrome trace-event JSON array
///   /healthz             liveness (overridable via AddHandler)
///   /debug/logz(.json)   the structured-log ring, oldest first
///   /debug/profilez      collapsed profiler stacks; ?seconds=N[&hz=H]
///                        runs a fresh capture (blocking the serving
///                        loop for the window — use short windows in
///                        production)
///   /debug/profilez.json the same plus counters and the alloc profile
///
/// Every response carries an explicit Content-Type and Cache-Control:
/// no-store — scrapers never guess, caches never serve stale debug
/// state.
///
/// AddHandler registers additional paths (the federation layer installs
/// /healthz and /statusz via InstallFederationAdminHandlers). Handlers
/// run on the event loop serving the connection: they must be thread
/// safe and quick — a handler that blocks stalls every connection on
/// that loop.
class AdminServer {
 public:
  using Handler = std::function<HttpResponse()>;
  /// Handler variant receiving the request target's query string (the
  /// part after '?', possibly empty) — /debug/profilez?seconds=2 uses
  /// this to parametrise the capture.
  using QueryHandler = std::function<HttpResponse(const std::string& query)>;

  struct Options {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port.
    uint16_t port = 0;
  };

  /// Binds, registers with the event loop, and serves until
  /// Stop()/destruction.
  static Result<std::unique_ptr<AdminServer>> Start(const Options& options);
  static Result<std::unique_ptr<AdminServer>> Start() {
    return Start(Options{});
  }

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Stops accepting and closes all connections.
  ~AdminServer();

  /// The bound port.
  uint16_t port() const { return port_; }

  /// Registers (or replaces) the handler serving GET `path`. The path
  /// must start with '/'; query strings are stripped before matching
  /// (and handed to QueryHandler registrations).
  void AddHandler(const std::string& path, Handler handler);
  void AddHandler(const std::string& path, QueryHandler handler);

  /// Requests answered so far (any status).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  void Stop();

 private:
  struct HttpConn;  // per-connection state machine (admin_server.cc)

  AdminServer() = default;

  void OnAcceptReady();
  void AdoptConnection(int fd, EventLoop* loop);
  void OnConnEvent(const std::shared_ptr<HttpConn>& conn, uint32_t events);
  void OnReadable(const std::shared_ptr<HttpConn>& conn);
  void OnWritable(const std::shared_ptr<HttpConn>& conn);
  void CloseConn(const std::shared_ptr<HttpConn>& conn);
  HttpResponse Dispatch(const std::string& method, const std::string& path,
                        const std::string& query);
  void InstallBuiltinHandlers();

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};

  std::unique_ptr<Reactor> reactor_;
  EventLoop* accept_loop_ = nullptr;
  mutable std::mutex conns_mu_;
  std::unordered_set<std::shared_ptr<HttpConn>> conns_;

  mutable std::mutex handlers_mu_;
  std::map<std::string, QueryHandler> handlers_;
};

}  // namespace fra

#endif  // FRA_OBS_ADMIN_SERVER_H_
