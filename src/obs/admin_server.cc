#include "obs/admin_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/reactor.h"
#include "obs/profiler.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/trace.h"

namespace fra {
namespace {

// Requests whose head grows past this are dropped before the headers
// finish parsing — admin requests are a request line plus a handful of
// headers; anything larger is a confused or hostile client.
constexpr size_t kMaxRequestHeadBytes = 16 * 1024;

// Deadline for reading one request and writing its response: a scraper
// stalling past it is dropped, so it cannot pin connection state.
constexpr int kIoTimeoutMs = 5000;

// Accept backoff after resource exhaustion (EMFILE/ENFILE/...), matching
// the TCP transport's listener policy.
constexpr int kAcceptBackoffMs = 20;

const char* StatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::ostringstream out;
  out << "HTTP/1.0 " << response.status << " "
      << StatusReason(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      // Admin state is point-in-time: a cached /statusz or /debug/*
      // body is a lie by the next scrape.
      << "Cache-Control: no-store\r\n"
      << "Connection: close\r\n";
  if (response.status == 405) out << "Allow: GET\r\n";
  out << "\r\n" << response.body;
  return out.str();
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

/// "seconds=2&hz=97" -> the value of `key`, or `fallback` when absent or
/// unparsable.
double QueryParam(const std::string& query, const std::string& key,
                  double fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      try {
        return std::stod(query.substr(eq + 1, end - eq - 1));
      } catch (...) {
        return fallback;
      }
    }
    pos = end + 1;
  }
  return fallback;
}

/// /debug/profilez[.json]: with ?seconds=N the handler runs a fresh
/// blocking capture (optionally at ?hz=H); without arguments it returns
/// whatever the continuous profiler has accumulated so far.
HttpResponse Profilez(const std::string& query, bool json) {
  ContinuousProfiler& profiler = ContinuousProfiler::Get();
  const double seconds = QueryParam(query, "seconds", 0.0);
  if (seconds > 0.0) {
    ContinuousProfiler::Options options;
    options.hz = static_cast<int>(QueryParam(
        query, "hz", static_cast<double>(options.hz)));
    const Result<std::string> collapsed =
        profiler.ProfileFor(seconds, options);
    if (!collapsed.ok()) {
      return HttpResponse::Text(collapsed.status().ToString() + "\n", 503);
    }
    if (!json) return HttpResponse::Text(*collapsed);
    return HttpResponse::Json(profiler.RenderJson());
  }
  if (json) return HttpResponse::Json(profiler.RenderJson());
  std::string collapsed = profiler.Collapsed();
  if (collapsed.empty()) {
    collapsed =
        profiler.running()
            ? "no samples yet\n"
            : "profiler not running; GET /debug/profilez?seconds=N for a "
              "one-shot capture\n";
  }
  return HttpResponse::Text(std::move(collapsed));
}

}  // namespace

/// One scrape connection: accumulate the request head, then flush the
/// buffered response. Touched only from its loop thread; `closed` guards
/// against the io-deadline timer racing a completed close.
struct AdminServer::HttpConn {
  int fd = -1;
  EventLoop* loop = nullptr;
  std::string head;      // request bytes until the blank line
  std::string out;       // rendered response
  size_t out_offset = 0;
  bool writing = false;  // head complete, response queued
  uint32_t interest = EPOLLIN;
  uint64_t timer_id = 0;  // io_timeout deadline
  bool closed = false;
};

Result<std::unique_ptr<AdminServer>> AdminServer::Start(
    const Options& options) {
  std::unique_ptr<AdminServer> server(new AdminServer());
  server->InstallBuiltinHandlers();
  // Every scraped process carries its build provenance as a series.
  RegisterBuildInfoMetric();

  FRA_ASSIGN_OR_RETURN(const LoopbackListener listener,
                       ListenLoopback(options.port, 64));
  server->listen_fd_ = listener.fd;
  server->port_ = listener.port;

  // Scrape traffic is light; one loop thread is plenty.
  server->reactor_ = std::make_unique<Reactor>(1);
  server->accept_loop_ = server->reactor_->loop(0);
  AdminServer* raw = server.get();
  Status registered = Status::OK();
  server->accept_loop_->SubmitAndWait([raw, &registered] {
    registered = raw->accept_loop_->RegisterFd(
        raw->listen_fd_, EPOLLIN, [raw](uint32_t) { raw->OnAcceptReady(); });
  });
  FRA_RETURN_NOT_OK(registered);
  return server;
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Stop() {
  if (stopping_.exchange(true)) return;
  if (accept_loop_ != nullptr) {
    accept_loop_->SubmitAndWait([this] {
      if (listen_fd_ >= 0) {
        accept_loop_->DeregisterFd(listen_fd_);
        CloseFd(&listen_fd_);
      }
    });
  }
  std::vector<std::shared_ptr<HttpConn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.assign(conns_.begin(), conns_.end());
  }
  for (const std::shared_ptr<HttpConn>& conn : conns) {
    conn->loop->SubmitAndWait([this, conn] { CloseConn(conn); });
  }
  if (reactor_) reactor_->Stop();
}

void AdminServer::AddHandler(const std::string& path, Handler handler) {
  AddHandler(path, QueryHandler([handler = std::move(handler)](
                       const std::string&) { return handler(); }));
}

void AdminServer::AddHandler(const std::string& path, QueryHandler handler) {
  FRA_CHECK(!path.empty() && path[0] == '/')
      << "handler path must start with /: " << path;
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[path] = std::move(handler);
}

void AdminServer::InstallBuiltinHandlers() {
  AddHandler("/metrics", [] {
    HttpResponse response =
        HttpResponse::Text(MetricsRegistry::Default().ExportPrometheus());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  });
  AddHandler("/metrics.json", [] {
    return HttpResponse::Json(MetricsRegistry::Default().ExportJson());
  });
  AddHandler("/tracez", [] {
    return HttpResponse::Json(Tracer::Get().ExportChromeTrace());
  });
  // Plain liveness; the federation glue overrides this with real
  // readiness (503 while any silo is down).
  AddHandler("/healthz", [] { return HttpResponse::Text("ok\n"); });
  AddHandler("/debug/logz",
             [] { return HttpResponse::Text(LogSink::Get().RenderText()); });
  AddHandler("/debug/logz.json",
             [] { return HttpResponse::Json(LogSink::Get().RenderJson()); });
  AddHandler("/debug/profilez", QueryHandler([](const std::string& query) {
               return Profilez(query, /*json=*/false);
             }));
  AddHandler("/debug/profilez.json",
             QueryHandler([](const std::string& query) {
               return Profilez(query, /*json=*/true);
             }));
}

void AdminServer::OnAcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      EventLoop* loop = reactor_->NextLoop();
      loop->Submit([this, fd, loop] { AdoptConnection(fd, loop); });
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    switch (ClassifyAcceptErrno(errno)) {
      case AcceptAction::kRetry:
        continue;
      case AcceptAction::kBackoff:
        (void)accept_loop_->UpdateFd(listen_fd_, 0);
        accept_loop_->ScheduleTimerAfter(
            std::chrono::milliseconds(kAcceptBackoffMs), [this] {
              if (!stopping_.load() && listen_fd_ >= 0) {
                (void)accept_loop_->UpdateFd(listen_fd_, EPOLLIN);
              }
            });
        return;
      case AcceptAction::kFatal:
        accept_loop_->DeregisterFd(listen_fd_);
        return;
    }
  }
}

void AdminServer::AdoptConnection(int fd, EventLoop* loop) {
  auto conn = std::make_shared<HttpConn>();
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
      fd, EPOLLIN,
      [this, conn](uint32_t events) { OnConnEvent(conn, events); });
  if (!registered.ok()) {
    FRA_LOG(WARN) << "admin server dropped an accepted connection: "
                  << registered.ToString();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn);
    ::close(fd);
    return;
  }
  conn->timer_id = loop->ScheduleTimerAfter(
      std::chrono::milliseconds(kIoTimeoutMs), [this, conn] {
        conn->timer_id = 0;
        CloseConn(conn);  // stalled scraper: drop it
      });
}

void AdminServer::OnConnEvent(const std::shared_ptr<HttpConn>& conn,
                              uint32_t events) {
  if (conn->closed) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(conn);
    return;
  }
  if ((events & EPOLLIN) && !conn->writing) OnReadable(conn);
  if (conn->closed) return;
  if (conn->writing) OnWritable(conn);
}

void AdminServer::OnReadable(const std::shared_ptr<HttpConn>& conn) {
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(conn);
      return;
    }
    if (n == 0) {
      // Closed before the blank line: nothing to answer.
      CloseConn(conn);
      return;
    }
    conn->head.append(buffer, static_cast<size_t>(n));
    if (conn->head.size() > kMaxRequestHeadBytes) {
      CloseConn(conn);
      return;
    }
    if (conn->head.find("\r\n\r\n") != std::string::npos ||
        conn->head.find("\n\n") != std::string::npos) {
      break;
    }
  }
  // Request line: METHOD SP TARGET SP VERSION. The target's query
  // string does not participate in routing. We never consume a body:
  // every admin route is GET.
  std::istringstream line(conn->head);
  std::string method, target;
  line >> method >> target;
  std::string query;
  const size_t question = target.find('?');
  if (question != std::string::npos) {
    query = target.substr(question + 1);
    target.resize(question);
  }
  const HttpResponse response = Dispatch(method, target, query);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  conn->out = RenderResponse(response);
  conn->writing = true;
  OnWritable(conn);
}

void AdminServer::OnWritable(const std::shared_ptr<HttpConn>& conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Socket full: wait for EPOLLOUT (the io deadline still bounds
        // how long a non-draining scraper can hold the connection).
        if (conn->interest != EPOLLOUT &&
            conn->loop->UpdateFd(conn->fd, EPOLLOUT).ok()) {
          conn->interest = EPOLLOUT;
        }
        return;
      }
      CloseConn(conn);
      return;
    }
    conn->out_offset += static_cast<size_t>(n);
  }
  CloseConn(conn);  // one exchange per connection (Connection: close)
}

void AdminServer::CloseConn(const std::shared_ptr<HttpConn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  if (conn->timer_id != 0) {
    conn->loop->CancelTimer(conn->timer_id);
    conn->timer_id = 0;
  }
  conn->loop->DeregisterFd(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn);
}

HttpResponse AdminServer::Dispatch(const std::string& method,
                                   const std::string& path,
                                   const std::string& query) {
  if (method != "GET") {
    return HttpResponse::Text("method not allowed\n", 405);
  }
  QueryHandler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    const auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    return HttpResponse::Text("not found: " + path + "\n", 404);
  }
  return handler(query);
}

}  // namespace fra
