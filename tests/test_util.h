#ifndef FRA_TESTS_TEST_UTIL_H_
#define FRA_TESTS_TEST_UTIL_H_

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "geo/range.h"
#include "geo/rect.h"
#include "index/grid_index.h"
#include "util/random.h"
#include "util/result.h"

namespace fra {
namespace testing {

/// Uniform random objects over `domain` with integer measures in [0, 4].
inline ObjectSet RandomObjects(size_t n, const Rect& domain, uint64_t seed) {
  Rng rng(seed);
  ObjectSet objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SpatialObject o;
    o.location = {rng.NextDouble(domain.min.x, domain.max.x),
                  rng.NextDouble(domain.min.y, domain.max.y)};
    o.measure = static_cast<double>(rng.NextInt64(0, 4));
    objects.push_back(o);
  }
  return objects;
}

/// Clustered random objects: `clusters` Gaussian blobs plus 10% uniform.
inline ObjectSet ClusteredObjects(size_t n, const Rect& domain, size_t clusters,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centers(clusters);
  for (Point& c : centers) {
    c = {rng.NextDouble(domain.min.x, domain.max.x),
         rng.NextDouble(domain.min.y, domain.max.y)};
  }
  const double sigma = domain.Width() / 30.0;
  ObjectSet objects;
  objects.reserve(n);
  while (objects.size() < n) {
    SpatialObject o;
    if (rng.NextBernoulli(0.1) || clusters == 0) {
      o.location = {rng.NextDouble(domain.min.x, domain.max.x),
                    rng.NextDouble(domain.min.y, domain.max.y)};
    } else {
      const Point& c = centers[rng.NextUint64(clusters)];
      o.location = {rng.NextGaussian(c.x, sigma), rng.NextGaussian(c.y, sigma)};
      if (!domain.Contains(o.location)) continue;
    }
    o.measure = static_cast<double>(rng.NextInt64(0, 4));
    objects.push_back(o);
  }
  return objects;
}

/// A random circle or square query inside `domain`.
inline QueryRange RandomRange(const Rect& domain, double max_radius,
                              bool circle, Rng* rng) {
  const Point center{rng->NextDouble(domain.min.x, domain.max.x),
                     rng->NextDouble(domain.min.y, domain.max.y)};
  const double radius = rng->NextDouble(max_radius / 10.0, max_radius);
  if (circle) return QueryRange::MakeCircle(center, radius);
  return QueryRange::MakeRect({center.x - radius, center.y - radius},
                              {center.x + radius, center.y + radius});
}

/// One object with measure 1, 2 or 3 on every point of the lattice of
/// spacing `step` over `domain`, edges included. With a step dividing the
/// cell length, many objects sit on cell edges and corners.
inline ObjectSet LatticeObjects(const Rect& domain, double step) {
  ObjectSet objects;
  for (double x = domain.min.x; x <= domain.max.x; x += step) {
    for (double y = domain.min.y; y <= domain.max.y; y += step) {
      objects.push_back({{x, y}, 1.0 + static_cast<double>(objects.size() % 3)});
    }
  }
  return objects;
}

/// A random rectangle inside `domain` widened outward to the grid lines of
/// `spec`: its edges run along cell edges.
inline QueryRange RandomGridAlignedRect(const GridIndex::GridSpec& spec,
                                        double max_half_side, Rng* rng) {
  const Rect box = RandomRange(spec.domain, max_half_side, false, rng).rect();
  const auto snap = [&spec](double v, double origin, bool up) {
    const double cells = (v - origin) / spec.cell_length;
    return origin + (up ? std::ceil(cells) : std::floor(cells)) * spec.cell_length;
  };
  return QueryRange::MakeRect(
      {snap(box.min.x, spec.domain.min.x, false),
       snap(box.min.y, spec.domain.min.y, false)},
      {snap(box.max.x, spec.domain.min.x, true),
       snap(box.max.y, spec.domain.min.y, true)});
}

/// Summary of the objects within `range` that `grid` assigns to `cell`
/// (GridIndex::CellOf): the reference answer for one cell of a per-cell
/// range aggregation.
inline AggregateSummary CellReference(const ObjectSet& objects,
                                      const GridIndex& grid, size_t cell,
                                      const QueryRange& range) {
  return SummarizeIf(objects, [&](const Point& p) {
    return grid.CellOf(p) == cell && range.Contains(p);
  });
}

/// File descriptors this process holds open (the entries of
/// /proc/self/fd): the leak check of the socket tests.
inline size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// One blocking HTTP GET against 127.0.0.1:`port`, full response
/// (status line, headers and body) returned raw. Deliberately simple —
/// the admin server closes the connection after one response, so
/// read-until-EOF is the whole protocol.
struct HttpReply {
  int status = 0;
  std::string headers;
  std::string body;
};

inline Result<HttpReply> HttpGet(uint16_t port, const std::string& target,
                                 const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) < 0) {
    ::close(fd);
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  const std::string request = method + " " + target +
                              " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("send");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      ::close(fd);
      return Status::IOError("recv");
    }
    if (n == 0) break;
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  HttpReply reply;
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IOError("malformed response: " + raw);
  }
  reply.headers = raw.substr(0, head_end);
  reply.body = raw.substr(head_end + 4);
  // "HTTP/1.0 200 OK" -> 200
  const size_t space = reply.headers.find(' ');
  if (space == std::string::npos) return Status::IOError("no status code");
  reply.status = std::atoi(reply.headers.c_str() + space + 1);
  return reply;
}

/// Minimal JSON validity checker (recursive descent over the full
/// grammar, no DOM): enough to golden-test that exported documents parse.
class JsonChecker {
 public:
  static bool IsValid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipSpace();
    if (!checker.Value()) return false;
    checker.SkipSpace();
    return checker.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Eat('.')) {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipSpace();
    const char c = Peek();
    if (c == '{') {
      ++pos_;
      SkipSpace();
      if (Eat('}')) return true;
      for (;;) {
        SkipSpace();
        if (!String()) return false;
        SkipSpace();
        if (!Eat(':')) return false;
        if (!Value()) return false;
        SkipSpace();
        if (Eat(',')) continue;
        return Eat('}');
      }
    }
    if (c == '[') {
      ++pos_;
      SkipSpace();
      if (Eat(']')) return true;
      for (;;) {
        if (!Value()) return false;
        SkipSpace();
        if (Eat(',')) continue;
        return Eat(']');
      }
    }
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace testing
}  // namespace fra

#endif  // FRA_TESTS_TEST_UTIL_H_
