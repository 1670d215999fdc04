// The repository benchmark: three federation workloads driven through the
// library's public API. One client thread issues ServiceProvider::
// ExecuteBatch calls back to back (a closed loop, at most batch_threads
// queries in flight). A plain run prints the end-to-end metrics; a traced
// run (--trace 1) times each layer from outside (layer_trace.h) and
// replays the workload's ranges through the index and LSR functions.
// README.md in this directory lists the workloads and metrics.
//
//   fra_perfbench --workload inproc_estimator --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A wrong answer or a failed wire-truth check exits with code 1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/centralized.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "federation/admin.h"
#include "federation/federation.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "layer_trace.h"
#include "net/message.h"
#include "net/tcp_network.h"
#include "obs/admin_server.h"
#include "util/buffer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {
namespace {

// --- Workload constants ---------------------------------------------------

// The paper-default corpus (Tab. 2 defaults; |P| as in EXPERIMENTS.md).
constexpr size_t kObjects = 1'000'000;
constexpr size_t kSilos = 6;
constexpr double kGridKm = 1.5;
constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.01;
// Client concurrency: ExecuteBatch workers, one per core of the reference
// 4-core machine.
constexpr size_t kBatchThreads = 4;
constexpr size_t kBatchQueries = 256;
// inproc_estimator / tcp_fanout: r = 2 km circles centred on data, cycled.
constexpr double kRadiusKm = 2.0;
constexpr size_t kStreamQueries = 8192;
// hot_ingest: distinct rectangles per exact-layer slot, their half sides,
// and the writes: one IngestAndSync of kIngestObjects after the first
// batch that ends past each multiple of kWriteIntervalS of timed wall, to
// the silos in turn. The schedule fixes how much a run of given length
// writes, whatever its read speed. A silo compacts once its delta passes
// 2% of its base (2.5k objects on the 125k-object silos, 5k on the 250k
// ones, growing 2% per compaction), so every write compacts the silo it
// lands on for the first ~19 rounds of kSilos writes. Compaction is
// memory-bound and slows most when other tenants load the machine, so
// writes are kept to about a tenth of the timed wall.
constexpr size_t kPoolPerExactSlot = 4;
constexpr double kHalfSidesKm[] = {0.75, 1.5, 3.0, 4.5};
constexpr size_t kIngestObjects = 8000;
constexpr double kWriteIntervalS = 1.5;
constexpr size_t kIngestPoolObjects = 1'000'000;
// Timed wall per measurement window; a run reports the median of its
// windows' rates and percentiles, so a burst of outside load moves one
// window, not the result. On a virtual machine the hypervisor may run
// other guests on our CPUs ("steal" in /proc/stat). Windows losing more
// than kMaxStealFrac of the machine's CPU time that way are left out, and
// the run goes on, up to kMaxStretch times --seconds of timed wall, until
// it has --seconds of clean windows. A run that ends with fewer than
// kMinWindows clean windows makes up the number with its least-stolen
// ones.
constexpr double kWindowSeconds = 1.0;
constexpr double kMaxStealFrac = 0.03;
constexpr double kMaxStretch = 2.0;
constexpr size_t kMinWindows = 3;
// Timed set-ups per run; setup_s is their median.
constexpr size_t kSetups = 5;
// Traced run: ranges replayed through the index and core functions, and
// the most batches the TCP leg runs under --batches (EXACT over TCP is
// slow, and the hot_ingest tests run thousands of batches).
constexpr size_t kReplayRanges = 2048;
constexpr size_t kTcpLegMaxBatches = 16;

enum class Workload { kInprocEstimator, kTcpFanout, kHotIngest };

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kInprocEstimator:
      return "inproc_estimator";
    case Workload::kTcpFanout:
      return "tcp_fanout";
    case Workload::kHotIngest:
      return "hot_ingest";
  }
  return "?";
}

// --- Small helpers ---------------------------------------------------------

volatile double g_sink = 0.0;  // keeps replayed results observable

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t k = std::min(values.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Process user+sys CPU seconds (all threads).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Machine-wide CPU ticks from /proc/stat: stolen by the hypervisor, and
// all (both zero where the file is unavailable).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return ticks;
  unsigned long long v[8] = {};
  const int n = std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(file);
  if (n != 8) return ticks;
  ticks.steal = v[7];
  for (unsigned long long value : v) ticks.total += value;
  return ticks;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return fra::Rng(seed).Fork(stream).NextUint64();
}

fra::ServiceProvider::Options ProviderOptions(Workload workload) {
  fra::ServiceProvider::Options options;
  options.epsilon = kEpsilon;
  options.delta = kDelta;
  options.batch_threads = kBatchThreads;
  options.cache.enabled = workload == Workload::kHotIngest;
  return options;
}

fra::Silo::Options SiloOptions(const fra::Rect& domain) {
  fra::Silo::Options options;
  options.grid_spec.domain = domain;
  options.grid_spec.cell_length = kGridKm;
  return options;
}

// --- Corpus and query streams -------------------------------------------

struct Corpus {
  fra::Rect domain;
  std::vector<fra::ObjectSet> partitions;  // one per silo
};

// The generator's default corpus, Non-IID, split as the paper's silo
// protocol does. It is the same for every seed, so runs with different
// seeds differ only in their query streams and writes.
fra::Result<Corpus> MakeCorpus() {
  fra::MobilityDataOptions options;
  options.num_objects = kObjects;
  options.non_iid = true;
  FRA_ASSIGN_OR_RETURN(fra::FederationDataset dataset,
                       fra::GenerateMobilityData(options));
  Corpus corpus;
  corpus.domain = dataset.domain;
  FRA_ASSIGN_OR_RETURN(corpus.partitions,
                       fra::SplitIntoSilos(dataset.company_partitions, kSilos,
                                           options.seed + 1));
  return corpus;
}

// The queries of one workload and the exact answers they are scored
// against, for the data as it stands when each query runs.
class QuerySource {
 public:
  QuerySource(Workload workload, const Corpus& corpus, uint64_t seed)
      : workload_(workload), rng_(SubSeed(seed, 3)) {
    const fra::CentralizedRTree truth(corpus.partitions);
    if (workload == Workload::kHotIngest) {
      MakePool(corpus, SubSeed(seed, 4));
      for (const fra::FraQuery& query : queries_) {
        base_.push_back(truth.Summarize(query.range));
      }
      ingested_.assign(queries_.size(), fra::AggregateSummary());
    } else {
      fra::WorkloadOptions options;
      options.num_queries = kStreamQueries;
      options.radius_km = kRadiusKm;
      options.seed = SubSeed(seed, 4);
      queries_ = fra::GenerateQueries(corpus.partitions, options).ValueOrDie();
      for (size_t i = 0; i < queries_.size(); ++i) {
        queries_[i].kind =
            i % 2 == 0 ? fra::AggregateKind::kCount : fra::AggregateKind::kSum;
        base_.push_back(truth.Summarize(queries_[i].range));
      }
    }
  }

  /// The distinct queries (stream or pool).
  const std::vector<fra::FraQuery>& queries() const { return queries_; }

  /// FNV-1a over the distinct queries' ranges and kinds.
  uint64_t Fingerprint() const {
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const fra::FraQuery& query : queries_) {
      for (char c : RangeKey(query.range) + static_cast<char>(query.kind)) {
        hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
      }
    }
    return hash;
  }

  /// Fills the next batch: stream order, or Zipf(1) draws from the pool.
  void NextBatch(std::vector<fra::FraQuery>* batch,
                 std::vector<uint32_t>* ids) {
    batch->clear();
    ids->clear();
    for (size_t i = 0; i < kBatchQueries; ++i) {
      uint32_t id = 0;
      if (workload_ == Workload::kHotIngest) {
        const double u = rng_.NextDouble() * zipf_cdf_.back();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        id = static_cast<uint32_t>(std::min(rank, queries_.size() - 1));
      } else {
        id = static_cast<uint32_t>(next_++ % queries_.size());
      }
      ids->push_back(id);
      batch->push_back(queries_[id]);
    }
  }

  /// Exact answer of query `id` over the base data plus every batch
  /// passed to OnIngest so far.
  double Truth(uint32_t id) const {
    fra::AggregateSummary summary = base_[id];
    if (!ingested_.empty()) summary.Merge(ingested_[id]);
    double value = 0.0;
    FRA_CHECK_OK(summary.Finalize(queries_[id].kind, &value));
    return value;
  }

  /// hot_ingest: folds an ingested batch into the pool's exact answers.
  /// Only pool ranges whose x extent can reach an object are tested.
  void OnIngest(const fra::ObjectSet& batch) {
    for (const fra::SpatialObject& object : batch) {
      const double x = object.location.x;
      for (auto it = std::lower_bound(by_min_x_.begin(), by_min_x_.end(),
                                      std::make_pair(x - max_width_, 0u));
           it != by_min_x_.end() && it->first <= x; ++it) {
        if (queries_[it->second].range.Contains(object.location)) {
          ingested_[it->second].Add(object);
        }
      }
    }
  }

 private:
  // Rectangles centred on data. Pool index i is also the Zipf(1)
  // popularity rank, and the shape cycles with it — half side i % 4, snapped
  // outward to grid lines when (i / 4) is odd, COUNT or SUM by (i / 8) — so
  // every popularity band holds the same mix of shapes.
  void MakePool(const Corpus& corpus, uint64_t seed) {
    fra::Rng rng(seed);
    size_t total = 0;
    for (const fra::ObjectSet& partition : corpus.partitions) {
      total += partition.size();
    }
    const size_t pool_size =
        kPoolPerExactSlot *
        fra::ServiceProvider::Options::CacheOptions().exact_capacity;
    const auto snap = [&](double v, double origin, bool up) {
      const double cells = (v - origin) / kGridKm;
      return origin + (up ? std::ceil(cells) : std::floor(cells)) * kGridKm;
    };
    for (size_t i = 0; i < pool_size; ++i) {
      uint64_t pick = rng.NextUint64(total);
      const fra::SpatialObject* center = nullptr;
      for (const fra::ObjectSet& partition : corpus.partitions) {
        if (pick < partition.size()) {
          center = &partition[pick];
          break;
        }
        pick -= partition.size();
      }
      const double half = kHalfSidesKm[i % std::size(kHalfSidesKm)];
      fra::Point lo{center->location.x - half, center->location.y - half};
      fra::Point hi{center->location.x + half, center->location.y + half};
      if ((i / 4) % 2 == 1) {
        lo = {snap(lo.x, corpus.domain.min.x, false),
              snap(lo.y, corpus.domain.min.y, false)};
        hi = {snap(hi.x, corpus.domain.min.x, true),
              snap(hi.y, corpus.domain.min.y, true)};
      }
      fra::FraQuery query;
      query.range = fra::QueryRange::MakeRect(lo, hi);
      query.kind = (i / 8) % 2 == 0 ? fra::AggregateKind::kCount
                                    : fra::AggregateKind::kSum;
      queries_.push_back(query);
      by_min_x_.emplace_back(lo.x, static_cast<uint32_t>(i));
      max_width_ = std::max(max_width_, hi.x - lo.x);
    }
    std::sort(by_min_x_.begin(), by_min_x_.end());
    double acc = 0.0;
    for (size_t rank = 0; rank < pool_size; ++rank) {
      acc += 1.0 / static_cast<double>(rank + 1);
      zipf_cdf_.push_back(acc);
    }
  }

  const Workload workload_;
  fra::Rng rng_;
  std::vector<fra::FraQuery> queries_;
  std::vector<fra::AggregateSummary> base_;
  std::vector<fra::AggregateSummary> ingested_;  // hot_ingest only
  // hot_ingest: (min x, pool id) sorted, and the widest range's width.
  std::vector<std::pair<double, uint32_t>> by_min_x_;
  double max_width_ = 0.0;
  std::vector<double> zipf_cdf_;
  size_t next_ = 0;
};

// hot_ingest's writes: fixed-size batches of generator objects from a
// stream seeded apart from the corpus, to one silo at a time, round robin.
class IngestStream {
 public:
  explicit IngestStream(uint64_t seed) {
    fra::MobilityDataOptions options;
    options.num_objects = kIngestPoolObjects;
    options.seed = SubSeed(seed, 5);
    options.non_iid = true;
    for (fra::ObjectSet& part :
         fra::GenerateMobilityData(options).ValueOrDie().company_partitions) {
      objects_.insert(objects_.end(), part.begin(), part.end());
    }
  }

  /// The next batch and the silo index it goes to.
  fra::ObjectSet Next(size_t* silo_index) {
    *silo_index = count_ % kSilos;
    fra::ObjectSet batch;
    batch.reserve(kIngestObjects);
    for (size_t i = 0; i < kIngestObjects; ++i) {
      batch.push_back(objects_[cursor_]);
      cursor_ = (cursor_ + 1) % objects_.size();
    }
    ++count_;
    return batch;
  }

 private:
  fra::ObjectSet objects_;
  size_t cursor_ = 0;
  size_t count_ = 0;
};

// --- Deployments -----------------------------------------------------------

// The silos under test: inside a Federation for the in-process workloads,
// standalone for tcp_fanout, where they sit behind TcpSiloServers.
struct World {
  std::vector<std::unique_ptr<fra::Silo>> owned_silos;
  std::unique_ptr<fra::Federation> federation;

  fra::Silo& silo(size_t index) {
    return federation != nullptr ? federation->silo(index)
                                 : *owned_silos[index];
  }
};

// A provider wired to the World's silos through one transport. A traced
// stack puts TracingEndpoints around the silos and a TracingNetwork in
// front of the transport; the untraced in-process stack is the
// Federation's own provider and network.
struct Stack {
  // Members are destroyed bottom-up: the admin server and provider go
  // first, the span logs (referenced by every decorator) last.
  SpanLog calls;
  SpanLog handles;
  std::vector<std::unique_ptr<TracingEndpoint>> endpoints;
  std::vector<std::unique_ptr<fra::TcpSiloServer>> servers;
  std::unique_ptr<fra::InProcessNetwork> inproc;
  std::unique_ptr<fra::TcpNetwork> tcp;
  std::unique_ptr<TracingNetwork> tracing;
  std::unique_ptr<fra::ServiceProvider> owned_provider;
  std::unique_ptr<fra::AdminServer> admin;  // tcp_fanout only

  fra::ServiceProvider* provider = nullptr;
  fra::Network* transport = nullptr;  // its CommStats are the wire truth
  bool traced = false;

  uint64_t RequestsServed() const {
    uint64_t served = 0;
    for (const auto& server : servers) served += server->requests_served();
    return served;
  }
};

fra::Result<std::unique_ptr<Stack>> BuildStack(Workload workload,
                                               World* world, bool traced) {
  auto stack = std::make_unique<Stack>();
  stack->traced = traced;
  if (!traced && world->federation != nullptr) {
    stack->provider = &world->federation->provider();
    stack->transport = &world->federation->network();
    return stack;
  }
  std::vector<fra::SiloEndpoint*> endpoints;
  for (size_t i = 0; i < kSilos; ++i) {
    fra::Silo& silo = world->silo(i);
    if (traced) {
      stack->endpoints.push_back(
          std::make_unique<TracingEndpoint>(silo.id(), &silo, &stack->handles));
      endpoints.push_back(stack->endpoints.back().get());
    } else {
      endpoints.push_back(&silo);
    }
  }
  if (workload == Workload::kTcpFanout) {
    stack->tcp = std::make_unique<fra::TcpNetwork>();
    for (size_t i = 0; i < kSilos; ++i) {
      FRA_ASSIGN_OR_RETURN(std::unique_ptr<fra::TcpSiloServer> server,
                           fra::TcpSiloServer::Start(endpoints[i]));
      FRA_RETURN_NOT_OK(
          stack->tcp->AddSilo(world->silo(i).id(), server->port()));
      stack->servers.push_back(std::move(server));
    }
    stack->transport = stack->tcp.get();
  } else {
    stack->inproc = std::make_unique<fra::InProcessNetwork>();
    for (size_t i = 0; i < kSilos; ++i) {
      FRA_RETURN_NOT_OK(
          stack->inproc->RegisterSilo(world->silo(i).id(), endpoints[i]));
    }
    stack->transport = stack->inproc.get();
  }
  fra::Network* network = stack->transport;
  if (traced) {
    stack->tracing =
        std::make_unique<TracingNetwork>(stack->transport, &stack->calls);
    network = stack->tracing.get();
  }
  FRA_ASSIGN_OR_RETURN(
      stack->owned_provider,
      fra::ServiceProvider::Create(network, ProviderOptions(workload)));
  stack->provider = stack->owned_provider.get();
  if (workload == Workload::kTcpFanout) {
    FRA_ASSIGN_OR_RETURN(stack->admin, fra::AdminServer::Start());
    fra::InstallFederationAdminHandlers(stack->admin.get(), stack->provider);
  }
  return stack;
}

// The workload's silos over `partitions`: Silo::Create ×m, inside
// Federation::Create for the in-process workloads.
fra::Result<std::unique_ptr<World>> MakeWorld(
    Workload workload, const Corpus& corpus,
    std::vector<fra::ObjectSet> partitions) {
  auto built = std::make_unique<World>();
  if (workload == Workload::kTcpFanout) {
    const fra::Silo::Options base = SiloOptions(corpus.domain);
    for (size_t i = 0; i < kSilos; ++i) {
      // Per-silo level-sampling streams, as Federation::Create assigns them.
      fra::Silo::Options options = base;
      options.lsr_seed = base.lsr_seed + i * 0x9E3779B97F4A7C15ULL;
      FRA_ASSIGN_OR_RETURN(
          std::unique_ptr<fra::Silo> silo,
          fra::Silo::Create(static_cast<int>(i), std::move(partitions[i]),
                            options));
      built->owned_silos.push_back(std::move(silo));
    }
  } else {
    fra::FederationOptions options;
    options.silo = SiloOptions(corpus.domain);
    options.provider = ProviderOptions(workload);
    FRA_ASSIGN_OR_RETURN(
        built->federation,
        fra::Federation::Create(std::move(partitions), options));
  }
  return built;
}

// One timed set-up: the silos, the silo servers for tcp_fanout, and
// ServiceProvider::Create (Alg. 1). Copying the partitions is not timed.
fra::Status SetUp(Workload workload, const Corpus& corpus,
                  std::unique_ptr<World>* world, std::unique_ptr<Stack>* stack,
                  double* seconds) {
  std::vector<fra::ObjectSet> partitions = corpus.partitions;
  fra::Timer timer;
  FRA_ASSIGN_OR_RETURN(*world,
                       MakeWorld(workload, corpus, std::move(partitions)));
  FRA_ASSIGN_OR_RETURN(*stack, BuildStack(workload, world->get(), false));
  *seconds = timer.ElapsedSeconds();
  return fra::Status::OK();
}

// Paper index memory after set-up: every silo's R-tree, LSR levels,
// histogram and grid plus the provider's grids (Federation::MemoryUsage's
// buckets).
double IndexMb(World* world, const fra::ServiceProvider& provider) {
  size_t bytes = provider.GridMemoryUsage();
  for (size_t i = 0; i < kSilos; ++i) {
    const fra::Silo::IndexMemory memory = world->silo(i).MemoryUsage();
    bytes += memory.rtree_bytes + memory.lsr_extra_bytes + memory.grid_bytes +
             memory.histogram_bytes;
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// --- /metrics scraper --------------------------------------------------------

// One HTTP/1.0 GET of /metrics; true on a complete 200 response.
bool ScrapeOnce(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval timeout{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = connect(fd, reinterpret_cast<sockaddr*>(&address),
                    sizeof(address)) == 0;
  const char kRequest[] = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  ok = ok && send(fd, kRequest, sizeof(kRequest) - 1, MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(sizeof(kRequest) - 1);
  std::string response;
  char buffer[16384];
  while (ok) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return ok && response.rfind("HTTP/1.", 0) == 0 &&
         response.find(" 200 ") != std::string::npos;
}

// Scrapes an AdminServer's /metrics once per second on its own thread, as
// a Prometheus server would, recording each scrape's wall time.
class Scraper {
 public:
  explicit Scraper(uint16_t port) : port_(port), thread_([this] { Loop(); }) {}
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> millis() const {
    std::lock_guard<std::mutex> lock(mu_);
    return millis_;
  }
  size_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      fra::Timer timer;
      const bool ok = ScrapeOnce(port_);
      const double ms = timer.ElapsedMillis();
      lock.lock();
      if (ok) {
        millis_.push_back(ms);
      } else {
        ++failures_;
      }
      wake_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; });
    }
  }

  const uint16_t port_;
  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> millis_;
  size_t failures_ = 0;
  std::thread thread_;  // last: starts once the members above exist
};

// --- Measured phases ---------------------------------------------------------

struct Limit {
  double seconds = 0.0;
  size_t batches = 0;  // nonzero: run exactly this many batches instead
};

// Consecutive batches covering about kWindowSeconds of timed wall; on
// hot_ingest, ending with a write.
struct Window {
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  CpuTicks ticks;  // at the window's start, then its delta
};

double StealFrac(const Window& window) {
  return Ratio(static_cast<double>(window.ticks.steal),
               static_cast<double>(window.ticks.total));
}

// What one closed-loop phase measured.
struct Phase {
  std::vector<Window> windows;  // complete windows with little steal
  size_t stolen_windows = 0;    // complete windows left out for steal
  size_t batches = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> latencies_us;  // the open window's queries
  double wall_s = 0.0;  // ExecuteBatch calls + ingests; checks excluded
  double cpu_s = 0.0;   // process CPU inside wall_s
  fra::CommStats::Snapshot comm;
  uint64_t requests_served = 0;  // tcp_fanout: silo servers, all silos
  // Accuracy. An answer is scored unless it repeats the last answer scored
  // for its query against the same exact answer, as a cached answer does:
  // each distinct estimate counts once, not once per cache hit.
  double relative_error_sum = 0.0;
  size_t scored = 0;
  size_t violations = 0;
  std::vector<std::pair<double, double>> last_scored;  // (answer, exact)
  size_t ingests = 0;
  double ingest_sync_s = 0.0;  // IngestAndSync, both halves
  double silo_ingest_s = 0.0;  // Silo::Ingest (with compaction)
  double sync_s = 0.0;         // ServiceProvider::SyncGrids
  size_t compactions = 0;
  std::vector<double> scrape_ms;
  // Traced: per batch, each query's range key and latency (µs).
  std::vector<std::vector<std::string>> batch_keys;
  std::vector<std::vector<double>> batch_latencies_us;
  std::string mismatch;  // first correctness-gate failure, if any
};

class Bench {
 public:
  Bench(Workload workload, uint64_t seed, const Corpus& corpus)
      : workload_(workload),
        source_(workload, corpus, seed),
        ingest_(workload == Workload::kHotIngest
                    ? std::make_unique<IngestStream>(seed)
                    : nullptr) {}

  QuerySource& source() { return source_; }

  fra::FraAlgorithm algorithm() const {
    return workload_ == Workload::kTcpFanout ? fra::FraAlgorithm::kExact
                                             : fra::FraAlgorithm::kNonIidEstLsr;
  }

  // Runs closed-loop batches on `stack` until `limit`, checking every
  // answer outside the timed window.
  Phase Run(World* world, Stack* stack, const Limit& limit) {
    Phase phase;
    phase.last_scored.assign(source_.queries().size(),
                             {std::nan(""), std::nan("")});
    fra::ServiceProvider& provider = *stack->provider;
    std::unique_ptr<Scraper> scraper;
    if (stack->admin != nullptr) {
      scraper = std::make_unique<Scraper>(stack->admin->port());
    }
    const fra::CommStats::Snapshot comm_before = stack->transport->stats().Read();
    const uint64_t served_before = stack->RequestsServed();
    std::vector<fra::FraQuery> queries;
    std::vector<uint32_t> ids;
    std::vector<double> latencies;
    std::vector<fra::Status> statuses;
    Window window = Close(phase, Window());
    std::vector<Window> stolen;
    double clean_s = 0.0;
    while (phase.mismatch.empty() &&
           (limit.batches > 0
                ? phase.batches < limit.batches
                : clean_s < limit.seconds &&
                      phase.wall_s < kMaxStretch * limit.seconds)) {
      source_.NextBatch(&queries, &ids);
      stack->calls.set_batch(static_cast<int64_t>(phase.batches));
      const double cpu_before = ProcessCpuSeconds();
      fra::Timer timer;
      fra::Result<std::vector<double>> answers = provider.ExecuteBatch(
          queries, algorithm(), &latencies, &statuses);
      phase.wall_s += timer.ElapsedSeconds();
      phase.cpu_s += ProcessCpuSeconds() - cpu_before;
      Check(phase.batches, answers, statuses, ids, &phase);
      for (size_t i = 0; i < latencies.size(); ++i) {
        phase.latencies_us.push_back(latencies[i] * 1e6);
      }
      if (stack->traced) {
        std::vector<std::string> keys;
        for (const fra::FraQuery& query : queries) {
          keys.push_back(RangeKey(query.range));
        }
        phase.batch_keys.push_back(std::move(keys));
        phase.batch_latencies_us.emplace_back();
        for (double seconds : latencies) {
          phase.batch_latencies_us.back().push_back(seconds * 1e6);
        }
      }
      ++phase.batches;
      bool wrote = false;
      if (ingest_ != nullptr &&
          phase.wall_s >=
              static_cast<double>(phase.ingests + 1) * kWriteIntervalS) {
        Ingest(world, stack, &phase);
        wrote = true;
      }
      // On hot_ingest a window ends only after a write, so each window
      // holds one write's cycle.
      if ((ingest_ == nullptr || wrote) &&
          phase.wall_s - window.wall_s >= kWindowSeconds) {
        const Window closed = Close(phase, window);
        if (StealFrac(closed) <= kMaxStealFrac) {
          phase.windows.push_back(closed);
          clean_s += closed.wall_s;
        } else {
          stolen.push_back(closed);
        }
        phase.latencies_us.clear();
        window = Close(phase, Window());
      }
    }
    std::sort(stolen.begin(), stolen.end(),
              [](const Window& a, const Window& b) {
                return StealFrac(a) < StealFrac(b);
              });
    for (size_t i = 0; i < stolen.size(); ++i) {
      if (phase.windows.size() < kMinWindows) {
        phase.windows.push_back(stolen[i]);
      } else {
        ++phase.stolen_windows;
      }
    }
    if (phase.windows.empty()) phase.windows.push_back(Close(phase, Window()));
    provider.WaitForAudits();
    phase.comm = stack->transport->stats().Read() - comm_before;
    phase.requests_served = stack->RequestsServed() - served_before;
    if (scraper != nullptr) {
      scraper->Stop();
      phase.scrape_ms = scraper->millis();
      if (scraper->failures() > 0) {
        std::fprintf(stderr, "warning: %zu /metrics scrapes failed\n",
                     scraper->failures());
      }
    }
    return phase;
  }

 private:
  // The window from `start` (phase totals when it opened) to now, its
  // latencies being those buffered since; with a default `start`, the
  // phase totals so far.
  static Window Close(const Phase& phase, const Window& start) {
    Window window;
    window.attempted = phase.attempted - start.attempted;
    window.failed = phase.failed - start.failed;
    window.wall_s = phase.wall_s - start.wall_s;
    window.cpu_s = phase.cpu_s - start.cpu_s;
    window.p50_us = Percentile(phase.latencies_us, 0.50);
    window.p99_us = Percentile(phase.latencies_us, 0.99);
    const CpuTicks now = ReadCpuTicks();
    window.ticks.steal = now.steal - start.ticks.steal;
    window.ticks.total = now.total - start.ticks.total;
    return window;
  }

  // The correctness gate: EXACT answers must equal the baseline bit for
  // bit; estimates must be finite and non-negative.
  void Check(size_t batch, const fra::Result<std::vector<double>>& answers,
             const std::vector<fra::Status>& statuses,
             const std::vector<uint32_t>& ids, Phase* phase) {
    phase->attempted += ids.size();
    if (!answers.ok()) {
      phase->failed += ids.size();
      return;
    }
    const bool exact = algorithm() == fra::FraAlgorithm::kExact;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!statuses[i].ok()) {
        ++phase->failed;
        continue;
      }
      const double answer = (*answers)[i];
      const double truth = source_.Truth(ids[i]);
      const bool wrong = exact ? std::memcmp(&answer, &truth,
                                             sizeof(double)) != 0
                               : !std::isfinite(answer) || answer < 0.0;
      if (wrong && phase->mismatch.empty()) {
        char message[256];
        std::snprintf(message, sizeof(message),
                      "%s: batch %zu query %zu (stream id %u): answer %.17g, "
                      "baseline %.17g",
                      WorkloadName(workload_), batch, i, ids[i], answer, truth);
        phase->mismatch = message;
      }
      std::pair<double, double>& last = phase->last_scored[ids[i]];
      if (answer == last.first && truth == last.second) continue;
      last = {answer, truth};
      const double error = fra::RelativeError(truth, answer);
      phase->relative_error_sum += error;
      ++phase->scored;
      if (error > kEpsilon) ++phase->violations;
    }
  }

  // One write between batches: the two calls of Federation::IngestAndSync
  // (Silo::Ingest, then SyncGrids on the stack's provider), timed apart.
  void Ingest(World* world, Stack* stack, Phase* phase) {
    size_t index = 0;
    const fra::ObjectSet batch = ingest_->Next(&index);
    fra::Silo& silo = world->silo(index);
    const size_t pending_before = silo.pending_ingest();
    const double cpu_before = ProcessCpuSeconds();
    fra::Timer timer;
    silo.Ingest(batch);
    const double ingest_s = timer.ElapsedSeconds();
    const fra::Status status = stack->provider->SyncGrids();
    const double seconds = timer.ElapsedSeconds();
    phase->silo_ingest_s += ingest_s;
    phase->sync_s += seconds - ingest_s;
    phase->cpu_s += ProcessCpuSeconds() - cpu_before;
    phase->wall_s += seconds;
    phase->ingest_sync_s += seconds;
    ++phase->ingests;
    if (silo.pending_ingest() < pending_before + batch.size()) {
      ++phase->compactions;
    }
    if (!status.ok() && phase->mismatch.empty()) {
      phase->mismatch = std::string(WorkloadName(workload_)) +
                        ": IngestAndSync failed: " + status.ToString();
    }
    source_.OnIngest(batch);
  }

  const Workload workload_;
  QuerySource source_;
  std::unique_ptr<IngestStream> ingest_;
};

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// Median over the phase's windows of `per_window(window)`.
template <typename Fn>
double WindowMedian(const Phase& phase, const Fn& per_window) {
  std::vector<double> values;
  for (const Window& window : phase.windows) {
    values.push_back(per_window(window));
  }
  return Percentile(values, 0.5);
}

double Qps(const Phase& phase) {
  return WindowMedian(phase, [](const Window& w) {
    return Ratio(static_cast<double>(w.attempted - w.failed), w.wall_s);
  });
}

double P99Us(const Phase& phase) {
  return WindowMedian(phase, [](const Window& w) { return w.p99_us; });
}

// End-to-end metrics of an untraced phase: rates and latency percentiles
// are window medians, wire costs and accuracy whole-phase totals. The
// first kListedEndToEnd are listed in BENCHMARK.json. The last two read 0
// (error_rate whenever the run is correct, freshness_ms without writes),
// so the traced run reports them among its per-layer metrics.
Metrics EndToEnd(const Phase& phase, double setup_s, double index_mb) {
  const double queries = static_cast<double>(phase.attempted);
  return {
      {"qps", Qps(phase), "1/s"},
      {"p50_us",
       WindowMedian(phase, [](const Window& w) { return w.p50_us; }), "us"},
      {"p99_us", P99Us(phase), "us"},
      {"mre", Ratio(phase.relative_error_sum,
                    static_cast<double>(phase.scored)),
       "ratio"},
      {"eps_violation_rate",
       Ratio(static_cast<double>(phase.violations),
             static_cast<double>(phase.scored)),
       "ratio"},
      {"bytes_per_query",
       Ratio(static_cast<double>(phase.comm.TotalBytes()), queries), "B"},
      {"rpcs_per_query",
       Ratio(static_cast<double>(phase.comm.messages), queries), "count"},
      {"cpu_us_per_query",
       WindowMedian(phase,
                    [](const Window& w) {
                      return Ratio(w.cpu_s * 1e6,
                                   static_cast<double>(w.attempted));
                    }),
       "us"},
      {"setup_s", setup_s, "s"},
      {"index_mb", index_mb, "MB"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"error_rate", Ratio(static_cast<double>(phase.failed), queries),
       "ratio"},
      {"freshness_ms",
       Ratio(phase.ingest_sync_s * 1e3, static_cast<double>(phase.ingests)),
       "ms"},
  };
}
constexpr size_t kListedEndToEnd = 11;

// Pairs every data-plane call with the silo handler invocation it caused:
// same silo and range, handler interval inside the call's, preferring
// the caller's own thread (the in-process transport runs the handler
// inline). Returns the handler's duration per call (-1 when unmatched).
std::vector<double> MatchHandles(const std::vector<Span>& calls,
                                 const std::vector<std::string>& call_keys,
                                 const std::vector<Span>& handles) {
  std::map<std::pair<int, std::string>, std::vector<size_t>> by_key;
  for (size_t h = 0; h < handles.size(); ++h) {
    const std::string key = RangeKeyOf(handles[h]);
    if (!key.empty()) by_key[{handles[h].silo, key}].push_back(h);
  }
  std::vector<bool> used(handles.size(), false);
  std::vector<double> matched(calls.size(), -1.0);
  for (size_t c = 0; c < calls.size(); ++c) {
    const auto it = by_key.find({calls[c].silo, call_keys[c]});
    if (it == by_key.end()) continue;
    size_t best = handles.size();
    for (size_t h : it->second) {
      const Span& handle = handles[h];
      if (used[h] || handle.start_ns < calls[c].start_ns ||
          handle.end_ns > calls[c].end_ns) {
        continue;
      }
      if (best == handles.size() || handle.thread == calls[c].thread) best = h;
      if (handle.thread == calls[c].thread) break;
    }
    if (best == handles.size()) continue;
    used[best] = true;
    matched[c] = handles[best].micros();
  }
  return matched;
}

// Per-query provider self time: the query's latency minus its blocking
// exchange (the longest of its data-plane calls). Calls are keyed to
// queries by batch and range; queries sharing a range within one batch
// take that range's calls in start order.
std::vector<double> ProviderSelfMicros(const Phase& phase,
                                       const std::vector<Span>& calls,
                                       const std::vector<std::string>& keys) {
  std::map<std::pair<int64_t, std::string>, std::vector<size_t>> by_query;
  for (size_t c = 0; c < calls.size(); ++c) {
    by_query[{calls[c].batch, keys[c]}].push_back(c);
  }
  std::vector<double> self;
  for (size_t b = 0; b < phase.batch_keys.size(); ++b) {
    std::unordered_map<std::string, std::vector<size_t>> queries_by_key;
    for (size_t i = 0; i < phase.batch_keys[b].size(); ++i) {
      queries_by_key[phase.batch_keys[b][i]].push_back(i);
    }
    std::vector<double> exchange(phase.batch_keys[b].size(), 0.0);
    for (const auto& [key, queries] : queries_by_key) {
      const auto it = by_query.find({static_cast<int64_t>(b), key});
      if (it == by_query.end()) continue;
      std::vector<size_t> ordered = it->second;
      std::sort(ordered.begin(), ordered.end(), [&](size_t x, size_t y) {
        return calls[x].start_ns < calls[y].start_ns;
      });
      const size_t per_query = std::max<size_t>(1, ordered.size() / queries.size());
      for (size_t j = 0; j < ordered.size(); ++j) {
        const size_t q = queries[std::min(j / per_query, queries.size() - 1)];
        exchange[q] = std::max(exchange[q], calls[ordered[j]].micros());
      }
    }
    for (size_t i = 0; i < exchange.size(); ++i) {
      self.push_back(
          std::max(0.0, phase.batch_latencies_us[b][i] - exchange[i]));
    }
  }
  return self;
}

// Layer metrics of a traced phase from its spans, plus the wire-truth
// cross-checks (appended to `failures`).
Metrics SpanMetrics(Workload workload, const Phase& phase, Stack* stack,
                    std::vector<std::string>* failures) {
  const std::vector<Span> calls = stack->calls.Take();
  const std::vector<Span> handles = stack->handles.Take();
  const uint8_t data_plane = static_cast<uint8_t>(
      workload == Workload::kTcpFanout ? fra::MessageType::kAggregateRequest
                                       : fra::MessageType::kCellVectorRequest);

  uint64_t ok_calls = 0, failed_calls = 0, to_silos = 0, to_provider = 0;
  std::vector<Span> query_calls;
  std::vector<std::string> query_keys;
  for (const Span& call : calls) {
    if (!call.ok) {
      ++failed_calls;
      continue;
    }
    ++ok_calls;
    to_silos += call.request_bytes;
    to_provider += call.response_bytes;
    if (call.type() == data_plane) {
      query_calls.push_back(call);
      query_keys.push_back(RangeKeyOf(call));
    }
  }
  std::vector<double> call_us, transport_us, handle_us;
  const std::vector<double> matched =
      MatchHandles(query_calls, query_keys, handles);
  for (size_t c = 0; c < query_calls.size(); ++c) {
    call_us.push_back(query_calls[c].micros());
    if (matched[c] >= 0.0) {
      transport_us.push_back(query_calls[c].micros() - matched[c]);
    }
  }
  double busy_us = 0.0;
  for (const Span& handle : handles) {
    busy_us += handle.micros();
    if (handle.type() == data_plane) handle_us.push_back(handle.micros());
  }
  const std::vector<double> self_us =
      ProviderSelfMicros(phase, query_calls, query_keys);

  // Wire truth: the decorators saw exactly what the transport accounted.
  const auto expect = [&](const char* what, uint64_t seen, uint64_t truth) {
    if (seen != truth) {
      failures->push_back(std::string("wire truth: ") + what + " traced " +
                          std::to_string(seen) + " != " +
                          std::to_string(truth));
    }
  };
  expect("calls vs CommStats messages", ok_calls, phase.comm.messages);
  expect("request bytes vs CommStats", to_silos, phase.comm.bytes_to_silos);
  expect("response bytes vs CommStats", to_provider,
         phase.comm.bytes_to_provider);
  expect(workload == Workload::kTcpFanout
             ? "silo handles vs TcpSiloServer::requests_served"
             : "silo handles vs CommStats messages",
         handles.size(),
         workload == Workload::kTcpFanout ? phase.requests_served
                                          : phase.comm.messages);
  expect("matched calls vs data-plane calls", transport_us.size(),
         query_calls.size());

  return {
      {"provider.self_us.p50", Percentile(self_us, 0.50), "us"},
      {"provider.self_us.p99", Percentile(self_us, 0.99), "us"},
      {"silo.handle_us.p50", Percentile(handle_us, 0.50), "us"},
      {"silo.handle_us.p99", Percentile(handle_us, 0.99), "us"},
      {"silo.busy_frac",
       Ratio(busy_us, phase.wall_s * 1e6 * static_cast<double>(kSilos)),
       "ratio"},
      {"net.call_us.p50", Percentile(call_us, 0.50), "us"},
      {"net.call_us.p99", Percentile(call_us, 0.99), "us"},
      {"net.transport_us.p50", Percentile(transport_us, 0.50), "us"},
      {"net.transport_us.p99", Percentile(transport_us, 0.99), "us"},
      {"net.bytes_per_rpc",
       Ratio(static_cast<double>(to_silos + to_provider),
             static_cast<double>(ok_calls)),
       "B"},
      {"net.failed_calls", static_cast<double>(failed_calls), "count"},
  };
}

// Single-threaded replay of the workload's ranges through the index and
// core functions, outside any timed window: mean µs per call.
void ReplayLayers(QuerySource* source, World* world,
                  const fra::ServiceProvider& provider, Metrics* out) {
  std::vector<fra::QueryRange> ranges;
  for (const fra::FraQuery& query : source->queries()) {
    if (ranges.size() == kReplayRanges) break;
    ranges.push_back(query.range);
  }
  const double n = static_cast<double>(ranges.size());
  const fra::GridIndex& merged = provider.merged_grid();
  const std::vector<int>& silo_ids = provider.silo_ids();
  // Ranges go to silos round robin; sum0 is what the provider sends
  // (the silo's own grid count over the intersecting cells).
  std::vector<double> sum0(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    sum0[i] = static_cast<double>(
        provider.silo_grid(silo_ids[i % silo_ids.size()])
            .IntersectingCellsAggregate(ranges[i])
            .count);
  }
  const auto mean_us = [&](const auto& fn) {
    fra::Timer timer;
    for (size_t i = 0; i < ranges.size(); ++i) fn(i);
    return timer.ElapsedMicros() / n;
  };
  double sink = 0.0;
  size_t boundary = 0;
  double level_sum = 0.0;
  const double prefix_us = mean_us([&](size_t i) {
    sink += static_cast<double>(
        merged.IntersectingCellsAggregate(ranges[i]).count);
  });
  const double classify_us = mean_us([&](size_t i) {
    boundary += merged.ClassifyRangeCells(ranges[i]).boundary_cells.size();
  });
  const double rtree_us = mean_us([&](size_t i) {
    sink += static_cast<double>(
        world->silo(i % kSilos).ExactRangeAggregate(ranges[i]).count);
  });
  const double lsr_boundary_us = mean_us([&](size_t i) {
    sink += static_cast<double>(world->silo(i % kSilos)
                                    .BoundaryCellContributions(
                                        ranges[i], true, kEpsilon, kDelta,
                                        sum0[i])
                                    .size());
  });
  for (size_t i = 0; i < ranges.size(); ++i) {
    int level = 0;
    sink += world->silo(i % kSilos)
                .LsrRangeAggregate(ranges[i], kEpsilon, kDelta, sum0[i],
                                   &level)
                .sum;
    level_sum += level;
  }
  g_sink = sink;
  out->insert(out->end(),
              {
                  {"index.grid_prefix_us", prefix_us, "us"},
                  {"index.grid_classify_us", classify_us, "us"},
                  {"index.boundary_cells", static_cast<double>(boundary) / n,
                   "count"},
                  {"index.rtree_exact_us", rtree_us, "us"},
                  {"core.lsr_boundary_us", lsr_boundary_us, "us"},
                  {"core.lsr_level.mean", level_sum / n, "count"},
              });
}

// The provider's answer-cache counters; zero without a cache.
struct CacheCounters {
  fra::AnswerCache::Counters exact;
  fra::TileCache::Counters tiles;
};

CacheCounters ReadCache(const fra::ServiceProvider& provider) {
  CacheCounters counters;
  if (provider.cache() != nullptr) {
    counters.exact = provider.cache()->exact().counters();
    counters.tiles = provider.cache()->tiles().counters();
  }
  return counters;
}

// One traced phase and the counters read around it.
struct TracedLeg {
  std::unique_ptr<Stack> stack;
  Phase phase;
  Metrics spans;  // SpanMetrics
  CacheCounters cache_before, cache_after;
  fra::BufferPool::Stats pool_before, pool_after;
  uint64_t audits = 0;
};

// Runs `bench` on a fresh provider over `world`'s silos with the
// decorators in place: warmed up, then measured. Correctness-gate and
// wire-truth failures go to `failures`.
TracedLeg RunTraced(Bench* bench, Workload workload, World* world,
                    const Limit& warmup, const Limit& measured,
                    std::vector<std::string>* failures) {
  TracedLeg leg;
  leg.stack = BuildStack(workload, world, true).ValueOrDie();
  bench->Run(world, leg.stack.get(), warmup);
  leg.stack->calls.Take();
  leg.stack->handles.Take();
  fra::ServiceProvider& provider = *leg.stack->provider;
  leg.pool_before = fra::BufferPool::Default().stats();
  leg.cache_before = ReadCache(provider);
  const uint64_t audits_before = provider.auditor()->snapshot().audited;
  leg.phase = bench->Run(world, leg.stack.get(), measured);
  leg.pool_after = fra::BufferPool::Default().stats();
  leg.cache_after = ReadCache(provider);
  leg.audits = provider.auditor()->snapshot().audited - audits_before;
  if (!leg.phase.mismatch.empty()) failures->push_back(leg.phase.mismatch);
  leg.spans = SpanMetrics(workload, leg.phase, leg.stack.get(), failures);
  const uint64_t lookups =
      (leg.cache_after.exact.hits - leg.cache_before.exact.hits) +
      (leg.cache_after.exact.misses - leg.cache_before.exact.misses);
  if (provider.cache() != nullptr && lookups != leg.phase.attempted) {
    failures->push_back("cache: hits + misses " + std::to_string(lookups) +
                        " != queries " + std::to_string(leg.phase.attempted));
  }
  return leg;
}

// The TCP leg's metrics, prefixed "tcp.", then the scrape and buffer-pool
// metrics, which only the TCP path exercises.
Metrics TcpLegMetrics(const TracedLeg& leg) {
  Metrics out;
  out.push_back({"tcp.qps", Qps(leg.phase), "1/s"});
  out.push_back({"tcp.p99_us", P99Us(leg.phase), "us"});
  for (const Metric& metric : leg.spans) {
    out.push_back({"tcp." + metric.name, metric.value, metric.unit});
  }
  const double hits =
      static_cast<double>(leg.pool_after.hits - leg.pool_before.hits);
  const double misses =
      static_cast<double>(leg.pool_after.misses - leg.pool_before.misses);
  out.insert(out.end(),
             {
                 {"obs.scrape_ms.p50", Percentile(leg.phase.scrape_ms, 0.50),
                  "ms"},
                 {"util.bufpool_hit_ratio", Ratio(hits, hits + misses),
                  "ratio"},
                 {"util.bufpool_misses_per_query",
                  Ratio(misses, static_cast<double>(leg.phase.attempted)),
                  "count"},
             });
  return out;
}

// --- Output ------------------------------------------------------------------

// Prints every metric as a table row, then the result line with the
// first `listed` metrics.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Metrics& metrics, size_t listed) {
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %24.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < listed; ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  Workload workload = Workload::kInprocEstimator;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t batches = 0;  // fixed batch count (tests); 0 = run for `seconds`
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "inproc_estimator") {
        args->workload = Workload::kInprocEstimator;
      } else if (value == "tcp_fanout") {
        args->workload = Workload::kTcpFanout;
      } else if (value == "hot_ingest") {
        args->workload = Workload::kHotIngest;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--batches") {
      args->batches = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fra_perfbench --workload "
                 "inproc_estimator|tcp_fanout|hot_ingest --seed N "
                 "--seconds S --trace 0|1 [--batches N]\n");
    return 2;
  }
  const Workload workload = args.workload;
  const Corpus corpus = MakeCorpus().ValueOrDie();
  Bench bench(workload, args.seed, corpus);

  std::unique_ptr<World> world;
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    world.reset();
    double seconds = 0.0;
    FRA_CHECK_OK(SetUp(workload, corpus, &world, &stack, &seconds));
    setups.push_back(seconds);
  }
  const double index_mb = IndexMb(world.get(), *stack->provider);
  if (workload != Workload::kTcpFanout &&
      stack->provider->RecommendAlgorithm(true) != bench.algorithm()) {
    std::fprintf(stderr, "%s: RecommendAlgorithm(true) is not NonIID-est+LSR\n",
                 WorkloadName(workload));
    return 1;
  }

  // Warm-up (untimed): connection pools, buffer pool, tile cache. A traced
  // run splits its measured time between the plain phase, the traced
  // phase and the TCP leg.
  const Limit warmup{std::min(1.0, args.seconds), args.batches > 0 ? 2u : 0u};
  const Limit measured{args.trace ? args.seconds / 3 : args.seconds,
                       args.batches};
  bench.Run(world.get(), stack.get(), warmup);
  const Phase plain = bench.Run(world.get(), stack.get(), measured);
  Metrics e2e = EndToEnd(plain, Percentile(setups, 0.5), index_mb);
  std::vector<std::string> failures;
  if (!plain.mismatch.empty()) failures.push_back(plain.mismatch);
  size_t attempted = plain.attempted;
  size_t failed = plain.failed;

  Metrics report;
  if (!args.trace) {
    std::printf(
        "%s seed %llu stream %016llx: %zu queries in %zu batches, %.2f s "
        "timed\n",
        WorkloadName(workload), static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(bench.source().Fingerprint()),
        plain.attempted, plain.batches, plain.wall_s);
    std::printf("  window qps:");
    for (const Window& w : plain.windows) {
      std::printf(" %.0f", Ratio(static_cast<double>(w.attempted - w.failed),
                                 w.wall_s));
    }
    std::printf(" (%zu windows left out for steal)\n", plain.stolen_windows);
    report = e2e;
  } else if (failures.empty()) {
    // The traced run: a fresh provider on the same silos, with the
    // decorators in place, then the index/core replay.
    stack.reset();
    TracedLeg traced = RunTraced(&bench, workload, world.get(), warmup,
                                 measured, &failures);
    attempted += traced.phase.attempted;
    failed += traced.phase.failed;
    report = traced.spans;
    const double ingests = static_cast<double>(traced.phase.ingests);
    report.insert(
        report.end(),
        {
            {"provider.sync_ms", Ratio(traced.phase.sync_s * 1e3, ingests),
             "ms"},
            {"silo.ingest_ms", Ratio(traced.phase.silo_ingest_s * 1e3, ingests),
             "ms"},
            {"silo.compactions", static_cast<double>(traced.phase.compactions),
             "count"},
        });
    ReplayLayers(&bench.source(), world.get(), *traced.stack->provider,
                 &report);

    const CacheCounters& before = traced.cache_before;
    const CacheCounters& after = traced.cache_after;
    const auto delta = [](uint64_t later, uint64_t earlier) {
      return static_cast<double>(later - earlier);
    };
    const double exact_hits = delta(after.exact.hits, before.exact.hits);
    const double exact_misses = delta(after.exact.misses, before.exact.misses);
    const double tile_hits = delta(after.tiles.hits, before.tiles.hits);
    const double tile_misses = delta(after.tiles.misses, before.tiles.misses);
    report.insert(
        report.end(),
        {
            {"cache.exact_hit_ratio",
             Ratio(exact_hits, exact_hits + exact_misses), "ratio"},
            {"cache.tile_hit_ratio", Ratio(tile_hits, tile_hits + tile_misses),
             "ratio"},
            {"cache.exact_evictions",
             delta(after.exact.evictions, before.exact.evictions), "count"},
            {"cache.tile_invalidations",
             delta(after.tiles.invalidations, before.tiles.invalidations),
             "count"},
            {"obs.audits", static_cast<double>(traced.audits), "count"},
            {"trace.overhead_frac",
             1.0 - Ratio(Qps(traced.phase), e2e[0].value), "ratio"},
        });
    std::printf("%s seed %llu traced: %zu queries, %.2f s timed\n",
                WorkloadName(workload),
                static_cast<unsigned long long>(args.seed),
                traced.phase.attempted, traced.phase.wall_s);
    traced.stack.reset();
    stack.reset();
    world.reset();

    // The TCP leg: tcp_fanout's workload (EXACT over loopback TCP, /metrics
    // scraped) on silos of its own, so every traced run measures the
    // reactor path. On tcp_fanout it is the traced phase above.
    if (workload == Workload::kTcpFanout) {
      const Metrics tcp = TcpLegMetrics(traced);
      report.insert(report.end(), tcp.begin(), tcp.end());
    } else {
      Bench tcp_bench(Workload::kTcpFanout, args.seed, corpus);
      std::unique_ptr<World> tcp_world =
          MakeWorld(Workload::kTcpFanout, corpus, corpus.partitions)
              .ValueOrDie();
      const Limit tcp_measured{
          measured.seconds,
          std::min(measured.batches, kTcpLegMaxBatches)};
      TracedLeg tcp = RunTraced(&tcp_bench, Workload::kTcpFanout,
                                tcp_world.get(), warmup, tcp_measured,
                                &failures);
      tcp.stack.reset();
      attempted += tcp.phase.attempted;
      failed += tcp.phase.failed;
      const Metrics metrics = TcpLegMetrics(tcp);
      report.insert(report.end(), metrics.begin(), metrics.end());
      std::printf("tcp_fanout leg: %zu queries, %.2f s timed\n",
                  tcp.phase.attempted, tcp.phase.wall_s);
    }
    // The end-to-end metrics that read 0 on some workload.
    report.insert(report.end(), e2e.begin() + kListedEndToEnd, e2e.end());
  }

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAILED %s\n", failure.c_str());
  }
  stack.reset();
  world.reset();
  PrintResult(failures.empty(), attempted, failed, report,
              args.trace ? report.size() : kListedEndToEnd);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
