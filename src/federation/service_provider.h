#ifndef FRA_FEDERATION_SERVICE_PROVIDER_H_
#define FRA_FEDERATION_SERVICE_PROVIDER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "cache/provider_cache.h"
#include "federation/query.h"
#include "federation/silo_health.h"
#include "index/grid_index.h"
#include "net/network.h"
#include "net/request_coalescer.h"
#include "obs/accuracy_auditor.h"
#include "obs/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "util/query_record.h"
#include "util/random.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace fra {

/// The federation's service provider: the only party a client talks to.
///
/// On construction it runs Alg. 1 — it requests the grid index g_i from
/// every silo over the network and merges them into g_0 — after which it
/// can execute FRA queries with any of the paper's six algorithms:
///
///   * EXACT / OPTA fan out to every silo concurrently (one leg per
///     silo on the fan-out pool) and sum the (exact /
///     histogram-estimated) partial answers in silo order.
///   * IID-est (Alg. 2) samples ONE silo uniformly at random, fetches its
///     partial answer res_k, and rescales by the grid ratio
///     sum_0 / sum_k computed from g_0 and g_k via prefix sums.
///   * NonIID-est (Alg. 3) samples one silo and rescales per grid cell;
///     cells fully covered by R contribute their exact g_0 aggregate
///     (Sec. 4.2.2 remark), so only boundary cells travel on the wire.
///   * The +LSR variants answer the silo-local queries on the LSR-Forest
///     level chosen by Lemma 1 (sum0 = the sampled silo's grid estimate).
///
/// ExecuteBatch implements Alg. 4: every query is dispatched to a worker
/// pool with one thread per silo, so queries whose sampled silos differ
/// run in parallel — the source of the paper's >250 queries/s throughput.
class ServiceProvider {
 public:
  struct Options {
    /// Approximation ratio of LSR-Forest local queries (paper eps).
    double epsilon = 0.1;
    /// Failure probability bound of LSR-Forest local queries (paper delta).
    double delta = 0.01;
    /// Seed for silo sampling; batches derive one stream per query.
    uint64_t seed = 20220415;
    /// Worker threads for ExecuteBatch; 0 means one per silo.
    size_t batch_threads = 0;
    /// Worker threads for the EXACT/OPTA fan-out and the Alg. 1 grid
    /// fetch (one leg per silo, overlapping the round trips); 0 means
    /// one per silo. Fan-out legs are leaf tasks on a pool separate
    /// from the batch pool, so nested use from ExecuteBatch workers
    /// cannot deadlock.
    size_t fanout_threads = 0;
    /// Resample a different silo when the sampled one is unreachable or
    /// answers with an error; a query fails only when every candidate
    /// silo has failed.
    bool retry_on_silo_failure = true;
    /// NonIID-est ships per-cell contributions for boundary cells only
    /// (Sec. 4.2.2 remark). Setting false transmits the full Alg. 3
    /// vector — kept for the communication ablation.
    bool non_iid_boundary_only = true;
    /// Silos sampled per query by the single-silo algorithms. The paper
    /// uses 1; higher values average k independent per-silo estimates,
    /// trading communication (k exchanges) for lower variance. Clamped
    /// to the number of candidate silos.
    size_t silos_per_query = 1;
    /// Heterogeneity above which RecommendAlgorithm picks the NonIID
    /// estimator family (mean total-variation distance, see
    /// MeasureHeterogeneity).
    double heterogeneity_threshold = 0.05;
    /// Track per-silo health at the network boundary and steer the
    /// single-silo sampling toward healthy silos (docs/observability.md,
    /// "Silo health").
    bool track_silo_health = true;
    /// State-machine tuning of the health tracker.
    SiloHealthTracker::Options health;
    /// Fraction of successful approximate queries re-executed EXACT in
    /// the background to audit the (eps, delta) guarantee; 0 disables
    /// the auditor.
    double audit_sample_rate = 0.01;
    /// Per-silo request coalescing (docs/wire_protocol.md, "Batch
    /// frames"): data-plane silo requests issued by concurrent queries
    /// are staged per silo and shipped as one kAggregateBatchRequest
    /// frame when `max_batch_size` requests are staged or the oldest has
    /// waited `max_batch_delay_us`. Amortises framing and syscalls under
    /// Alg. 4 load; a lone query pays at most the delay. Control-plane
    /// traffic (Alg. 1 grid fetch, SyncGrids) always goes direct.
    /// Needs a reactor transport (TcpNetwork): Create rejects it over a
    /// network whose reactor() is null.
    struct CoalescingOptions {
      bool enabled = false;
      size_t max_batch_size = 16;
      int max_batch_delay_us = 200;
    };
    CoalescingOptions coalescing;
    /// Provider-side answer cache (docs/caching.md): an LRU of finalised
    /// answers keyed on (range, F, algorithm, eps, delta, data epoch).
    /// SyncGrids bumps the data epoch and clears the LRU. Off by default:
    /// cached answers refresh on SyncGrids only, a freshness trade the
    /// deployment must opt into.
    struct CacheOptions {
      bool enabled = false;
      /// LRU capacity (answers).
      size_t exact_capacity = 1024;
    };
    CacheOptions cache;
    /// Slow-query flight recorder (docs/observability.md, "Flight
    /// recorder"): a bounded ring of the last `capacity` queries that ran
    /// slower than `slow_threshold_micros` or failed, each carrying its
    /// stitched span tree, per-silo outcomes and cache disposition.
    /// Served at /debug/flightz. The fast-path cost is one atomic load
    /// per query, so it stays on by default.
    struct FlightRecorderOptions {
      bool enabled = true;
      size_t capacity = 64;
      double slow_threshold_micros = 50'000.0;
    };
    FlightRecorderOptions flight_recorder;
    /// Continuous profiling (docs/observability.md, "Continuous
    /// profiling"): with `enabled`, Create() starts the process-wide
    /// sampling profiler at `hz` and the provider's destructor stops it
    /// (unless something else had already started it — the profiler is a
    /// process singleton). /debug/profilez serves the collapsed stacks
    /// either way.
    struct ProfilingOptions {
      bool enabled = false;
      int hz = 19;
    };
    ProfilingOptions profiling;
    /// Head-sampling for query traces: with the Tracer enabled, every
    /// n-th Execute/ExecuteBatch query (provider-wide counter, first
    /// query always) starts a fresh trace; the others run untraced, so
    /// per-query tracing cost — span capture, the wire envelope, silo
    /// span shipping, ring residency — scales down by n
    /// (BENCH_observability_overhead.json quantifies it). 1 traces every
    /// query — the setting for interactive investigation. A trace id the
    /// caller installed via ScopedTraceId is always honored as-is,
    /// sampled or not. Flight-recorder records of unsampled queries
    /// carry silo outcomes and cache disposition but no span tree.
    size_t trace_sample_every_n = 8;
  };

  /// Runs Alg. 1 against every silo registered with `network`.
  /// `network` must outlive the provider.
  static Result<std::unique_ptr<ServiceProvider>> Create(
      Network* network, const Options& options);
  static Result<std::unique_ptr<ServiceProvider>> Create(
      Network* network) {
    return Create(network, Options());
  }

  /// Drains in-flight background audits and detaches the health tracker
  /// from the network.
  ~ServiceProvider();

  /// Executes one FRA query. Single-silo algorithms sample the silo from
  /// the provider's seeded generator. MIN/MAX require kExact.
  Result<double> Execute(const FraQuery& query, FraAlgorithm algorithm);

  /// Deterministic-silo variant for tests and unbiasedness studies.
  Result<double> ExecuteWithSilo(const FraQuery& query,
                                 FraAlgorithm algorithm, int silo_id);

  /// Alg. 4: processes `queries` in parallel across the silo pool.
  /// Results are positionally aligned with `queries`. When
  /// `latencies_seconds` is non-null it receives one wall-clock duration
  /// per query (same order), enabling tail-latency reporting.
  ///
  /// Failure handling: every query runs to completion regardless of its
  /// neighbours. With `per_query_status` non-null the call returns the
  /// full result vector (failed slots NaN) plus one Status per query;
  /// with it null, any failure fails the whole call with a status naming
  /// the first failing query's index.
  Result<std::vector<double>> ExecuteBatch(
      const std::vector<FraQuery>& queries, FraAlgorithm algorithm,
      std::vector<double>* latencies_seconds = nullptr,
      std::vector<Status>* per_query_status = nullptr);

  /// Mean total-variation distance between each silo's spatial (count)
  /// distribution and the federation-wide one, computed from the grids
  /// the provider already holds. ~0 for IID partitions (sampling noise
  /// only), grows with per-silo spatial skew.
  double MeasureHeterogeneity() const;

  /// Picks the estimator family for this federation: NonIID-est when
  /// MeasureHeterogeneity() exceeds Options::heterogeneity_threshold
  /// (per-cell rescaling pays off), IID-est otherwise (cheaper comm).
  FraAlgorithm RecommendAlgorithm(bool use_lsr) const;

  /// Executes with the recommended estimator.
  Result<double> ExecuteAuto(const FraQuery& query, bool use_lsr = true) {
    return Execute(query, RecommendAlgorithm(use_lsr));
  }

  /// Streaming-ingest support: pulls each silo's grid cells changed since
  /// the last sync and applies them to the retained g_i and the merged
  /// g_0, so the estimators see fresh distributions. Communication is
  /// proportional to the number of *changed* cells, not the grid size.
  /// Must not run concurrently with Execute/ExecuteBatch (control-plane
  /// operation, like Create).
  Status SyncGrids();

  const GridIndex& merged_grid() const { return merged_grid_; }
  const GridIndex& silo_grid(int silo_id) const;
  const std::vector<int>& silo_ids() const { return silo_ids_; }
  size_t num_silos() const { return silo_ids_.size(); }

  double epsilon() const { return options_.epsilon; }
  double delta() const { return options_.delta; }
  void set_epsilon(double epsilon) { options_.epsilon = epsilon; }
  void set_delta(double delta) { options_.delta = delta; }

  /// Provider-side index memory: g_0 plus the m retained silo grids.
  size_t GridMemoryUsage() const;

  /// Communication counters of the underlying network.
  CommStats::Snapshot comm() const { return network_->stats().Read(); }

  /// The per-silo health tracker (null when track_silo_health is off).
  SiloHealthTracker* health() const { return health_.get(); }
  /// The guarantee auditor (null when audit_sample_rate is 0).
  AccuracyAuditor* auditor() const { return auditor_.get(); }
  /// The answer cache (null when Options::cache is disabled).
  ProviderCache* cache() const { return cache_.get(); }
  /// The slow-query flight recorder (null when disabled).
  FlightRecorder* flight_recorder() const { return recorder_.get(); }
  /// The per-query cost ledger (docs/observability.md, "Query cost
  /// ledger"): every query's record folded into per-{algorithm,
  /// aggregate, cache-outcome} rollups. Always on.
  QueryCostLedger* cost_ledger() const { return cost_ledger_.get(); }

  /// Last data version reported by each silo over the delta-sync path
  /// (0 until the first SyncGrids after an ingest).
  std::map<int, uint64_t> silo_data_versions() const;

  /// Blocks until every background audit queued so far has completed
  /// (tests and the metrics_dump demo read auditor counters after this).
  void WaitForAudits();

  const Options& options() const { return options_; }

 private:
  explicit ServiceProvider(Network* network, const Options& options)
      : network_(network), options_(options), rng_(options.seed) {}

  /// One uniform 64-bit draw from the provider's stream (thread safe).
  uint64_t NextDraw();

  /// The trace id a query should run under: the caller's installed id
  /// when present, a fresh one for every trace_sample_every_n-th query
  /// while the Tracer is enabled, 0 otherwise.
  uint64_t SampledTraceId();

  /// The one per-query path behind Execute and every ExecuteBatch worker:
  /// builds the query's QueryRecord (trace id, labels, status, duration,
  /// cost, silo outcomes), installs it for the query's duration, and
  /// hands the finished record to every consumer — the query metrics,
  /// the cost ledger, the flight recorder and the audit draw. `*seconds`
  /// (optional) receives the query's wall-clock duration.
  Result<double> ExecuteRecorded(const FraQuery& query, FraAlgorithm algorithm,
                                 uint64_t draw, double* seconds = nullptr);

  /// Cache-aware body of ExecuteRecorded: cache lookup, then the normal
  /// execution path, then insert. `*cache` receives the record's cache
  /// label: `off` (no cache configured), `hit` (answer replayed) or
  /// `miss` (cache on, normal path taken).
  Result<double> ExecuteCached(const FraQuery& query, FraAlgorithm algorithm,
                               uint64_t draw, std::string_view* cache);

  /// Executes a single-silo algorithm with the silo chosen from `draw`:
  /// candidates are the relevant silos (Sec. 4.2.2 remark), and failures
  /// rotate to the next candidate (when enabled).
  Result<double> ExecuteSampled(const FraQuery& query, FraAlgorithm algorithm,
                                uint64_t draw);

  Result<AggregateSummary> RunFanOut(const QueryRange& range, bool histogram);
  Result<AggregateSummary> RunIidEst(const QueryRange& range, int silo_id,
                                     bool use_lsr);
  Result<AggregateSummary> RunNonIidEst(const QueryRange& range, int silo_id,
                                        bool use_lsr);
  Result<AggregateSummary> RunAlgorithm(const QueryRange& range,
                                        FraAlgorithm algorithm, int silo_id);

  /// Data-plane exchange with one silo: through the coalescer when
  /// enabled, a direct Network::Call otherwise. Notes the exchange into
  /// the running query's record (QueryRecordScope::Current()), if any.
  Result<std::vector<uint8_t>> CallSilo(int silo_id,
                                        const std::vector<uint8_t>& request);

  /// Audits the successful answer `estimate` of a finished query with
  /// probability audit_sample_rate: queues an EXACT re-execution of
  /// `query` on the batch pool and scores the estimate against it
  /// (fire-and-forget; WaitForAudits drains). Cache-served answers are
  /// audit-eligible even for EXACT/OPTA — staleness is exactly what the
  /// auditor should surface for them.
  void MaybeAuditAsync(const FraQuery& query, FraAlgorithm algorithm,
                       const QueryRecord& record, double estimate);

  /// Captures a finished query into the flight recorder when it was slow
  /// or failed: its record plus the query text and — when it was traced
  /// — the stitched span tree pulled from the Tracer at completion time.
  void MaybeRecordFlight(const FraQuery& query, const QueryRecord& record);

  Network* network_;
  Options options_;
  std::vector<int> silo_ids_;
  std::map<int, GridIndex> silo_grids_;
  GridIndex merged_grid_;
  std::unique_ptr<ThreadPool> batch_pool_;
  // Leaf pool for per-silo fan-out legs (RunFanOut, Create's grid
  // fetch); separate from batch_pool_ so a batch worker that fans out
  // blocks only on leaf tasks, never on tasks queued behind itself.
  std::unique_ptr<ThreadPool> fanout_pool_;
  std::unique_ptr<SiloHealthTracker> health_;
  std::unique_ptr<AccuracyAuditor> auditor_;
  // Micro-batches data-plane silo calls (null when coalescing is off).
  std::unique_ptr<RequestCoalescer> coalescer_;
  // Answer cache (null when Options::cache is disabled).
  std::unique_ptr<ProviderCache> cache_;
  // Slow-query flight recorder (null when disabled).
  std::unique_ptr<FlightRecorder> recorder_;
  // Per-query cost rollups.
  std::unique_ptr<QueryCostLedger> cost_ledger_ =
      std::make_unique<QueryCostLedger>();
  // True when Create() started the process-wide profiler on behalf of
  // this provider; the destructor stops it then.
  bool started_profiler_ = false;
  // Head-sampling counter behind Options::trace_sample_every_n.
  std::atomic<uint64_t> trace_sample_counter_{0};
  mutable std::mutex versions_mu_;  // guards silo_data_versions_
  std::map<int, uint64_t> silo_data_versions_;
  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace fra

#endif  // FRA_FEDERATION_SERVICE_PROVIDER_H_
