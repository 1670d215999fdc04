#include "federation/service_provider.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "net/message.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace fra {
namespace {

// Every query that enters through Execute / ExecuteBatch lands here once:
// outcome counter plus the per-algorithm latency histogram the throughput
// bench and metrics_dump read back (see docs/observability.md). Registry
// references stay valid for its lifetime, so resolve each (algorithm,
// outcome) instrument once instead of paying the label-map allocations
// and registry lock on every query.
void RecordQueryMetrics(const QueryRecord& record) {
  struct Instruments {
    std::string_view algorithm;
    Counter* ok = nullptr;
    Counter* error = nullptr;
    Histogram* latency = nullptr;
  };
  static const std::array<Instruments, 6> kInstruments = [] {
    std::array<Instruments, 6> out{};
    for (FraAlgorithm a :
         {FraAlgorithm::kExact, FraAlgorithm::kOpta, FraAlgorithm::kIidEst,
          FraAlgorithm::kIidEstLsr, FraAlgorithm::kNonIidEst,
          FraAlgorithm::kNonIidEstLsr}) {
      const std::string name = FraAlgorithmToString(a);
      MetricsRegistry& registry = MetricsRegistry::Default();
      out[static_cast<size_t>(a)] = {
          FraAlgorithmToString(a),
          &registry.GetCounter("fra_queries_total",
                               {{"algorithm", name}, {"result", "ok"}}),
          &registry.GetCounter("fra_queries_total",
                               {{"algorithm", name}, {"result", "error"}}),
          &registry.GetHistogram("fra_query_latency_microseconds",
                                 {{"algorithm", name}})};
    }
    return out;
  }();
  for (const Instruments& instruments : kInstruments) {
    if (instruments.algorithm != record.algorithm) continue;
    (record.failed ? instruments.error : instruments.ok)->Increment();
    instruments.latency->Observe(record.duration_micros);
    return;
  }
}

// Ratio estimate ans' = res * (numer / denom) (Alg. 2 line 8). The paper
// rescales by ONE factor — the count ratio of the grid aggregates — and
// every component follows it. Scaling sum/sum_sqr by their own
// component-wise ratios (an earlier revision did) breaks down whenever
// the sampled silo's denominator component is 0 or near 0 while objects
// exist (measure values can be zero or negative, so their sums cancel):
// the estimate silently collapsed to 0 or exploded. The count ratio is
// robust — counts are non-negative and denom == 0 implies the sampled
// silo saw nothing at all, leaving 0 as the only estimate.
AggregateSummary RatioEstimate(const AggregateSummary& res, uint64_t numer,
                               uint64_t denom) {
  AggregateSummary out;
  if (denom > 0) {
    const double scale =
        static_cast<double>(numer) / static_cast<double>(denom);
    out.count = static_cast<uint64_t>(
        std::llround(static_cast<double>(res.count) * scale));
    out.sum = res.sum * scale;
    out.sum_sqr = res.sum_sqr * scale;
  }
  return out;
}

// Human-readable query text for flight-recorder records, e.g.
// "SUM over rect[(0, 0)..(10, 10)]".
std::string DescribeQuery(const FraQuery& query) {
  std::ostringstream out;
  out << AggregateKindToString(query.kind) << " over ";
  if (query.range.is_circle()) {
    const Circle& c = query.range.circle();
    out << "circle(center=(" << c.center.x << ", " << c.center.y
        << "), radius=" << c.radius << ")";
  } else {
    const Rect& r = query.range.rect();
    out << "rect[(" << r.min.x << ", " << r.min.y << ")..(" << r.max.x
        << ", " << r.max.y << ")]";
  }
  return out.str();
}

// The within-cell uniformity assumption: adds the federation-wide cell
// aggregate `g0_cell`, scaled by the fraction of the cell's area that
// `range` covers, to `estimate`. Serves NonIID-est's boundary cells where
// the sampled silo is empty.
void AddAreaFraction(const GridIndex& grid, const QueryRange& range,
                     uint32_t cell_id, const AggregateSummary& g0_cell,
                     AggregateSummary* estimate) {
  const Rect cell_rect =
      grid.CellRect(grid.RowOf(cell_id), grid.ColOf(cell_id));
  const double area = cell_rect.Area();
  const double fraction =
      area > 0.0
          ? std::clamp(range.IntersectionArea(cell_rect) / area, 0.0, 1.0)
          : 0.0;
  estimate->count += static_cast<uint64_t>(
      std::llround(static_cast<double>(g0_cell.count) * fraction));
  estimate->sum += g0_cell.sum * fraction;
  estimate->sum_sqr += g0_cell.sum_sqr * fraction;
}

}  // namespace

Result<std::unique_ptr<ServiceProvider>> ServiceProvider::Create(
    Network* network, const Options& options) {
  if (network == nullptr) {
    return Status::InvalidArgument("null network");
  }
  if (network->num_silos() == 0) {
    return Status::InvalidArgument("federation has no registered silos");
  }
  if (options.epsilon <= 0.0 || options.delta <= 0.0 ||
      options.delta >= 1.0) {
    return Status::InvalidArgument("require epsilon > 0 and delta in (0,1)");
  }
  if (options.coalescing.enabled) {
    if (options.coalescing.max_batch_size == 0) {
      return Status::InvalidArgument("coalescing.max_batch_size must be >= 1");
    }
    if (network->reactor() == nullptr) {
      return Status::InvalidArgument(
          "coalescing needs a reactor transport (TcpNetwork)");
    }
  }

  auto provider =
      std::unique_ptr<ServiceProvider>(new ServiceProvider(network, options));
  provider->silo_ids_ = network->silo_ids();
  std::sort(provider->silo_ids_.begin(), provider->silo_ids_.end());

  const size_t threads = options.batch_threads > 0
                             ? options.batch_threads
                             : provider->silo_ids_.size();
  provider->batch_pool_ = std::make_unique<ThreadPool>(threads);
  const size_t fanout_threads = options.fanout_threads > 0
                                    ? options.fanout_threads
                                    : provider->silo_ids_.size();
  provider->fanout_pool_ = std::make_unique<ThreadPool>(fanout_threads);

  if (options.coalescing.enabled) {
    RequestCoalescer::Options coalescer_options;
    coalescer_options.max_batch_size = options.coalescing.max_batch_size;
    coalescer_options.max_batch_delay_us = options.coalescing.max_batch_delay_us;
    provider->coalescer_ =
        std::make_unique<RequestCoalescer>(network, coalescer_options);
  }

  // Observability wiring before the first network call, so the Alg. 1
  // grid fetch already feeds the health tracker.
  if (options.track_silo_health) {
    provider->health_ = std::make_unique<SiloHealthTracker>(options.health);
    network->set_call_observer(provider->health_.get());
  }
  if (options.audit_sample_rate > 0.0) {
    AccuracyAuditor::Options audit_options;
    audit_options.sample_rate = options.audit_sample_rate;
    audit_options.seed = options.seed ^ 0xA0D17ULL;
    provider->auditor_ = std::make_unique<AccuracyAuditor>(audit_options);
  }
  if (options.flight_recorder.enabled) {
    FlightRecorder::Options recorder_options;
    recorder_options.capacity = options.flight_recorder.capacity;
    recorder_options.slow_threshold_micros =
        options.flight_recorder.slow_threshold_micros;
    provider->recorder_ = std::make_unique<FlightRecorder>(recorder_options);
  }
  if (options.profiling.enabled) {
    // The profiler is a process singleton; if another provider (or the
    // admin /debug/profilez endpoint) already runs it, keep theirs.
    ContinuousProfiler::Options profiler_options;
    profiler_options.hz = options.profiling.hz;
    const Status started = ContinuousProfiler::Get().Start(profiler_options);
    if (started.ok()) {
      provider->started_profiler_ = true;
    } else {
      FRA_LOG(WARN) << "continuous profiler not started: "
                    << started.ToString();
    }
  }

  // Alg. 1: fetch every silo's grid index and merge them into g_0. The
  // fetches (round trip + deserialize) run one per silo on the fan-out
  // pool — over TCP the setup cost is max(silo latency), not the sum.
  const std::vector<uint8_t> request = EncodeBuildGridRequest();
  const size_t num_silos = provider->silo_ids_.size();
  std::vector<Result<GridIndex>> fetched(num_silos, GridIndex());
  const auto fetch_grid = [&](size_t i) -> Result<GridIndex> {
    FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                         network->Call(provider->silo_ids_[i], request));
    FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> grid_bytes,
                         DecodeGridPayloadResponse(response));
    BinaryReader reader(grid_bytes);
    GridIndex grid;
    FRA_RETURN_NOT_OK(GridIndex::Deserialize(&reader, &grid));
    return grid;
  };
  std::vector<std::future<void>> fetches;
  fetches.reserve(num_silos > 0 ? num_silos - 1 : 0);
  for (size_t i = 1; i < num_silos; ++i) {
    fetches.push_back(provider->fanout_pool_->Submit(
        [&fetched, &fetch_grid, i] { fetched[i] = fetch_grid(i); }));
  }
  fetched[0] = fetch_grid(0);  // the caller's thread takes one leg
  for (auto& fetch : fetches) fetch.get();
  for (size_t i = 0; i < num_silos; ++i) {
    FRA_RETURN_NOT_OK(fetched[i].status());
    provider->silo_grids_.emplace(provider->silo_ids_[i],
                                  std::move(fetched[i]).ValueOrDie());
  }
  std::vector<const GridIndex*> parts;
  parts.reserve(provider->silo_grids_.size());
  for (const auto& [id, grid] : provider->silo_grids_) parts.push_back(&grid);
  FRA_ASSIGN_OR_RETURN(provider->merged_grid_, GridIndex::Merge(parts));

  if (options.cache.enabled) {
    AnswerCache::Options exact;
    exact.capacity = options.cache.exact_capacity;
    provider->cache_ = std::make_unique<ProviderCache>(exact);
  }

  // Deployment-shape gauges for the most recently created provider.
  MetricsRegistry::Default()
      .GetGauge("fra_federation_silos")
      .Set(static_cast<double>(provider->silo_ids_.size()));
  MetricsRegistry::Default()
      .GetGauge("fra_provider_grid_memory_bytes")
      .Set(static_cast<double>(provider->GridMemoryUsage()));
  return provider;
}

ServiceProvider::~ServiceProvider() {
  if (started_profiler_) ContinuousProfiler::Get().Stop();
  // In-flight background audits replay queries through the pools and the
  // caller's network; drain them while every member is still alive (the
  // fan-out pool is destroyed before the batch pool otherwise).
  if (batch_pool_ != nullptr) batch_pool_->WaitIdle();
  // Flush the coalescer (reason=shutdown) while the network and health
  // observer are still attached.
  coalescer_.reset();
  if (health_ != nullptr && network_->call_observer() == health_.get()) {
    network_->set_call_observer(nullptr);
  }
}

void ServiceProvider::WaitForAudits() {
  if (batch_pool_ != nullptr) batch_pool_->WaitIdle();
}

const GridIndex& ServiceProvider::silo_grid(int silo_id) const {
  const auto it = silo_grids_.find(silo_id);
  FRA_CHECK(it != silo_grids_.end()) << "unknown silo id " << silo_id;
  return it->second;
}

uint64_t ServiceProvider::NextDraw() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.NextUint64();
}

uint64_t ServiceProvider::SampledTraceId() {
  // An explicitly installed context always wins: the caller asked for
  // this specific query to be traced.
  const uint64_t installed = CurrentTraceId();
  if (installed != 0) return installed;
  if (!Tracer::Get().enabled()) return 0;
  const size_t n = options_.trace_sample_every_n;
  if (n <= 1) return NewTraceId();
  return trace_sample_counter_.fetch_add(1, std::memory_order_relaxed) % n == 0
             ? NewTraceId()
             : 0;
}

Result<double> ServiceProvider::Execute(const FraQuery& query,
                                        FraAlgorithm algorithm) {
  return ExecuteRecorded(
      query, algorithm, IsSingleSilo(algorithm) ? NextDraw() : 0,
      next_audit_ticket_.fetch_add(1, std::memory_order_relaxed));
}

Result<double> ServiceProvider::ExecuteRecorded(const FraQuery& query,
                                                FraAlgorithm algorithm,
                                                uint64_t draw,
                                                uint64_t ticket,
                                                double* seconds,
                                                double* cpu_mark) {
  QueryRecord record;
  // A fresh trace id for every sampled query once the Tracer is enabled
  // (Options::trace_sample_every_n); otherwise keep whatever context the
  // caller installed (0 by default, so the wire format stays
  // envelope-free).
  record.trace_id = SampledTraceId();
  record.algorithm = FraAlgorithmToString(algorithm);
  record.aggregate = AggregateKindToString(query.kind);
  const Result<double> result = [&] {
    // The wall time includes opening the scope (a thread-CPU clock read
    // unless `cpu_mark` is given) and excludes closing it and the
    // accounting after the answer.
    Timer timer;
    // Installs the record and the trace id on this thread (fan-out legs
    // re-install both on theirs); closing it charges this thread's CPU.
    QueryRecordScope scope(&record, record.trace_id, cpu_mark);
    // Batch this thread's spans (and ingested silo spans) so the whole
    // query takes the tracer's ring lock once at drain time, not once per
    // span — batch workers would otherwise serialize on it.
    std::optional<SpanCollector> span_batch;
    if (record.trace_id != 0) span_batch.emplace();
    Result<double> answer =
        ExecuteCached(query, algorithm, draw, &record.cache);
    record.duration_micros = timer.ElapsedMicros();
    if (span_batch.has_value()) {
      std::vector<SpanRecord> spans = span_batch->Take();
      span_batch.reset();  // uninstall before Ingest so it reaches the ring
      Tracer::Get().Ingest(std::move(spans), std::string());
    }
    return answer;
  }();
  record.failed = !result.ok();
  record.status = result.ok() ? "ok" : result.status().ToString();
  if (seconds != nullptr) *seconds = record.duration_micros / 1e6;

  // The finished record feeds every consumer.
  RecordQueryMetrics(record);
  cost_ledger_->Record(record);
  MaybeRecordFlight(query, record);
  if (result.ok()) MaybeAuditAsync(query, algorithm, record, *result, ticket);
  return result;
}

Result<double> ServiceProvider::ExecuteCached(const FraQuery& query,
                                              FraAlgorithm algorithm,
                                              uint64_t draw,
                                              std::string_view* cache) {
  FRA_TRACE_SPAN("provider.execute");
  *cache = cache_ == nullptr ? "off" : "miss";
  AnswerKey key;
  if (cache_ != nullptr) {
    // The data epoch is part of the key, so entries cached before a
    // SyncGrids that observed changes can never be returned afterwards.
    key = cache_->MakeKey(query.range, static_cast<uint8_t>(query.kind),
                          static_cast<uint8_t>(algorithm), options_.epsilon,
                          options_.delta);
    if (const std::optional<double> hit = cache_->exact().Lookup(key)) {
      *cache = "hit";
      return *hit;
    }
  }
  Result<double> result = IsSingleSilo(algorithm)
                              ? ExecuteSampled(query, algorithm, draw)
                              : ExecuteWithSilo(query, algorithm, -1);
  if (cache_ != nullptr && result.ok()) {
    cache_->exact().Insert(key, *result);
  }
  return result;
}

void ServiceProvider::MaybeAuditAsync(const FraQuery& query,
                                      FraAlgorithm algorithm,
                                      const QueryRecord& record,
                                      double estimate, uint64_t ticket) {
  if (auditor_ == nullptr) return;
  // EXACT/OPTA answers are deterministic replays of themselves — nothing
  // to audit — unless the cache replayed them, in which case the audit
  // measures staleness against the live federation.
  const bool from_cache = record.cache == "hit";
  const bool deterministic = algorithm == FraAlgorithm::kExact ||
                             algorithm == FraAlgorithm::kOpta;
  if (deterministic && !from_cache) return;
  if (!auditor_->ShouldAudit(ticket)) return;
  // Fire-and-forget on the batch pool: the replay's fan-out legs run on
  // the (leaf) fan-out pool, so audits queued from batch workers cannot
  // deadlock. The replay bypasses Execute so the audit traffic never
  // shows up in fra_queries_total / query latency histograms — and never
  // consults the cache, so the baseline is always live.
  const double epsilon = options_.epsilon;
  const std::string name =
      std::string(record.algorithm) + (from_cache ? "+cache" : "");
  (void)batch_pool_->Submit([this, query, estimate, epsilon, name] {
    FRA_TRACE_SPAN("provider.audit");
    const Result<double> exact =
        ExecuteWithSilo(query, FraAlgorithm::kExact, -1);
    if (exact.ok()) {
      auditor_->Record(name, estimate, *exact, epsilon);
    } else {
      auditor_->RecordFailure(name);
    }
  });
}

void ServiceProvider::MaybeRecordFlight(const FraQuery& query,
                                        const QueryRecord& record) {
  if (recorder_ == nullptr ||
      !recorder_->ShouldCapture(record.failed, record.duration_micros)) {
    return;
  }
  FlightRecorder::Record flight{record, 0, DescribeQuery(query), {}};
  // By now the trace is complete in the Tracer: the network ingests
  // response span sections before the decoders run, and the
  // provider.execute root closed before the timer was read.
  if (record.trace_id != 0) {
    flight.spans = Tracer::Get().SpansForTrace(record.trace_id);
  }
  recorder_->Add(std::move(flight));
}

Result<double> ServiceProvider::ExecuteSampled(const FraQuery& query,
                                               FraAlgorithm algorithm,
                                               uint64_t draw) {
  // The query's one walk of the grid: the relevant-silo filter, sum_0 and
  // NonIID-est's interior/boundary split all read these cells. Candidate
  // silos: per the Sec. 4.2.2 remark for non-overlapping coverage, only
  // those whose grid index reports data in cells touching the range
  // (known provider-side from Alg. 1, no comm).
  GridIndex::RangeCells cells;
  std::vector<int> candidates;
  candidates.reserve(silo_ids_.size());
  {
    FRA_TRACE_SPAN("provider.dispatch");
    cells = merged_grid_.CellsOf(query.range);
    for (const auto& [silo_id, grid] : silo_grids_) {
      if (grid.AggregateOver(cells).count > 0) candidates.push_back(silo_id);
    }
  }
  if (candidates.empty()) {
    // No silo has any object near the range: the exact answer is empty.
    AggregateSummary empty;
    double value = 0.0;
    FRA_RETURN_NOT_OK(empty.Finalize(query.kind, &value));
    return value;
  }

  if (!IsEstimable(query.kind)) {
    return Status::InvalidArgument(
        std::string(AggregateKindToString(query.kind)) +
        " requires the EXACT algorithm");
  }

  // Visit candidates in a rotated order starting from the random draw;
  // collect k per-silo estimated summaries (k = silos_per_query), skipping
  // failed silos when retry is enabled. Averaging the summaries (not the
  // finalised values) keeps AVG/STDEV consistent: the ratio is taken once
  // on the averaged components.
  //
  // With health tracking on, the rotation runs over the selectable
  // (up/degraded) candidates only, so the draw cannot land on a silo the
  // breaker has opened for. When the backoff of a down candidate has
  // elapsed, exactly one query per interval claims it as a recovery probe
  // and tries it FIRST — a successful answer readmits the silo, a failure
  // re-opens the breaker and the query rotates on as usual. All
  // candidates down and no probe due: fail open and try everyone rather
  // than failing the query without a single exchange.
  std::vector<int> order;
  order.reserve(candidates.size());
  const auto rotate_into_order = [&](const std::vector<int>& from) {
    const size_t start = static_cast<size_t>(draw % from.size());
    for (size_t i = 0; i < from.size(); ++i) {
      order.push_back(from[(start + i) % from.size()]);
    }
  };
  if (health_ != nullptr) {
    std::vector<int> selectable;
    selectable.reserve(candidates.size());
    for (int silo_id : candidates) {
      if (health_->IsSelectable(silo_id)) selectable.push_back(silo_id);
    }
    if (!selectable.empty()) rotate_into_order(selectable);
    if (options_.retry_on_silo_failure) {
      // Probing costs one attempt, so only a query that can rotate away
      // from a still-dead silo volunteers.
      for (int silo_id : candidates) {
        if (!health_->IsSelectable(silo_id) &&
            health_->TryBeginProbe(silo_id)) {
          order.insert(order.begin(), silo_id);
          break;
        }
      }
    }
    if (order.empty()) rotate_into_order(candidates);
  } else {
    rotate_into_order(candidates);
  }

  const size_t want =
      std::max<size_t>(1, std::min(options_.silos_per_query, order.size()));
  Status last_failure = Status::OK();
  AggregateSummary accumulated;
  double collected = 0.0;
  const size_t attempts = options_.retry_on_silo_failure ? order.size() : want;
  for (size_t attempt = 0; attempt < attempts && collected < want;
       ++attempt) {
    Result<AggregateSummary> partial =
        RunSampled(cells, algorithm, order[attempt]);
    if (partial.ok()) {
      accumulated.count += partial->count;
      accumulated.sum += partial->sum;
      accumulated.sum_sqr += partial->sum_sqr;
      collected += 1.0;
      continue;
    }
    if (partial.status().IsInvalidArgument()) return partial.status();
    last_failure = partial.status();
  }
  if (collected == 0.0) {
    return Status::Unavailable("all candidate silos failed; last error: " +
                               last_failure.ToString());
  }
  const AggregateSummary mean = accumulated.Scaled(1.0 / collected);
  double value = 0.0;
  FRA_RETURN_NOT_OK(mean.Finalize(query.kind, &value));
  return value;
}

Result<double> ServiceProvider::ExecuteWithSilo(const FraQuery& query,
                                                FraAlgorithm algorithm,
                                                int silo_id) {
  if (algorithm != FraAlgorithm::kExact && !IsEstimable(query.kind)) {
    return Status::InvalidArgument(
        std::string(AggregateKindToString(query.kind)) +
        " requires the EXACT algorithm");
  }
  FRA_ASSIGN_OR_RETURN(
      AggregateSummary summary,
      IsSingleSilo(algorithm)
          ? RunSampled(merged_grid_.CellsOf(query.range), algorithm, silo_id)
          : RunFanOut(query.range, algorithm == FraAlgorithm::kOpta));
  double value = 0.0;
  FRA_RETURN_NOT_OK(summary.Finalize(query.kind, &value));
  return value;
}

Result<AggregateSummary> ServiceProvider::RunSampled(
    const GridIndex::RangeCells& cells, FraAlgorithm algorithm, int silo_id) {
  switch (algorithm) {
    case FraAlgorithm::kIidEst:
      return RunIidEst(cells, silo_id, /*use_lsr=*/false);
    case FraAlgorithm::kIidEstLsr:
      return RunIidEst(cells, silo_id, /*use_lsr=*/true);
    case FraAlgorithm::kNonIidEst:
      return RunNonIidEst(cells, silo_id, /*use_lsr=*/false);
    case FraAlgorithm::kNonIidEstLsr:
      return RunNonIidEst(cells, silo_id, /*use_lsr=*/true);
    default:
      return Status::InvalidArgument("not a single-silo algorithm");
  }
}

Result<std::vector<uint8_t>> ServiceProvider::CallSilo(
    int silo_id, const std::vector<uint8_t>& request) {
  Timer timer;
  Result<std::vector<uint8_t>> response =
      coalescer_ != nullptr ? coalescer_->Call(silo_id, request)
                            : network_->Call(silo_id, request);
  // Every data-plane exchange of a query passes through here on a thread
  // where the query's record is installed (the execute path installs it,
  // fan-out legs re-install it), whichever thread the exchange runs on.
  // Background audits run on pool threads with no record — excluded by
  // construction.
  if (QueryRecordScope* query = QueryRecordScope::Current()) {
    query->NoteSiloCall(silo_id, response.status(), timer.ElapsedMicros(),
                        request.size(), response.ok() ? response->size() : 0);
  }
  return response;
}

Result<AggregateSummary> ServiceProvider::RunFanOut(const QueryRange& range,
                                                    bool histogram) {
  FRA_TRACE_SPAN("provider.fan_out");
  AggregateRequest request;
  request.range = range;
  request.mode = histogram ? LocalQueryMode::kHistogram : LocalQueryMode::kExact;
  const std::vector<uint8_t> encoded = request.Encode();

  // One leg per silo on the fan-out pool (the caller's thread takes the
  // first), so the round trips overlap and the fan-out costs
  // max(silo latency) instead of the sum. Legs are leaves — they never
  // submit to a pool themselves — so batch workers fanning out
  // concurrently cannot deadlock. Partials are merged in silo-id order:
  // floating-point sums must not depend on arrival order (EXACT answers
  // are asserted bit-identical across transports and runs).
  const size_t num_silos = silo_ids_.size();
  const QueryRecordScope* query = QueryRecordScope::Current();
  const uint64_t trace_id = CurrentTraceId();
  std::vector<Result<AggregateSummary>> partials(num_silos,
                                                 AggregateSummary());
  const auto call_silo = [&](size_t i) -> Result<AggregateSummary> {
    FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                         CallSilo(silo_ids_[i], encoded));
    return DecodeSummaryResponse(response);
  };
  std::vector<std::future<void>> legs;
  legs.reserve(num_silos > 0 ? num_silos - 1 : 0);
  for (size_t i = 1; i < num_silos; ++i) {
    // Pool legs re-install the query's record and trace id, and charge
    // their thread-CPU to it. The caller's own leg already runs inside
    // both on its thread.
    legs.push_back(fanout_pool_->Submit([&, query, trace_id, i] {
      QueryRecordScope leg(query, trace_id);
      partials[i] = call_silo(i);
    }));
  }
  partials[0] = call_silo(0);
  for (auto& leg : legs) leg.get();

  AggregateSummary total;
  for (size_t i = 0; i < num_silos; ++i) {
    FRA_RETURN_NOT_OK(partials[i].status());
    total.Merge(*partials[i]);
  }
  return total;
}

Result<AggregateSummary> ServiceProvider::RunIidEst(
    const GridIndex::RangeCells& cells, int silo_id, bool use_lsr) {
  FRA_TRACE_SPAN("provider.iid_est");
  const auto grid_it = silo_grids_.find(silo_id);
  if (grid_it == silo_grids_.end()) {
    return Status::InvalidArgument("unknown sampled silo id " +
                                   std::to_string(silo_id));
  }
  // sum_0 / sum_k over the cells intersecting R, via prefix sums
  // (Sec. 4.2.1 remark). The rescale reads counts only.
  const uint64_t sum0 = merged_grid_.AggregateOver(cells).count;
  if (sum0 == 0) {
    // No federation object lies in any cell touching R => exact zero.
    return AggregateSummary();
  }
  const uint64_t sumk = grid_it->second.AggregateOver(cells).count;

  AggregateRequest request;
  request.range = cells.range;
  request.mode = use_lsr ? LocalQueryMode::kLsr : LocalQueryMode::kExact;
  request.epsilon = options_.epsilon;
  request.delta = options_.delta;
  // Lemma 1's rough estimate of the silo-local result: the sampled silo's
  // own grid aggregate over the intersecting cells.
  request.sum0 = static_cast<double>(sumk);

  FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                       CallSilo(silo_id, request.Encode()));
  FRA_ASSIGN_OR_RETURN(AggregateSummary res_k, DecodeSummaryResponse(response));
  FRA_TRACE_SPAN("provider.rescale");
  return RatioEstimate(res_k, sum0, sumk);
}

Result<AggregateSummary> ServiceProvider::RunNonIidEst(
    const GridIndex::RangeCells& cells, int silo_id, bool use_lsr) {
  FRA_TRACE_SPAN("provider.non_iid_est");
  const auto grid_it = silo_grids_.find(silo_id);
  if (grid_it == silo_grids_.end()) {
    return Status::InvalidArgument("unknown sampled silo id " +
                                   std::to_string(silo_id));
  }
  const GridIndex& silo_grid = grid_it->second;

  // Classify the cells touching R from g_0. With the boundary-only
  // optimisation (default), fully covered cells contribute their exact
  // federation-wide aggregate (Sec. 4.2.2 remark) and only boundary cells
  // need the sampled silo's per-cell contributions; the unoptimised Alg. 3
  // requests the vector for every intersecting cell.
  const bool boundary_only = options_.non_iid_boundary_only;
  AggregateSummary interior;
  std::vector<uint32_t> expected_cells;
  merged_grid_.ForEachCell(cells, [&](size_t cell_id, CellRelation relation) {
    if (boundary_only && relation == CellRelation::kContained) {
      interior.Merge(merged_grid_.cell(cell_id));
    } else {
      expected_cells.push_back(static_cast<uint32_t>(cell_id));
    }
  });
  // Drop the exact min/max of the interior cells: the boundary estimate
  // below cannot extend them, so the combined summary must not pretend to
  // carry extrema.
  interior.min = AggregateSummary().min;
  interior.max = AggregateSummary().max;

  if (expected_cells.empty()) return interior;

  CellVectorRequest request;
  request.range = cells.range;
  request.mode = use_lsr ? LocalQueryMode::kLsr : LocalQueryMode::kExact;
  request.epsilon = options_.epsilon;
  request.delta = options_.delta;
  request.sum0 = static_cast<double>(silo_grid.AggregateOver(cells).count);
  request.full_vector = !boundary_only;

  FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                       CallSilo(silo_id, request.Encode()));
  FRA_ASSIGN_OR_RETURN(std::vector<CellContribution> contributions,
                       DecodeCellVectorResponse(response));
  if (contributions.size() != expected_cells.size()) {
    return Status::Internal("silo cell vector size mismatch");
  }

  FRA_TRACE_SPAN("provider.rescale");
  AggregateSummary estimate = interior;
  for (size_t i = 0; i < contributions.size(); ++i) {
    const CellContribution& res_i = contributions[i];
    if (res_i.cell_id != expected_cells[i]) {
      return Status::Internal("silo cell vector id mismatch");
    }
    const AggregateSummary& g0_cell = merged_grid_.cell(res_i.cell_id);
    if (g0_cell.count == 0) continue;  // nothing anywhere in this cell
    const AggregateSummary& gk_cell = silo_grid.cell(res_i.cell_id);
    if (gk_cell.count == 0) {
      // The sampled silo has no objects in this cell, so the per-cell
      // ratio is undefined. Fall back to the uniformity assumption the
      // estimator already makes within a cell.
      AddAreaFraction(merged_grid_, cells.range, res_i.cell_id, g0_cell,
                      &estimate);
      continue;
    }
    // est_i = res_i^k * (aggregation of cell i in g_0) /
    //                   (aggregation of cell i in g_k)       (Alg. 3 line 6)
    const AggregateSummary est_i =
        RatioEstimate(res_i.summary, g0_cell.count, gk_cell.count);
    estimate.count += est_i.count;
    estimate.sum += est_i.sum;
    estimate.sum_sqr += est_i.sum_sqr;
  }
  return estimate;
}

Result<std::vector<double>> ServiceProvider::ExecuteBatch(
    const std::vector<FraQuery>& queries, FraAlgorithm algorithm,
    std::vector<double>* latencies_seconds,
    std::vector<Status>* per_query_status) {
  std::vector<double> results(queries.size(),
                              std::numeric_limits<double>::quiet_NaN());
  std::vector<Status> statuses(queries.size());
  if (latencies_seconds != nullptr) {
    latencies_seconds->assign(queries.size(), 0.0);
  }

  // Pre-draw the silo-sampling randomness so the assignment is
  // deterministic given the seed, independent of worker scheduling
  // (Alg. 4 line 2).
  std::vector<uint64_t> draws(queries.size(), 0);
  const bool single_silo = IsSingleSilo(algorithm);
  if (single_silo) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    for (uint64_t& draw : draws) draw = rng_.NextUint64();
  }
  // Query i's audit ticket is first_ticket + i, for the same reason.
  const uint64_t first_ticket =
      next_audit_ticket_.fetch_add(queries.size(), std::memory_order_relaxed);

  // One pool task per WORKER, not per query: workers pull the next query
  // off a shared index, so a 10k-query batch costs num_threads() task
  // submissions instead of 10k queue/future round trips.
  std::atomic<size_t> next_query{0};
  const auto worker = [this, &queries, &results, &statuses, &draws,
                       first_ticket, algorithm, latencies_seconds,
                       &next_query] {
    // One thread-CPU reading per query: each query's record charges from
    // the previous query's closing reading.
    double cpu_mark = ThreadCpuMicros();
    for (size_t i = next_query.fetch_add(1); i < queries.size();
         i = next_query.fetch_add(1)) {
      const Result<double> result = ExecuteRecorded(
          queries[i], algorithm, draws[i], first_ticket + i,
          latencies_seconds != nullptr ? &(*latencies_seconds)[i] : nullptr,
          &cpu_mark);
      if (result.ok()) {
        results[i] = *result;
      } else {
        statuses[i] = result.status();
      }
    }
  };
  const size_t workers =
      std::min(queries.size(), batch_pool_->num_threads());
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    futures.push_back(batch_pool_->Submit(worker));
  }
  for (auto& future : futures) future.get();

  // Every query ran to completion regardless of its neighbours' fate
  // (one failure used to discard the whole batch). With
  // `per_query_status` the caller gets every answer plus one status per
  // query; without it the batch still fails as a unit, but the status
  // names the first failing query's index and failed slots stay NaN.
  if (per_query_status != nullptr) {
    *per_query_status = std::move(statuses);
    return results;
  }
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(),
                    "batch query " + std::to_string(i) +
                        " failed: " + statuses[i].message());
    }
  }
  return results;
}

double ServiceProvider::MeasureHeterogeneity() const {
  const uint64_t total = merged_grid_.total().count;
  if (total == 0) return 0.0;
  double mean_tv = 0.0;
  size_t measured = 0;
  for (const auto& [silo_id, grid] : silo_grids_) {
    const uint64_t silo_total = grid.total().count;
    if (silo_total == 0) continue;
    double tv = 0.0;
    for (size_t cell = 0; cell < grid.num_cells(); ++cell) {
      const double p_silo = static_cast<double>(grid.cell(cell).count) /
                            static_cast<double>(silo_total);
      const double p_all =
          static_cast<double>(merged_grid_.cell(cell).count) /
          static_cast<double>(total);
      tv += std::abs(p_silo - p_all);
    }
    mean_tv += 0.5 * tv;
    ++measured;
  }
  return measured > 0 ? mean_tv / static_cast<double>(measured) : 0.0;
}

FraAlgorithm ServiceProvider::RecommendAlgorithm(bool use_lsr) const {
  const bool skewed =
      MeasureHeterogeneity() > options_.heterogeneity_threshold;
  if (skewed) {
    return use_lsr ? FraAlgorithm::kNonIidEstLsr : FraAlgorithm::kNonIidEst;
  }
  return use_lsr ? FraAlgorithm::kIidEstLsr : FraAlgorithm::kIidEst;
}

Status ServiceProvider::SyncGrids() {
  const std::vector<uint8_t> request = EncodeGridDeltaRequest();
  size_t changed_cells = 0;
  for (int silo_id : silo_ids_) {
    FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                         network_->Call(silo_id, request));
    uint64_t data_version = 0;
    FRA_ASSIGN_OR_RETURN(std::vector<CellContribution> changed,
                         DecodeGridDeltaResponse(response, &data_version));
    if (data_version != 0) {
      std::lock_guard<std::mutex> lock(versions_mu_);
      silo_data_versions_[silo_id] = data_version;
    }
    if (changed.empty()) continue;
    GridIndex& silo_grid = silo_grids_.at(silo_id);
    for (const CellContribution& cell : changed) {
      if (cell.cell_id >= silo_grid.num_cells()) {
        return Status::Internal("delta sync cell id out of range");
      }
      ++changed_cells;
      // g_0's cell changes by the same difference as the silo's cell.
      const AggregateSummary& old = silo_grid.cell(cell.cell_id);
      AggregateSummary merged = merged_grid_.cell(cell.cell_id);
      merged.count = merged.count - old.count + cell.summary.count;
      merged.sum += cell.summary.sum - old.sum;
      merged.sum_sqr += cell.summary.sum_sqr - old.sum_sqr;
      if (cell.summary.min < merged.min) merged.min = cell.summary.min;
      if (cell.summary.max > merged.max) merged.max = cell.summary.max;
      merged_grid_.SetCell(cell.cell_id, merged);
      silo_grid.SetCell(cell.cell_id, cell.summary);
    }
    silo_grid.CommitUpdates();
    silo_grid.ClearChangedCells();
  }
  if (changed_cells > 0) {
    merged_grid_.CommitUpdates();
    merged_grid_.ClearChangedCells();
    if (cache_ != nullptr) {
      // Bump the data epoch: every cached answer predates the delta.
      cache_->OnDataChanged();
      FRA_LOG(INFO) << "grid delta sync applied " << changed_cells
                    << " cell deltas; cache epoch now " << cache_->epoch();
    }
  }
  return Status::OK();
}

std::map<int, uint64_t> ServiceProvider::silo_data_versions() const {
  std::lock_guard<std::mutex> lock(versions_mu_);
  return silo_data_versions_;
}

size_t ServiceProvider::GridMemoryUsage() const {
  size_t bytes = merged_grid_.MemoryUsage();
  for (const auto& [id, grid] : silo_grids_) bytes += grid.MemoryUsage();
  return bytes;
}

}  // namespace fra
