#include "federation/silo.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_record.h"
#include "util/serialize.h"
#include "util/trace.h"

namespace fra {
namespace {

/// Observes the enclosing scope's thread-CPU delta: the cost of the
/// silo-side work itself, excluding any wait for the execution lock
/// (construct after the lock is held).
class ScopedSiloCpu {
 public:
  explicit ScopedSiloCpu(Histogram* hist)
      : hist_(hist), start_(ThreadCpuMicros()) {}
  ~ScopedSiloCpu() {
    if (hist_ != nullptr) hist_->Observe(ThreadCpuMicros() - start_);
  }
  ScopedSiloCpu(const ScopedSiloCpu&) = delete;
  ScopedSiloCpu& operator=(const ScopedSiloCpu&) = delete;

 private:
  Histogram* hist_;
  double start_;
};

}  // namespace

Result<std::unique_ptr<Silo>> Silo::Create(int id, ObjectSet objects,
                                           const Options& options) {
  auto silo = std::unique_ptr<Silo>(new Silo());
  silo->id_ = id;
  silo->num_objects_ = objects.size();
  silo->compact_fraction_ = options.compact_fraction;
  silo->lsr_seed_ = options.lsr_seed;
  silo->rtree_options_ = options.rtree;
  silo->histogram_buckets_ = options.histogram_buckets;
  silo->build_lsr_ = options.build_lsr;
  silo->dp_ = std::make_unique<LaplaceMechanism>(
      options.dp, options.lsr_seed ^ 0xD9E7C0FFEEULL ^
                      (static_cast<uint64_t>(id) << 17));

  FRA_ASSIGN_OR_RETURN(silo->grid_,
                       GridIndex::Build(objects, options.grid_spec));

  LsrForest::Options lsr_options;
  lsr_options.rtree = options.rtree;
  lsr_options.seed = options.lsr_seed ^ (static_cast<uint64_t>(id) << 32);
  lsr_options.max_levels = options.build_lsr ? -1 : 1;
  silo->lsr_ = LsrForest::Build(objects, lsr_options, options.grid_spec);

  if (options.build_histogram) {
    EquiDepthHistogram::Options hist_options;
    hist_options.max_buckets = options.histogram_buckets;
    silo->histogram_ = EquiDepthHistogram::Build(std::move(objects), hist_options);
    silo->has_histogram_ = true;
  }
  return silo;
}

AggregateSummary Silo::DeltaSummary(const QueryRange& range) const {
  return SummarizeIf(delta_,
                     [&range](const Point& p) { return range.Contains(p); });
}

AggregateSummary Silo::ExactRangeAggregate(const QueryRange& range) const {
  AggregateSummary result = lsr_.ExactRangeAggregate(range);
  if (!delta_.empty()) result.Merge(DeltaSummary(range));
  return result;
}

AggregateSummary Silo::LsrRangeAggregate(const QueryRange& range,
                                         double epsilon, double delta,
                                         double sum0, int* level_used) const {
  AggregateSummary result =
      lsr_.ApproximateRangeAggregate(range, epsilon, delta, sum0, level_used);
  // The uncompacted ingest delta is small; its exact contribution keeps
  // the combined estimate unbiased.
  if (!delta_.empty()) result.Merge(DeltaSummary(range));
  return result;
}

Result<AggregateSummary> Silo::HistogramEstimate(
    const QueryRange& range) const {
  if (!has_histogram_) {
    return Status::Unavailable("silo built without an OPTA histogram");
  }
  AggregateSummary result = histogram_.Estimate(range);
  if (!delta_.empty()) result.Merge(DeltaSummary(range));
  return result;
}

void Silo::Ingest(const ObjectSet& batch) {
  std::lock_guard<std::mutex> lock(execution_mu_);
  IngestLocked(batch);
}

void Silo::IngestLocked(const ObjectSet& batch) {
  for (const SpatialObject& o : batch) {
    grid_.Add(o);
    delta_.push_back(o);
  }
  num_objects_ += batch.size();
  if (!batch.empty()) ++data_version_;
  if (compact_fraction_ > 0.0 &&
      static_cast<double>(delta_.size()) >
          compact_fraction_ * static_cast<double>(lsr_.size())) {
    CompactLocked();
  }
}

void Silo::Compact() {
  std::lock_guard<std::mutex> lock(execution_mu_);
  CompactLocked();
}

void Silo::CompactLocked() {
  if (delta_.empty()) {
    grid_.CommitUpdates();
    return;
  }
  ObjectSet merged = lsr_.num_levels() > 0 ? lsr_.tree(0).objects()
                                           : ObjectSet();
  merged.insert(merged.end(), delta_.begin(), delta_.end());
  delta_.clear();
  ++compactions_;

  LsrForest::Options lsr_options;
  lsr_options.rtree = rtree_options_;
  lsr_options.seed = lsr_seed_ ^ (static_cast<uint64_t>(id_) << 32) ^
                     (compactions_ * 0x9E3779B97F4A7C15ULL);
  lsr_options.max_levels = build_lsr_ ? -1 : 1;
  lsr_ = LsrForest::Build(merged, lsr_options, grid_.spec());

  if (has_histogram_) {
    EquiDepthHistogram::Options hist_options;
    hist_options.max_buckets = histogram_buckets_;
    histogram_ = EquiDepthHistogram::Build(std::move(merged), hist_options);
  }
  grid_.CommitUpdates();
}

size_t Silo::pending_ingest() const {
  std::lock_guard<std::mutex> lock(execution_mu_);
  return delta_.size();
}

uint64_t Silo::data_version() const {
  std::lock_guard<std::mutex> lock(execution_mu_);
  return data_version_;
}

namespace {
constexpr uint64_t kSnapshotMagic = 0x464153'4E41'5031ULL;  // "FRASNAP1"
constexpr uint32_t kSnapshotVersion = 1;
}  // namespace

Status Silo::SaveSnapshot(const std::string& path) const {
  std::lock_guard<std::mutex> lock(execution_mu_);

  BinaryWriter writer;
  writer.WriteU64(kSnapshotMagic);
  writer.WriteU32(kSnapshotVersion);
  writer.WriteI64(id_);
  // Configuration needed to rebuild the silo identically.
  writer.WriteDouble(grid_.spec().domain.min.x);
  writer.WriteDouble(grid_.spec().domain.min.y);
  writer.WriteDouble(grid_.spec().domain.max.x);
  writer.WriteDouble(grid_.spec().domain.max.y);
  writer.WriteDouble(grid_.spec().cell_length);
  writer.WriteI64(rtree_options_.leaf_capacity);
  writer.WriteI64(rtree_options_.fanout);
  writer.WriteU64(lsr_seed_);
  writer.WriteU64(histogram_buckets_);
  writer.WriteU8(build_lsr_ ? 1 : 0);
  writer.WriteU8(has_histogram_ ? 1 : 0);
  writer.WriteU8(1);  // v1's serialize-execution flag: always 1, ignored
  writer.WriteDouble(compact_fraction_);
  writer.WriteDouble(dp_->options().epsilon);
  writer.WriteDouble(dp_->options().measure_bound);

  // Full object set: the compacted base plus the live ingest delta.
  const ObjectSet& base =
      lsr_.num_levels() > 0 ? lsr_.tree(0).objects() : delta_;
  const uint64_t total =
      lsr_.num_levels() > 0 ? base.size() + delta_.size() : delta_.size();
  writer.WriteU64(total);
  auto write_objects = [&writer](const ObjectSet& objects) {
    for (const SpatialObject& o : objects) {
      writer.WriteDouble(o.location.x);
      writer.WriteDouble(o.location.y);
      writer.WriteDouble(o.measure);
    }
  };
  if (lsr_.num_levels() > 0) write_objects(base);
  write_objects(delta_);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(writer.buffer().data()),
            static_cast<std::streamsize>(writer.size()));
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<std::unique_ptr<Silo>> Silo::LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  BinaryReader reader(bytes);

  uint64_t magic = 0;
  uint32_t version = 0;
  FRA_RETURN_NOT_OK(reader.ReadU64(&magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument(path + " is not an FRA silo snapshot");
  }
  FRA_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  int64_t id = 0;
  FRA_RETURN_NOT_OK(reader.ReadI64(&id));

  Options options;
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.grid_spec.domain.min.x));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.grid_spec.domain.min.y));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.grid_spec.domain.max.x));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.grid_spec.domain.max.y));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.grid_spec.cell_length));
  int64_t leaf_capacity = 0;
  int64_t fanout = 0;
  FRA_RETURN_NOT_OK(reader.ReadI64(&leaf_capacity));
  FRA_RETURN_NOT_OK(reader.ReadI64(&fanout));
  if (leaf_capacity <= 0 || fanout <= 1 || leaf_capacity > (1 << 20) ||
      fanout > (1 << 20)) {
    return Status::InvalidArgument("corrupt R-tree options in snapshot");
  }
  options.rtree.leaf_capacity = static_cast<int>(leaf_capacity);
  options.rtree.fanout = static_cast<int>(fanout);
  FRA_RETURN_NOT_OK(reader.ReadU64(&options.lsr_seed));
  uint64_t histogram_buckets = 0;
  FRA_RETURN_NOT_OK(reader.ReadU64(&histogram_buckets));
  if (histogram_buckets == 0 || histogram_buckets > (1u << 24)) {
    return Status::InvalidArgument("corrupt histogram options in snapshot");
  }
  options.histogram_buckets = histogram_buckets;
  uint8_t build_lsr = 0;
  uint8_t has_histogram = 0;
  uint8_t ignored = 0;  // v1's serialize-execution flag
  FRA_RETURN_NOT_OK(reader.ReadU8(&build_lsr));
  FRA_RETURN_NOT_OK(reader.ReadU8(&has_histogram));
  FRA_RETURN_NOT_OK(reader.ReadU8(&ignored));
  options.build_lsr = build_lsr != 0;
  options.build_histogram = has_histogram != 0;
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.compact_fraction));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.dp.epsilon));
  FRA_RETURN_NOT_OK(reader.ReadDouble(&options.dp.measure_bound));

  uint64_t total = 0;
  FRA_RETURN_NOT_OK(reader.ReadU64(&total));
  if (total > reader.Remaining() / (3 * sizeof(double))) {
    return Status::OutOfRange("snapshot truncated: object payload short");
  }
  ObjectSet objects;
  objects.reserve(total);
  for (uint64_t i = 0; i < total; ++i) {
    SpatialObject o;
    FRA_RETURN_NOT_OK(reader.ReadDouble(&o.location.x));
    FRA_RETURN_NOT_OK(reader.ReadDouble(&o.location.y));
    FRA_RETURN_NOT_OK(reader.ReadDouble(&o.measure));
    objects.push_back(o);
  }
  // The Create path resets lsr_seed mixing; note the silo id is restored
  // so the seed derivation matches the original construction.
  return Create(static_cast<int>(id), std::move(objects), options);
}

namespace {

std::vector<CellContribution> CellContributionsImpl(
    const GridIndex& grid, const LsrForest& lsr, const ObjectSet& ingest_delta,
    const QueryRange& range, bool use_lsr, double epsilon, double delta,
    double sum0, bool include_contained) {
  // Both ends compute cell classification from the shared GridSpec, so the
  // provider knows which cell ids to expect without shipping them.
  std::vector<CellContribution> contributions;
  std::vector<uint32_t> boundary_cells;
  std::vector<size_t> boundary_at;  // each boundary cell's contribution
  grid.ForEachIntersectingCell(
      range, [&](size_t cell_id, CellRelation relation) {
        const bool contained = relation == CellRelation::kContained;
        if (contained && !include_contained) return;
        CellContribution contribution;
        contribution.cell_id = static_cast<uint32_t>(cell_id);
        if (contained) {
          // A fully covered cell's contribution is its grid aggregate —
          // exact, no tree descent needed.
          contribution.summary = grid.cell(cell_id);
        } else {
          boundary_cells.push_back(contribution.cell_id);
          boundary_at.push_back(contributions.size());
        }
        contributions.push_back(contribution);
      });

  // One descent answers every boundary cell, on the Lemma-1 level under
  // LSR; the uncompacted ingest delta joins exactly, in one pass. Each
  // object counts in the one cell GridIndex::CellOf assigns it, the cell
  // the grids count it in.
  int level = 0;
  if (use_lsr && lsr.num_levels() > 0) {
    level = LsrForest::SelectLevel(epsilon, delta, sum0, lsr.max_level());
  }
  const CellSlots slots(grid, boundary_cells);
  std::vector<AggregateSummary> answers =
      lsr.AggregateByCellAtLevel(range, slots, level);
  for (const SpatialObject& o : ingest_delta) {
    if (!range.Contains(o.location)) continue;
    const int slot = slots.SlotOf(o.location);
    if (slot >= 0) answers[slot].Add(o);
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    contributions[boundary_at[i]].summary = answers[i];
  }
  return contributions;
}

}  // namespace

std::vector<CellContribution> Silo::BoundaryCellContributions(
    const QueryRange& range, bool use_lsr, double epsilon, double delta,
    double sum0) const {
  return CellContributionsImpl(grid_, lsr_, delta_, range, use_lsr, epsilon,
                               delta, sum0, /*include_contained=*/false);
}

std::vector<CellContribution> Silo::AllCellContributions(
    const QueryRange& range, bool use_lsr, double epsilon, double delta,
    double sum0) const {
  return CellContributionsImpl(grid_, lsr_, delta_, range, use_lsr, epsilon,
                               delta, sum0, /*include_contained=*/true);
}

Silo::IndexMemory Silo::MemoryUsage() const {
  IndexMemory memory;
  if (lsr_.num_levels() > 0) {
    memory.rtree_bytes = lsr_.tree(0).MemoryUsage();
    memory.lsr_extra_bytes = lsr_.MemoryUsage() - memory.rtree_bytes;
  }
  memory.grid_bytes = grid_.MemoryUsage();
  if (has_histogram_) memory.histogram_bytes = histogram_.MemoryUsage();
  return memory;
}

Result<std::vector<uint8_t>> Silo::HandleMessage(
    const std::vector<uint8_t>& request) {
  return HandleMessageView(ConstByteSpan(request));
}

Result<std::vector<uint8_t>> Silo::HandleMessageView(ConstByteSpan request) {
  FRA_TRACE_SPAN("silo.handle_message");
  FRA_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(request));
  if (type == MessageType::kAggregateBatchRequest) {
    return HandleBatchRequest(request);
  }

  // Model a single-core silo: local work for concurrent queries queues up.
  std::lock_guard<std::mutex> lock(execution_mu_);
  return HandleSingleLocked(type, request);
}

Result<std::vector<uint8_t>> Silo::HandleBatchRequest(ConstByteSpan request) {
  FRA_TRACE_SPAN("silo.handle_batch");
  // The entry table is parsed as borrowed views into the batch frame —
  // no per-entry copy; the frame bytes stay alive (owned by the
  // transport) for the whole dispatch.
  auto entries = DecodeBatchRequestViews(request);
  if (!entries.ok()) return EncodeErrorResponse(entries.status());

  // One answer slot per entry; positions are the batch contract. A failed
  // entry becomes an embedded error response, never a failed batch.
  //
  // A batch mixes sub-queries staged by different provider queries, so
  // trace context travels per entry: each may open with its own trace
  // envelope, unwrapped here so the entry's spans land under the right
  // trace id. The entries' spans are gathered in one collector and
  // handed on afterwards for the outer response's single span section.
  // The batch executes serially under the execution lock: coalescing
  // saves wire round trips and framing, not silo CPU.
  std::vector<std::vector<uint8_t>> responses;
  responses.reserve(entries->size());
  std::vector<SpanRecord> gathered;
  {
    SpanCollector collector;
    std::lock_guard<std::mutex> lock(execution_mu_);
    for (ConstByteSpan entry : *entries) {
      ScopedTraceId trace_scope(StripTraceEnvelopeView(&entry));
      auto type = PeekMessageType(entry);
      if (!type.ok()) {
        responses.push_back(EncodeErrorResponse(type.status()));
      } else if (*type == MessageType::kAggregateBatchRequest) {
        responses.push_back(EncodeErrorResponse(Status::InvalidArgument(
            "nested batch requests are not supported")));
      } else {
        auto response = HandleSingleLocked(*type, entry);
        responses.push_back(response.ok()
                                ? *std::move(response)
                                : EncodeErrorResponse(response.status()));
      }
    }
    gathered = collector.Take();
  }
  if (!gathered.empty()) {
    if (SpanCollector* ambient = SpanCollector::Current()) {
      // Transport-installed collector: the spans ride the batch
      // response's trailing section back to the provider.
      ambient->AddAll(std::move(gathered));
    } else {
      // In-process transport with no collector on this thread (e.g. a
      // deadline flush from an event loop): feed the process tracer
      // directly — same stitched trace, no wire bytes.
      Tracer::Get().Ingest(std::move(gathered), "silo=" + std::to_string(id_));
    }
  }
  return EncodeBatchResponse(responses);
}

Histogram* Silo::HandleCpuHistogram() {
  Histogram* hist = handle_cpu_hist_.load(std::memory_order_acquire);
  if (hist == nullptr) {
    // Racing resolvers get the same registry-owned instrument.
    hist = &MetricsRegistry::Default().GetHistogram(
        "fra_query_cost_silo_cpu_microseconds",
        {{"silo", std::to_string(id_)}});
    handle_cpu_hist_.store(hist, std::memory_order_release);
  }
  return hist;
}

Result<std::vector<uint8_t>> Silo::HandleSingleLocked(MessageType type,
                                                      ConstByteSpan request) {
  ScopedSiloCpu cpu_scope(HandleCpuHistogram());
  BinaryReader reader(request);

  // Everything leaving the silo passes the DP boundary: scalar answers,
  // per-cell vectors, grid payloads and grid deltas are perturbed when
  // the mechanism is enabled (no-op otherwise).
  auto perturb_cells = [this](std::vector<CellContribution> cells) {
    if (dp_->enabled()) {
      for (CellContribution& cell : cells) {
        cell.summary = dp_->Perturb(cell.summary);
      }
    }
    return cells;
  };

  switch (type) {
    case MessageType::kBuildGridRequest: {
      FRA_TRACE_SPAN("silo.build_grid");
      // Serialize the grid straight into the framed response and
      // backpatch the length prefix, instead of encoding into a scratch
      // buffer and copying it through EncodeGridPayloadResponse — the
      // grid payload is the largest message the silo ever ships.
      BinaryWriter writer = BinaryWriter::Pooled(1 + sizeof(uint32_t));
      writer.WriteU8(static_cast<uint8_t>(MessageType::kGridPayloadResponse));
      writer.WriteU32(0);  // grid_bytes placeholder, patched below
      const size_t grid_start = writer.size();
      if (dp_->enabled()) {
        GridIndex noisy = grid_;
        for (size_t cell = 0; cell < noisy.num_cells(); ++cell) {
          noisy.SetCell(cell, dp_->Perturb(noisy.cell(cell)));
        }
        noisy.CommitUpdates();
        noisy.Serialize(&writer);
      } else {
        grid_.Serialize(&writer);
      }
      writer.PatchU32(1, static_cast<uint32_t>(writer.size() - grid_start));
      return writer.Release();
    }
    case MessageType::kAggregateRequest: {
      auto decoded = AggregateRequest::Decode(&reader);
      if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
      const AggregateRequest& req = *decoded;
      switch (req.mode) {
        case LocalQueryMode::kExact: {
          FRA_TRACE_SPAN("silo.local.exact");
          return EncodeSummaryResponse(
              dp_->Perturb(ExactRangeAggregate(req.range)));
        }
        case LocalQueryMode::kLsr: {
          FRA_TRACE_SPAN("silo.local.lsr");
          return EncodeSummaryResponse(dp_->Perturb(LsrRangeAggregate(
              req.range, req.epsilon, req.delta, req.sum0)));
        }
        case LocalQueryMode::kHistogram: {
          FRA_TRACE_SPAN("silo.local.histogram");
          auto estimate = HistogramEstimate(req.range);
          if (!estimate.ok()) return EncodeErrorResponse(estimate.status());
          return EncodeSummaryResponse(dp_->Perturb(*estimate));
        }
      }
      return EncodeErrorResponse(
          Status::InvalidArgument("unknown local query mode"));
    }
    case MessageType::kGridDeltaRequest: {
      FRA_TRACE_SPAN("silo.grid_delta");
      std::vector<CellContribution> changed;
      for (size_t cell_id : grid_.ChangedCells()) {
        CellContribution contribution;
        contribution.cell_id = static_cast<uint32_t>(cell_id);
        contribution.summary = grid_.cell(cell_id);
        changed.push_back(contribution);
      }
      grid_.ClearChangedCells();
      return EncodeGridDeltaResponse(perturb_cells(std::move(changed)),
                                     data_version_);
    }
    case MessageType::kCellVectorRequest: {
      FRA_TRACE_SPAN("silo.cell_vector");
      auto decoded = CellVectorRequest::Decode(&reader);
      if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
      const CellVectorRequest& req = *decoded;
      const bool use_lsr = req.mode == LocalQueryMode::kLsr;
      return EncodeCellVectorResponse(perturb_cells(
          req.full_vector
              ? AllCellContributions(req.range, use_lsr, req.epsilon,
                                     req.delta, req.sum0)
              : BoundaryCellContributions(req.range, use_lsr, req.epsilon,
                                          req.delta, req.sum0)));
    }
    default:
      return EncodeErrorResponse(
          Status::InvalidArgument("silo cannot handle message type " +
                                  std::to_string(static_cast<int>(type))));
  }
}

}  // namespace fra
