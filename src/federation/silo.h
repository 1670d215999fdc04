#ifndef FRA_FEDERATION_SILO_H_
#define FRA_FEDERATION_SILO_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "core/lsr_forest.h"
#include "federation/privacy.h"
#include "index/equi_depth_histogram.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "net/message.h"
#include "net/network.h"
#include "util/result.h"

namespace fra {

class Histogram;

/// A data silo s_i: the autonomous owner of one horizontal partition
/// P_{s_i} of the federation's spatial objects.
///
/// A silo exposes only a query interface (paper Sec. 2) — raw objects
/// never leave it. Locally it maintains:
///   * a grid index g_i over the shared GridSpec (shipped once to the
///     provider during Alg. 1),
///   * an LSR-Forest whose level-0 tree doubles as the exact aggregate
///     R-tree,
///   * an equi-depth histogram serving the OPTA baseline.
///
/// Local query execution is serialised with a mutex, modelling a
/// single-core silo: this is what makes per-silo *workload* (paper
/// Sec. 4.3: |Q|/m queries per silo under single-silo sampling vs |Q|
/// under EXACT) visible in wall-clock throughput. It also orders queries
/// against Ingest, which mutates the grid and the ingest delta they read.
class Silo : public SiloEndpoint {
 public:
  struct Options {
    GridIndex::GridSpec grid_spec;
    RTree::Options rtree;
    /// Seed for the LSR-Forest's level-sampling coin flips.
    uint64_t lsr_seed = 0x5A17F0E57ULL;
    size_t histogram_buckets = 1024;
    /// Skip the LSR-Forest levels above T_0 (saves build time/memory when
    /// only exact local queries are needed).
    bool build_lsr = true;
    /// Skip the OPTA histogram.
    bool build_histogram = true;
    /// Auto-compact when the ingest delta exceeds this fraction of the
    /// base partition (0 disables auto-compaction).
    double compact_fraction = 0.02;
    /// Differential privacy at the silo boundary: when dp.epsilon > 0,
    /// every statistic published over the wire is Laplace-perturbed
    /// (see privacy.h). Direct in-process accessors stay exact — they
    /// model the silo's own trusted computation.
    DpOptions dp;
  };

  /// Builds a silo over a copy-by-move of `objects`.
  static Result<std::unique_ptr<Silo>> Create(int id, ObjectSet objects,
                                              const Options& options);

  /// Persists the silo (its configuration and full object set, ingest
  /// delta included) to a binary snapshot file. A silo process restarts
  /// from the snapshot without its upstream data pipeline; indexes are
  /// rebuilt deterministically from the stored seeds on load.
  Status SaveSnapshot(const std::string& path) const;
  static Result<std::unique_ptr<Silo>> LoadSnapshot(const std::string& path);

  int id() const { return id_; }
  size_t size() const { return num_objects_; }

  // --- Local query interface (what the network requests dispatch to) ---

  /// Exact local range aggregation Q(s_i, R, F) on the aggregate R-tree.
  AggregateSummary ExactRangeAggregate(const QueryRange& range) const;

  /// Approximate local answer via the LSR-Forest (Alg. 6). Falls back to
  /// exact when the forest was not built.
  AggregateSummary LsrRangeAggregate(const QueryRange& range, double epsilon,
                                     double delta, double sum0,
                                     int* level_used = nullptr) const;

  /// OPTA: estimate from the local equi-depth histogram.
  Result<AggregateSummary> HistogramEstimate(const QueryRange& range) const;

  /// NonIID-est (Alg. 3 with the boundary-cell optimisation): for every
  /// grid cell that intersects the *boundary* of `range`, ascending by
  /// cell id, the aggregate of this silo's objects within `range` that
  /// GridIndex::CellOf assigns to that cell — the cell the grids count
  /// them in, so an object on an edge shared by two cells counts once.
  /// One R-tree descent answers all the cells of a request. With
  /// `use_lsr`, the descent runs on the Lemma-1 level of the LSR-Forest.
  std::vector<CellContribution> BoundaryCellContributions(
      const QueryRange& range, bool use_lsr, double epsilon, double delta,
      double sum0) const;

  /// The unoptimised Alg. 3 vector: one contribution per *every* cell
  /// intersecting `range` (contained cells answered exactly from the
  /// grid). Used by the boundary-cell ablation bench.
  std::vector<CellContribution> AllCellContributions(
      const QueryRange& range, bool use_lsr, double epsilon, double delta,
      double sum0) const;

  // --- Streaming ingest --------------------------------------------------
  //
  // A silo's operational system keeps producing records (new trips, bike
  // repositions). Ingested objects are immediately visible to every local
  // query: the grid updates in place and the tree-backed answers add an
  // exact scan over the small uncompacted delta (an LSM-style read path).
  // Compact() folds the delta into the LSR-Forest / histogram; the
  // provider picks up grid changes through delta-sync requests
  // (ServiceProvider::SyncGrids).

  /// Appends a batch of new objects. Thread safe with concurrent queries.
  void Ingest(const ObjectSet& batch);

  /// Rebuilds the LSR-Forest and histogram over base + delta and commits
  /// the grid's prefix arrays. Called automatically when the delta
  /// exceeds Options::compact_fraction of the base.
  void Compact();

  /// Objects ingested since the last Compact().
  size_t pending_ingest() const;

  /// Monotonic count of Ingest() batches absorbed by this silo process.
  /// Shipped to the provider in every grid-delta response so the
  /// dynamic-update epoch of the provider-side answer cache can be tied
  /// to concrete silo updates (docs/caching.md). Not persisted by
  /// snapshots — it versions the running process, not the data set.
  uint64_t data_version() const;

  /// The silo's grid index g_i (tests and in-process provider setup).
  const GridIndex& grid() const { return grid_; }

  /// Summary of the whole partition (ingested objects included).
  const AggregateSummary& total() const { return grid_.total(); }

  /// Heap bytes of the silo's indexes: {rtree_only, lsr_extra, histogram}.
  struct IndexMemory {
    size_t rtree_bytes = 0;      // level-0 aggregate R-tree
    size_t lsr_extra_bytes = 0;  // levels 1..L of the LSR-Forest
    size_t grid_bytes = 0;
    size_t histogram_bytes = 0;
  };
  IndexMemory MemoryUsage() const;

  // --- SiloEndpoint ---
  /// Copying entry point, delegates to HandleMessageView.
  Result<std::vector<uint8_t>> HandleMessage(
      const std::vector<uint8_t>& request) override;
  /// The real dispatch: decodes the transport's bytes in place (the view
  /// is only read for the duration of the call) and returns pooled
  /// response buffers — the zero-copy half of silo-side serving.
  Result<std::vector<uint8_t>> HandleMessageView(
      ConstByteSpan request) override;

 private:
  Silo() = default;

  /// Dispatches one decoded (non-batch) request; callers hold
  /// execution_mu_.
  Result<std::vector<uint8_t>> HandleSingleLocked(MessageType type,
                                                  ConstByteSpan request);
  /// kAggregateBatchRequest: decodes the entry table and answers every
  /// entry serially under the execution lock. Per-entry failures are
  /// embedded as error-response entries so the batch itself still
  /// round-trips.
  Result<std::vector<uint8_t>> HandleBatchRequest(ConstByteSpan request);
  /// This silo's fra_query_cost_silo_cpu_microseconds{silo=id} histogram.
  Histogram* HandleCpuHistogram();

  // Unlocked implementations; public entry points take execution_mu_.
  void IngestLocked(const ObjectSet& batch);
  void CompactLocked();
  AggregateSummary DeltaSummary(const QueryRange& range) const;

  int id_ = -1;
  size_t num_objects_ = 0;
  GridIndex grid_;
  LsrForest lsr_;
  EquiDepthHistogram histogram_;
  bool has_histogram_ = false;
  double compact_fraction_ = 0.02;
  uint64_t lsr_seed_ = 0;
  RTree::Options rtree_options_;
  size_t histogram_buckets_ = 1024;
  bool build_lsr_ = true;
  // Objects ingested since the last compaction; scanned exactly by every
  // local query until folded into the trees.
  ObjectSet delta_;
  uint64_t compactions_ = 0;
  uint64_t data_version_ = 0;
  std::unique_ptr<LaplaceMechanism> dp_;
  mutable std::mutex execution_mu_;
  // Silo-side CPU attribution (fra_query_cost_silo_cpu_microseconds
  // {silo=id}): one CLOCK_THREAD_CPUTIME_ID delta per dispatched entry,
  // measured on whichever thread executed it. Resolved lazily — id_ is
  // only known after Create().
  std::atomic<Histogram*> handle_cpu_hist_{nullptr};
};

}  // namespace fra

#endif  // FRA_FEDERATION_SILO_H_
