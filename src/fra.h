#ifndef FRA_FRA_H_
#define FRA_FRA_H_

/// Umbrella header: the full public API of the FRA library.
///
/// Typical usage only needs three pieces:
///   * fra::GenerateMobilityData / fra::ReadCsv  — obtain partitions,
///   * fra::Federation::Create                   — assemble the federation,
///   * fra::ServiceProvider::Execute[Batch]      — answer FRA queries.

#include "agg/aggregate.h"
#include "agg/spatial_object.h"
#include "baseline/brute_force.h"
#include "baseline/centralized.h"
#include "cache/answer_cache.h"
#include "cache/provider_cache.h"
#include "core/lsr_forest.h"
#include "data/csv.h"
#include "data/generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/workload.h"
#include "federation/admin.h"
#include "federation/federation.h"
#include "federation/privacy.h"
#include "federation/query.h"
#include "federation/service_provider.h"
#include "federation/silo.h"
#include "federation/silo_health.h"
#include "geo/circle.h"
#include "geo/point.h"
#include "geo/projection.h"
#include "geo/range.h"
#include "geo/rect.h"
#include "index/equi_depth_histogram.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "net/message.h"
#include "net/network.h"
#include "net/tcp_network.h"
#include "obs/accuracy_auditor.h"
#include "obs/admin_server.h"
#include "util/random.h"
#include "util/result.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

#endif  // FRA_FRA_H_
