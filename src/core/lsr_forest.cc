#include "core/lsr_forest.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/trace.h"

namespace fra {

LsrForest LsrForest::Build(const ObjectSet& objects, const Options& options) {
  return BuildImpl(objects, options, nullptr);
}

LsrForest LsrForest::Build(const ObjectSet& objects, const Options& options,
                           const GridIndex::GridSpec& grid) {
  return BuildImpl(objects, options, &grid);
}

LsrForest LsrForest::BuildImpl(const ObjectSet& objects,
                               const Options& options,
                               const GridIndex::GridSpec* grid) {
  const auto build_tree = [&](const ObjectSet& level_objects) {
    return grid != nullptr
               ? RTree::Build(level_objects, options.rtree, *grid)
               : RTree::Build(level_objects, options.rtree);
  };
  LsrForest forest;
  if (objects.empty()) return forest;

  int max_level =
      static_cast<int>(std::floor(std::log2(static_cast<double>(objects.size()))));
  if (options.max_levels > 0) {
    max_level = std::min(max_level, options.max_levels - 1);
  }
  forest.trees_.reserve(static_cast<size_t>(max_level) + 1);

  Rng rng(options.seed);
  ObjectSet level_objects = objects;  // P^0 = P
  forest.trees_.push_back(build_tree(level_objects));
  for (int level = 1; level <= max_level; ++level) {
    // P^i: keep each object of P^{i-1} with probability 1/2 (Alg. 5).
    ObjectSet sampled;
    sampled.reserve(level_objects.size() / 2 + 1);
    for (const SpatialObject& o : level_objects) {
      if (rng.NextBernoulli(0.5)) sampled.push_back(o);
    }
    level_objects = std::move(sampled);
    forest.trees_.push_back(build_tree(level_objects));
  }
  return forest;
}

int LsrForest::SelectLevel(double epsilon, double delta, double sum0,
                           int max_level) {
  FRA_CHECK_GT(epsilon, 0.0);
  FRA_CHECK_GT(delta, 0.0);
  FRA_CHECK_LT(delta, 1.0);
  if (sum0 <= 0.0 || max_level <= 0) return 0;
  const double budget = epsilon * epsilon * sum0 / (3.0 * std::log(2.0 / delta));
  if (budget <= 1.0) return 0;
  const int level = static_cast<int>(std::floor(std::log2(budget)));
  return std::clamp(level, 0, max_level);
}

AggregateSummary LsrForest::ApproximateRangeAggregate(
    const QueryRange& range, double epsilon, double delta, double sum0,
    int* level_used, RTree::QueryStats* stats) const {
  FRA_TRACE_SPAN("lsr.approx_query");
  if (trees_.empty()) {
    if (level_used != nullptr) *level_used = 0;
    return AggregateSummary();
  }
  const int level = SelectLevel(epsilon, delta, sum0, max_level());
  if (level_used != nullptr) *level_used = level;
  return AggregateAtLevel(range, level, stats);
}

AggregateSummary LsrForest::AggregateAtLevel(const QueryRange& range,
                                             int level,
                                             RTree::QueryStats* stats) const {
  if (trees_.empty()) return AggregateSummary();
  const int l = std::clamp(level, 0, max_level());
  const AggregateSummary raw = trees_[l].RangeAggregate(range, stats);
  if (l == 0) return raw;
  return raw.Scaled(std::ldexp(1.0, l));  // res_l * 2^l (Alg. 6 line 3)
}

std::vector<AggregateSummary> LsrForest::AggregateByCellAtLevel(
    const QueryRange& range, const CellSlots& slots, int level) const {
  if (trees_.empty()) return std::vector<AggregateSummary>(slots.size());
  const int l = std::clamp(level, 0, max_level());
  std::vector<AggregateSummary> out =
      trees_[l].RangeAggregateByCell(range, slots);
  if (l > 0) {
    for (AggregateSummary& summary : out) {
      summary = summary.Scaled(std::ldexp(1.0, l));
    }
  }
  return out;
}

AggregateSummary LsrForest::ExactRangeAggregate(const QueryRange& range) const {
  if (trees_.empty()) return AggregateSummary();
  return trees_[0].RangeAggregate(range);
}

size_t LsrForest::MemoryUsage() const {
  size_t bytes = 0;
  for (const RTree& tree : trees_) bytes += tree.MemoryUsage();
  return bytes;
}

}  // namespace fra
