#include "index/rtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace fra {
namespace {

// Orders indices [0, n) into STR (Sort-Tile-Recursive) tile order for the
// given center points and chunk size: sort by x, cut into ~sqrt(n/chunk)
// vertical slices, sort each slice by y. Consecutive runs of `chunk`
// indices then form spatially compact tiles.
std::vector<uint32_t> StrOrder(const std::vector<Point>& centers,
                               size_t chunk) {
  const size_t n = centers.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n <= chunk) return order;

  const size_t num_tiles = (n + chunk - 1) / chunk;
  const size_t num_slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(num_tiles))));
  const size_t slice_size = ((num_tiles + num_slices - 1) / num_slices) * chunk;

  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return centers[a].x < centers[b].x;
  });
  for (size_t begin = 0; begin < n; begin += slice_size) {
    const size_t end = std::min(n, begin + slice_size);
    std::sort(order.begin() + begin, order.begin() + end,
              [&](uint32_t a, uint32_t b) { return centers[a].y < centers[b].y; });
  }
  return order;
}

// Orders each leaf's indices in `order` (consecutive runs of `chunk`) by
// the cell of `grid` its center is in, keeping STR order within a cell,
// and sets bit i of `run_starts` when position i starts a same-cell run
// of its leaf.
void SortLeavesByCell(const std::vector<Point>& centers, size_t chunk,
                      const GridIndex::GridSpec& grid,
                      std::vector<uint32_t>* order,
                      std::vector<uint64_t>* run_starts) {
  const size_t rows = grid.Rows();
  const size_t cols = grid.Cols();
  const size_t n = order->size();
  run_starts->assign((n + 63) / 64, 0);
  std::vector<size_t> cells;
  for (size_t begin = 0; begin < n; begin += chunk) {
    uint32_t* const leaf = order->data() + begin;
    const size_t size = std::min(n, begin + chunk) - begin;
    cells.clear();
    for (size_t k = 0; k < size; ++k) {
      const GridIndex::RowCol cell =
          GridIndex::RowColOf(grid, rows, cols, centers[leaf[k]]);
      cells.push_back(cell.row * cols + cell.col);
    }
    // A stable insertion sort: STR orders a leaf by y (unless the tree is
    // one leaf), so its cells ascend by row already and few indices move.
    for (size_t k = 1; k < size; ++k) {
      const size_t key = cells[k];
      const uint32_t index = leaf[k];
      size_t j = k;
      for (; j > 0 && cells[j - 1] > key; --j) {
        cells[j] = cells[j - 1];
        leaf[j] = leaf[j - 1];
      }
      cells[j] = key;
      leaf[j] = index;
    }
    for (size_t k = 0; k < size; ++k) {
      if (k == 0 || cells[k] != cells[k - 1]) {
        (*run_starts)[(begin + k) / 64] |= uint64_t{1} << ((begin + k) % 64);
      }
    }
  }
}

}  // namespace

RTree RTree::Build(ObjectSet objects, const Options& options) {
  return BuildImpl(std::move(objects), options, nullptr);
}

RTree RTree::Build(ObjectSet objects, const Options& options,
                   const GridIndex::GridSpec& grid) {
  return BuildImpl(std::move(objects), options, &grid);
}

RTree RTree::BuildImpl(ObjectSet objects, const Options& options,
                       const GridIndex::GridSpec* grid) {
  FRA_CHECK_GT(options.leaf_capacity, 0);
  FRA_CHECK_GT(options.fanout, 1);

  RTree tree;
  if (grid != nullptr) tree.grid_ = *grid;
  if (objects.empty()) return tree;

  // Leaf level: STR-order the objects, then pack consecutive runs. Over a
  // grid, each leaf is then ordered by cell.
  const size_t leaf_cap = static_cast<size_t>(options.leaf_capacity);
  {
    std::vector<Point> centers(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      centers[i] = objects[i].location;
    }
    std::vector<uint32_t> order = StrOrder(centers, leaf_cap);
    if (grid != nullptr) {
      SortLeavesByCell(centers, leaf_cap, *grid, &order, &tree.run_starts_);
    }
    ObjectSet sorted;
    sorted.reserve(objects.size());
    for (uint32_t idx : order) sorted.push_back(objects[idx]);
    tree.objects_ = std::move(sorted);
  }

  const size_t n = tree.objects_.size();
  std::vector<Node> current;
  current.reserve((n + leaf_cap - 1) / leaf_cap);
  for (size_t begin = 0; begin < n; begin += leaf_cap) {
    const size_t end = std::min(n, begin + leaf_cap);
    Node leaf;
    leaf.level = 0;
    leaf.begin = static_cast<uint32_t>(begin);
    leaf.end = static_cast<uint32_t>(end);
    leaf.mbr = Rect::Empty();
    for (size_t i = begin; i < end; ++i) {
      leaf.mbr.ExpandToInclude(tree.objects_[i].location);
      leaf.summary.Add(tree.objects_[i]);
    }
    current.push_back(leaf);
  }

  // Upper levels: STR-order the nodes of the finished level, append them to
  // the node array (so parents can reference a contiguous range), and pack
  // groups of `fanout` under new parents.
  const size_t fanout = static_cast<size_t>(options.fanout);
  uint32_t level = 0;
  while (true) {
    if (current.size() > 1) {
      std::vector<Point> centers(current.size());
      for (size_t i = 0; i < current.size(); ++i) {
        centers[i] = current[i].mbr.Center();
      }
      const std::vector<uint32_t> order = StrOrder(centers, fanout);
      std::vector<Node> reordered;
      reordered.reserve(current.size());
      for (uint32_t idx : order) reordered.push_back(current[idx]);
      current = std::move(reordered);
    }

    const uint32_t base = static_cast<uint32_t>(tree.nodes_.size());
    tree.nodes_.insert(tree.nodes_.end(), current.begin(), current.end());
    ++level;
    if (current.size() == 1) break;

    std::vector<Node> parents;
    parents.reserve((current.size() + fanout - 1) / fanout);
    for (size_t begin = 0; begin < current.size(); begin += fanout) {
      const size_t end = std::min(current.size(), begin + fanout);
      Node parent;
      parent.level = level;
      parent.begin = base + static_cast<uint32_t>(begin);
      parent.end = base + static_cast<uint32_t>(end);
      parent.mbr = Rect::Empty();
      for (size_t i = begin; i < end; ++i) {
        parent.mbr.ExpandToInclude(current[i].mbr);
        parent.summary.Merge(current[i].summary);
      }
      parents.push_back(parent);
    }
    current = std::move(parents);
  }

  tree.root_ = static_cast<uint32_t>(tree.nodes_.size()) - 1;
  tree.height_ = static_cast<int>(level);
  tree.total_ = tree.nodes_[tree.root_].summary;
  return tree;
}

AggregateSummary RTree::RangeAggregate(const QueryRange& range,
                                       QueryStats* stats) const {
  AggregateSummary acc;
  if (!nodes_.empty()) AggregateNode(root_, range, &acc, stats);
  return acc;
}

void RTree::AggregateNode(uint32_t node_index, const QueryRange& range,
                          AggregateSummary* acc, QueryStats* stats) const {
  const Node& node = nodes_[node_index];
  if (stats != nullptr) ++stats->nodes_visited;
  if (!range.Intersects(node.mbr)) return;
  if (range.Contains(node.mbr)) {
    acc->Merge(node.summary);
    if (stats != nullptr) ++stats->subtrees_taken;
    return;
  }
  if (node.level == 0) {
    if (stats != nullptr) stats->objects_tested += node.end - node.begin;
    AggregateSummary part;
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (range.Contains(objects_[i].location)) part.Add(objects_[i]);
    }
    acc->Merge(part);
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    AggregateNode(child, range, acc, stats);
  }
}

std::vector<AggregateSummary> RTree::RangeAggregateByCell(
    const QueryRange& range, const CellSlots& slots) const {
  FRA_CHECK(grid_.has_value() && *grid_ == slots.grid().spec())
      << "per-cell aggregation needs a tree built over the slots' grid";
  std::vector<AggregateSummary> out(slots.size());
  if (!nodes_.empty()) AggregateNodeByCell(root_, range, slots, out.data());
  return out;
}

void RTree::AggregateNodeByCell(uint32_t node_index, const QueryRange& range,
                                const CellSlots& slots,
                                AggregateSummary* out) const {
  const Node& node = nodes_[node_index];
  if (!range.Intersects(node.mbr)) return;
  // RowColOf is monotone, so the cells of the MBR's corners bound the cell
  // of every object below.
  const GridIndex::RowCol lo = slots.grid().RowColOf(node.mbr.min);
  const GridIndex::RowCol hi = slots.grid().RowColOf(node.mbr.max);
  if (lo == hi) {
    // One cell holds the whole subtree: a plain range aggregate into its
    // slot, or nothing when the cell has none.
    const int slot = slots.SlotAt(lo);
    if (slot >= 0) AggregateNode(node_index, range, &out[slot], nullptr);
    return;
  }
  if (node.level == 0) {
    // The leaf is sorted into same-cell runs: a run's first object names
    // its slot.
    const bool inside = range.Contains(node.mbr);
    for (uint32_t start = node.begin; start < node.end;) {
      const uint32_t stop = RunEnd(start, node.end);
      const int slot = slots.SlotOf(objects_[start].location);
      if (slot >= 0) {
        AggregateSummary run;
        for (uint32_t i = start; i < stop; ++i) {
          if (inside || range.Contains(objects_[i].location)) {
            run.Add(objects_[i]);
          }
        }
        out[slot].Merge(run);
      }
      start = stop;
    }
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    AggregateNodeByCell(child, range, slots, out);
  }
}

uint32_t RTree::RunEnd(uint32_t start, uint32_t end) const {
  for (uint32_t i = start + 1; i < end; i = (i | 63) + 1) {
    const uint64_t word = run_starts_[i / 64] >> (i % 64);
    if (word != 0) {
      return std::min(end, i + static_cast<uint32_t>(std::countr_zero(word)));
    }
  }
  return end;
}

void RTree::CollectInRange(const QueryRange& range,
                           std::vector<SpatialObject>* out) const {
  if (!nodes_.empty()) CollectNode(root_, range, out);
}

void RTree::CollectNode(uint32_t node_index, const QueryRange& range,
                        std::vector<SpatialObject>* out) const {
  const Node& node = nodes_[node_index];
  if (!range.Intersects(node.mbr)) return;
  if (node.level == 0) {
    for (uint32_t i = node.begin; i < node.end; ++i) {
      if (range.Contains(objects_[i].location)) out->push_back(objects_[i]);
    }
    return;
  }
  if (range.Contains(node.mbr)) {
    // Whole subtree inside: leaves of a packed tree occupy a contiguous
    // object range, but intermediate levels do not expose it directly, so
    // walk down; each visited node is fully covered (cheap, no tests).
    for (uint32_t child = node.begin; child < node.end; ++child) {
      CollectNode(child, range, out);
    }
    return;
  }
  for (uint32_t child = node.begin; child < node.end; ++child) {
    CollectNode(child, range, out);
  }
}

Rect RTree::bounds() const {
  if (nodes_.empty()) return Rect::Empty();
  return nodes_[root_].mbr;
}

size_t RTree::MemoryUsage() const {
  return objects_.capacity() * sizeof(SpatialObject) +
         nodes_.capacity() * sizeof(Node) +
         run_starts_.capacity() * sizeof(uint64_t);
}

}  // namespace fra
