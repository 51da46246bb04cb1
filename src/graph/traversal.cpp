#include "graph/traversal.h"

#include <algorithm>
#include <stdexcept>

namespace amdgcnn::graph {

void VisitEpochMap::begin(std::int64_t num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (slots_.size() < n) slots_.resize(n, Slot{0u, 0});
  if (++epoch_ == 0) {
    // 32-bit wraparound after ~4e9 traversals: one full clear, then epochs
    // restart at 1 (stamp 0 can never alias a live epoch).
    std::fill(slots_.begin(), slots_.end(), Slot{0u, 0});
    epoch_ = 1;
  }
}

void bfs_distances_epoch(const KnowledgeGraph& g, NodeId source,
                         const BfsOptions& options, VisitEpochMap& visit,
                         std::vector<NodeId>& visited_out) {
  using RowStep = KnowledgeGraph::RowStep;
  // Queue positions between the two prefetch steps of a row and the read.
  constexpr std::size_t kAhead = 4;
  if (source < 0 || source >= g.num_nodes())
    throw std::invalid_argument("bfs_distances_epoch: source out of range");
  visited_out.clear();
  if (source == options.masked_node) return;
  visit.set(source, 0);
  visited_out.push_back(source);
  // The visited list doubles as the flat frontier queue: discovery order IS
  // BFS order, so each depth is one contiguous run and the depth of the
  // node at `head` is counted per run instead of read back from the map.
  // Every node after the first one at max_depth is at max_depth too, so the
  // traversal ends there.
  std::int32_t depth = 0;
  std::size_t depth_end = 1;  // one past the last queued node at `depth`
  for (std::size_t head = 0; head < visited_out.size(); ++head) {
    if (head == depth_end) {
      ++depth;
      depth_end = visited_out.size();
    }
    if (depth == options.max_depth) break;
    // Prefetch only rows that will be expanded: on the last expanded depth
    // the queue past depth_end holds nodes at max_depth.
    const std::size_t expand_end =
        depth + 1 == options.max_depth ? depth_end : visited_out.size();
    if (head + kAhead < expand_end)
      g.prefetch_row(visited_out[head + kAhead], RowStep::kAdjacency);
    if (head + 2 * kAhead < expand_end)
      g.prefetch_row(visited_out[head + 2 * kAhead], RowStep::kOffset);
    for (const auto& a : g.neighbors(visited_out[head])) {
      if (a.edge == options.masked_edge) continue;
      if (a.node == options.masked_node) continue;
      if (visit.visited(a.node)) continue;
      visit.set(a.node, depth + 1);
      visited_out.push_back(a.node);
    }
  }
}

std::int32_t shortest_path_length(const KnowledgeGraph& g, NodeId from,
                                  NodeId to, const BfsOptions& options) {
  if (to < 0 || to >= g.num_nodes())
    throw std::invalid_argument("shortest_path_length: target out of range");
  thread_local VisitEpochMap visit;
  thread_local std::vector<NodeId> reached;
  visit.begin(g.num_nodes());
  bfs_distances_epoch(g, from, options, visit, reached);
  return visit.get(to);
}

}  // namespace amdgcnn::graph
