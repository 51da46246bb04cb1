// Reference for SEAL's enclosing-subgraph extraction (paper §III-A), which
// graph::extract_enclosing_subgraph must equal bit for bit
// (tests/test_scale_tier.cpp, bench_extraction_throughput).  It is written
// the plain way, with O(num_nodes) scratch per link:
//   * one std::queue BFS per target over a full distance array, the target
//     link masked;
//   * a 0..N scan for the candidates of the union or intersection rule;
//   * a full std::sort of (distance sum, nearest distance, id) keys for the
//     size cap;
//   * a dense original -> local id array for edge induction;
//   * DRNL distances by BFS over per-node adjacency lists of the induced
//     subgraph, each with the other target removed.
// It reads the graph through KnowledgeGraph's adjacency and find_edge
// only, and shares no code with the library's kernel (its epoch-stamped
// maps, frontier merge, cap keys, kept-node filter or local CSR), so a bug
// in any step of that kernel shows up as a difference.  reference_bfs is
// the same kind of oracle for the library's epoch-stamped BFS alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <tuple>
#include <vector>

#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace amdgcnn::testing {

/// Distances from a BFS source (kUnreachable where not reached) and the
/// nodes in discovery order.
struct ReferenceBfs {
  std::vector<std::int32_t> dist;
  std::vector<graph::NodeId> order;
};

/// Plain std::queue BFS over an O(N) distance array, honouring every
/// graph::BfsOptions field.
inline ReferenceBfs reference_bfs(const graph::KnowledgeGraph& g,
                                  graph::NodeId source,
                                  const graph::BfsOptions& o) {
  ReferenceBfs r;
  r.dist.assign(static_cast<std::size_t>(g.num_nodes()), graph::kUnreachable);
  if (source == o.masked_node) return r;
  std::queue<graph::NodeId> q;
  r.dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const graph::NodeId u = q.front();
    q.pop();
    r.order.push_back(u);
    if (o.max_depth >= 0 && r.dist[u] >= o.max_depth) continue;
    for (const auto& a : g.neighbors(u)) {
      if (a.edge == o.masked_edge || a.node == o.masked_node ||
          r.dist[a.node] != graph::kUnreachable)
        continue;
      r.dist[a.node] = r.dist[u] + 1;
      q.push(a.node);
    }
  }
  return r;
}

/// Same contract as graph::extract_enclosing_subgraph without frontier
/// slots: requires a != b and options.num_hops >= 1.
inline graph::EnclosingSubgraph extract_reference(
    const graph::KnowledgeGraph& g, graph::NodeId a, graph::NodeId b,
    const graph::ExtractOptions& options) {
  using graph::kUnreachable;
  using graph::NodeId;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const graph::EdgeId masked_edge = g.find_edge(a, b);
  graph::BfsOptions hops;
  hops.max_depth = options.num_hops;
  hops.masked_edge = masked_edge;
  const auto da = reference_bfs(g, a, hops).dist;
  const auto db = reference_bfs(g, b, hops).dist;

  // Candidates in ascending id order; the hull is every node within reach
  // of either target.
  graph::EnclosingSubgraph sub;
  if (options.collect_hull) sub.hull = {a, b};
  std::vector<NodeId> candidates;
  for (std::size_t v = 0; v < n; ++v) {
    const auto id = static_cast<NodeId>(v);
    if (id == a || id == b) continue;
    const bool in_a = da[v] != kUnreachable;
    const bool in_b = db[v] != kUnreachable;
    if (options.collect_hull && (in_a || in_b)) sub.hull.push_back(id);
    if (options.mode == graph::NeighborhoodMode::kUnion ? (in_a || in_b)
                                                        : (in_a && in_b))
      candidates.push_back(id);
  }

  // Size cap: the max_nodes - 2 candidates closest to the pair, by distance
  // sum, then nearest distance, then id; unreachable counts as a large
  // constant.
  if (options.max_nodes > 0 &&
      static_cast<std::int64_t>(candidates.size()) + 2 > options.max_nodes) {
    const std::int32_t large = 4 * options.num_hops + 4;
    std::vector<std::tuple<std::int32_t, std::int32_t, NodeId>> keys;
    for (const NodeId v : candidates) {
      const std::int32_t xa = da[v] == kUnreachable ? large : da[v];
      const std::int32_t xb = db[v] == kUnreachable ? large : db[v];
      keys.emplace_back(xa + xb, std::min(xa, xb), v);
    }
    std::sort(keys.begin(), keys.end());
    candidates.clear();
    for (std::int64_t i = 0; i < options.max_nodes - 2; ++i)
      candidates.push_back(std::get<2>(keys[static_cast<std::size_t>(i)]));
  }
  sub.nodes = {a, b};
  sub.nodes.insert(sub.nodes.end(), candidates.begin(), candidates.end());

  // Induced edges, target link excluded: each kept node's neighbors in
  // adjacency order, every undirected edge once, from its lower local id.
  std::vector<std::int32_t> local(n, -1);
  for (std::size_t i = 0; i < sub.nodes.size(); ++i)
    local[static_cast<std::size_t>(sub.nodes[i])] =
        static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < sub.nodes.size(); ++i)
    for (const auto& adj : g.neighbors(sub.nodes[i])) {
      const std::int32_t lv = local[static_cast<std::size_t>(adj.node)];
      if (adj.edge == masked_edge || lv < 0) continue;
      if (static_cast<std::int32_t>(i) < lv)
        sub.edges.push_back({static_cast<std::int32_t>(i), lv, adj.edge});
    }

  // DRNL distances inside the subgraph, each with the other target removed.
  const std::size_t m = sub.nodes.size();
  std::vector<std::vector<std::int32_t>> nbrs(m);
  for (const auto& e : sub.edges) {
    nbrs[static_cast<std::size_t>(e.src)].push_back(e.dst);
    nbrs[static_cast<std::size_t>(e.dst)].push_back(e.src);
  }
  const auto local_bfs = [&](std::int32_t source, std::int32_t removed) {
    std::vector<std::int32_t> dist(m, kUnreachable);
    std::queue<std::int32_t> q;
    dist[static_cast<std::size_t>(source)] = 0;
    q.push(source);
    while (!q.empty()) {
      const std::int32_t u = q.front();
      q.pop();
      for (const std::int32_t v : nbrs[static_cast<std::size_t>(u)]) {
        if (v == removed || dist[static_cast<std::size_t>(v)] != kUnreachable)
          continue;
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
    return dist;
  };
  sub.dist_a = local_bfs(graph::EnclosingSubgraph::kTargetA,
                         graph::EnclosingSubgraph::kTargetB);
  sub.dist_b = local_bfs(graph::EnclosingSubgraph::kTargetB,
                         graph::EnclosingSubgraph::kTargetA);
  return sub;
}

}  // namespace amdgcnn::testing
