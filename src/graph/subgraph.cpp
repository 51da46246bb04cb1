#include "graph/subgraph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "graph/traversal.h"

namespace amdgcnn::graph {

namespace {

/// BFS distances within the local subgraph from `source`, with one local
/// node masked (removed).  Adjacency is flat CSR (off has m + 1 entries);
/// `queue` is reusable frontier scratch, `dist` escapes to the caller.
void local_bfs_csr(const std::int32_t* off, const std::int32_t* adj,
                   std::int32_t m, std::int32_t source, std::int32_t masked,
                   std::vector<std::int32_t>& dist,
                   std::vector<std::int32_t>& queue) {
  dist.assign(static_cast<std::size_t>(m), kUnreachable);
  queue.clear();
  if (source == masked) return;
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t u = queue[head];
    for (std::int32_t i = off[u]; i < off[u + 1]; ++i) {
      const std::int32_t v = adj[i];
      if (v == masked || dist[v] != kUnreachable) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
}

// ---- Per-thread state -------------------------------------------------------

/// Process-wide frontier-slot counters: two relaxed increments per slotted
/// BFS are noise next to the traversal they count, and every consumer (the
/// serving runtime's stats, the benches) wants the cross-thread total.
std::atomic<std::int64_t> g_frontier_hits{0};
std::atomic<std::int64_t> g_frontier_misses{0};

/// Size-cap key: the candidates closest to the target pair sort first.  The
/// node id makes every key unique.
struct Closeness {
  std::int32_t sum, nearest;
  NodeId v;
  auto operator<=>(const Closeness&) const = default;
};

/// Thread-local extraction scratch: visited maps, frontier lists, the
/// stamped local-id map, the cap's keys and the local-CSR buffers all
/// persist across links, so per-link work is proportional to the subgraph
/// actually touched.
struct ExtractScratch {
  VisitEpochMap da, db;
  std::vector<NodeId> va, vb;  // frontier node lists (discovery order)
  std::vector<NodeId> merged;  // sorted union minus the targets
  std::vector<NodeId> sort_tmp;  // radix-sort scratch for `merged`
  VisitEpochMap local_id;      // original id -> local id
  std::vector<Closeness> keys;  // size-cap keys
  // Local-CSR / DRNL scratch.
  std::vector<std::int32_t> off, ladj, cursor, queue;
};

ExtractScratch& tls_scratch() {
  thread_local ExtractScratch s;
  return s;
}

/// 4096-bit membership filter over one link's kept node ids (multiplicative
/// hash).  It fits in L1, so the induced-edge scan rejects nearly every
/// neighbor outside the subgraph without reading the O(N) local-id map.  A
/// set bit may be a collision; the local-id map decides.
class KeptFilter {
 public:
  void insert(NodeId v) {
    const std::uint32_t h = hash(v);
    bits_[h >> 6] |= std::uint64_t{1} << (h & 63);
  }
  bool may_contain(NodeId v) const {
    const std::uint32_t h = hash(v);
    return (bits_[h >> 6] >> (h & 63)) & 1;
  }

 private:
  static std::uint32_t hash(NodeId v) {
    return (static_cast<std::uint32_t>(v) * 0x9E3779B1u) >> 20;
  }
  std::array<std::uint64_t, 64> bits_{};
};

/// Extraction past the two BFS runs: size cap, node list, edge induction,
/// local CSR and DRNL distances.  `s.da` / `s.db` hold the targets'
/// hop-bounded distances for this link.
void finish_subgraph(const KnowledgeGraph& g, NodeId a, NodeId b,
                     EdgeId masked_edge, const ExtractOptions& options,
                     std::vector<NodeId>& candidates, EnclosingSubgraph& sub,
                     ExtractScratch& s) {
  // Apply the size cap: keep the max_nodes - 2 candidates closest to the
  // target pair, in closeness order.  The node id makes every key unique, so
  // a partial sort yields exactly the prefix a full sort would, at
  // O(n log keep) instead of O(n log n) over a hub's 2-hop neighborhood.
  if (options.max_nodes > 0 &&
      static_cast<std::int64_t>(candidates.size()) + 2 > options.max_nodes) {
    auto& keys = s.keys;
    keys.clear();
    // Unreachable distances count as a large constant so reachable-from-both
    // nodes sort first.
    const std::int32_t large = 4 * options.num_hops + 4;
    for (const NodeId v : candidates) {
      const std::int32_t ra = s.da.get(v), rb = s.db.get(v);
      const std::int32_t xa = ra == kUnreachable ? large : ra;
      const std::int32_t xb = rb == kUnreachable ? large : rb;
      keys.push_back({xa + xb, std::min(xa, xb), v});
    }
    const auto keep = static_cast<std::ptrdiff_t>(options.max_nodes - 2);
    std::partial_sort(keys.begin(), keys.begin() + keep, keys.end());
    candidates.resize(static_cast<std::size_t>(keep));
    for (std::ptrdiff_t i = 0; i < keep; ++i) candidates[i] = keys[i].v;
  }

  sub.nodes.reserve(candidates.size() + 2);
  sub.nodes.push_back(a);
  sub.nodes.push_back(b);
  sub.nodes.insert(sub.nodes.end(), candidates.begin(), candidates.end());

  // The scan below reads every kept node's row: hint them all first, so
  // their misses overlap.
  using RowStep = KnowledgeGraph::RowStep;
  for (const NodeId v : sub.nodes) g.prefetch_row(v, RowStep::kOffset);
  for (const NodeId v : sub.nodes) g.prefetch_row(v, RowStep::kAdjacency);
  s.local_id.begin(g.num_nodes());
  KeptFilter kept;
  for (std::size_t i = 0; i < sub.nodes.size(); ++i) {
    s.local_id.set(sub.nodes[i], static_cast<std::int32_t>(i));
    kept.insert(sub.nodes[i]);
  }

  // Induce edges: both endpoints inside, target link excluded.  Each
  // undirected edge is visited from both endpoints; keep it once.  Most
  // neighbors are not kept, and the filter rejects nearly all of them
  // without reading the O(N) local-id map.
  for (std::size_t i = 0; i < sub.nodes.size(); ++i) {
    const NodeId u = sub.nodes[i];
    for (const auto& adj : g.neighbors(u)) {
      if (adj.edge == masked_edge || !kept.may_contain(adj.node)) continue;
      const std::int32_t lv = s.local_id.get(adj.node);
      if (lv < 0) continue;
      const std::int32_t lu = static_cast<std::int32_t>(i);
      if (lu < lv) sub.edges.push_back({lu, lv, adj.edge});
    }
  }
  // The local CSR below indexes directed entries with int32.
  if (2 * sub.edges.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    throw std::length_error(
        "extract_enclosing_subgraph: induced subgraph exceeds the 32-bit "
        "local CSR (set ExtractOptions::max_nodes)");

  // DRNL distances on the induced subgraph, each with the other target
  // removed (Zhang & Chen 2018 convention).  Local adjacency as flat CSR
  // (counting sort over the edge list).
  const auto m = static_cast<std::int32_t>(sub.nodes.size());
  auto& off = s.off;
  auto& ladj = s.ladj;
  auto& cursor = s.cursor;
  off.assign(static_cast<std::size_t>(m) + 1, 0);
  ladj.resize(2 * sub.edges.size());
  for (const auto& e : sub.edges) {
    ++off[e.src + 1];
    ++off[e.dst + 1];
  }
  for (std::int32_t i = 0; i < m; ++i) off[i + 1] += off[i];
  cursor.assign(off.begin(), off.end() - 1);
  for (const auto& e : sub.edges) {
    ladj[cursor[e.src]++] = e.dst;
    ladj[cursor[e.dst]++] = e.src;
  }
  local_bfs_csr(off.data(), ladj.data(), m, EnclosingSubgraph::kTargetA,
                EnclosingSubgraph::kTargetB, sub.dist_a, s.queue);
  local_bfs_csr(off.data(), ladj.data(), m, EnclosingSubgraph::kTargetB,
                EnclosingSubgraph::kTargetA, sub.dist_b, s.queue);
}

/// Ascending sort of distinct non-negative node ids: LSD radix over the bytes
/// the largest id needs, so a hub's thousand-node 2-hop union costs a few
/// linear passes instead of a comparison sort.  Short lists keep std::sort.
/// The ids are distinct, so any correct sort yields the same bytes.
void sort_node_ids(std::vector<NodeId>& ids, std::vector<NodeId>& tmp) {
  if (ids.size() < 256) {
    std::sort(ids.begin(), ids.end());
    return;
  }
  const auto max_id =
      static_cast<std::uint32_t>(*std::max_element(ids.begin(), ids.end()));
  tmp.resize(ids.size());
  for (int shift = 0; shift < 32 && (max_id >> shift) != 0; shift += 8) {
    std::array<std::uint32_t, 257> pos{};
    for (const NodeId v : ids)
      ++pos[((static_cast<std::uint32_t>(v) >> shift) & 0xffu) + 1];
    for (int d = 0; d < 256; ++d) pos[d + 1] += pos[d];
    for (const NodeId v : ids)
      tmp[pos[(static_cast<std::uint32_t>(v) >> shift) & 0xffu]++] = v;
    ids.swap(tmp);
  }
}

/// Hop-bounded BFS of `source` into `visit`, returning the reached nodes in
/// discovery order.  A filled `slot` is replayed into the epoch map instead
/// of traversing (same bytes, minus the traversal); an empty one receives a
/// copy of the traversal.  No slot: a plain traversal into `scratch`.
const std::vector<NodeId>& bfs_frontier(const KnowledgeGraph& g,
                                        NodeId source, EdgeId masked_edge,
                                        std::int32_t depth,
                                        std::shared_ptr<const Frontier>* slot,
                                        VisitEpochMap& visit,
                                        std::vector<NodeId>& scratch) {
  visit.begin(g.num_nodes());
  if (slot != nullptr && *slot != nullptr) {
    const Frontier& f = **slot;
    if (f.source != source || f.depth != depth ||
        f.nodes.size() != f.dist.size())
      throw std::invalid_argument(
          "extract_enclosing_subgraph: frontier slot does not match its "
          "target and num_hops");
    g_frontier_hits.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < f.nodes.size(); ++i)
      visit.set(f.nodes[i], f.dist[i]);
    return f.nodes;
  }
  BfsOptions opts;
  opts.max_depth = depth;
  opts.masked_edge = masked_edge;
  bfs_distances_epoch(g, source, opts, visit, scratch);
  if (slot != nullptr) {
    g_frontier_misses.fetch_add(1, std::memory_order_relaxed);
    auto f = std::make_shared<Frontier>();
    f->source = source;
    f->depth = depth;
    f->nodes = scratch;
    f->dist.resize(scratch.size());
    for (std::size_t i = 0; i < scratch.size(); ++i)
      f->dist[i] = visit.get(scratch[i]);
    *slot = std::move(f);
  }
  return scratch;
}

}  // namespace

EnclosingSubgraph extract_enclosing_subgraph(
    const KnowledgeGraph& g, NodeId a, NodeId b, const ExtractOptions& options,
    std::shared_ptr<const Frontier>* frontier_a,
    std::shared_ptr<const Frontier>* frontier_b) {
  if (a == b)
    throw std::invalid_argument("extract_enclosing_subgraph: a == b");
  if (options.num_hops < 1)
    throw std::invalid_argument("extract_enclosing_subgraph: num_hops < 1");

  // Hide the target link (if it exists) from all traversals.  A masked
  // traversal is specific to this link: never replay or fill a slot.
  const EdgeId masked_edge = g.find_edge(a, b);
  if (masked_edge >= 0) frontier_a = frontier_b = nullptr;
  auto& s = tls_scratch();
  const auto& va = bfs_frontier(g, a, masked_edge, options.num_hops,
                                frontier_a, s.da, s.va);
  const auto& vb = bfs_frontier(g, b, masked_edge, options.num_hops,
                                frontier_b, s.db, s.vb);

  // Sorted union of the two frontiers minus the targets: ascending node id
  // is the order of a 0..N candidate scan, while only the nodes actually
  // reached are touched.
  s.merged.clear();
  for (const NodeId v : va)
    if (v != a && v != b) s.merged.push_back(v);
  for (const NodeId v : vb)
    if (v != a && v != b && !s.da.visited(v)) s.merged.push_back(v);
  sort_node_ids(s.merged, s.sort_tmp);

  EnclosingSubgraph sub;
  if (options.collect_hull) {
    sub.hull.reserve(s.merged.size() + 2);
    sub.hull.push_back(a);
    sub.hull.push_back(b);
    sub.hull.insert(sub.hull.end(), s.merged.begin(), s.merged.end());
  }
  std::vector<NodeId> candidates;
  if (options.mode == NeighborhoodMode::kUnion) {
    candidates.assign(s.merged.begin(), s.merged.end());
  } else {
    for (const NodeId v : s.merged)
      if (s.da.visited(v) && s.db.visited(v)) candidates.push_back(v);
  }
  finish_subgraph(g, a, b, masked_edge, options, candidates, sub, s);
  return sub;
}

FrontierCacheStats frontier_cache_stats() {
  FrontierCacheStats s;
  s.hits = g_frontier_hits.load(std::memory_order_relaxed);
  s.misses = g_frontier_misses.load(std::memory_order_relaxed);
  return s;
}

KnowledgeGraph materialize_subgraph(const KnowledgeGraph& g,
                                    const EnclosingSubgraph& sub) {
  KnowledgeGraph local(g.num_node_types(), g.num_edge_types(),
                       g.edge_attr_dim(), g.node_feat_dim());
  for (std::int32_t t = 0; t < g.num_edge_types(); ++t)
    if (g.edge_attr_dim() > 0) local.set_edge_type_attr(t, g.edge_type_attr(t));
  for (std::size_t i = 0; i < sub.nodes.size(); ++i) {
    const auto v = local.add_node(g.node_type(sub.nodes[i]));
    if (g.node_feat_dim() > 0)
      local.set_node_features(v, g.node_features(sub.nodes[i]));
  }
  for (const auto& e : sub.edges)
    local.add_edge(e.src, e.dst, g.edge(e.orig).type);
  local.finalize();
  return local;
}

}  // namespace amdgcnn::graph
