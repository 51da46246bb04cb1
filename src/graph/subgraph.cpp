#include "graph/subgraph.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "graph/traversal.h"
#include "tensor/tensor.h"

namespace amdgcnn::graph {

namespace {

/// Scratch buffer borrowed from the calling thread's int32 pool and returned
/// on destruction.  Each worker of the parallel dataset build recycles the
/// same distance maps / frontier queues / CSR scratch across its links, so
/// steady-state extraction performs no heap allocation (DESIGN.md §2.2).
struct PooledI32 {
  std::vector<std::int32_t> v;
  explicit PooledI32(std::size_t n)
      : v(ag::detail::i32_buffer_pool().acquire(n)) {}
  ~PooledI32() { ag::detail::i32_buffer_pool().release(std::move(v)); }
  PooledI32(const PooledI32&) = delete;
  PooledI32& operator=(const PooledI32&) = delete;
};

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

// ---- Epoch-kernel per-thread state ------------------------------------------

/// Process-wide frontier-cache counters.  The caches themselves are
/// per-thread, so aggregate accounting lives here: two relaxed increments
/// per cached BFS are noise next to the traversal they replace, and every
/// consumer (LinkPredictor::stats, the serving runtime, the benches) wants
/// the cross-thread total anyway.
std::atomic<std::int64_t> g_frontier_hits{0};
std::atomic<std::int64_t> g_frontier_misses{0};
std::atomic<std::int64_t> g_frontier_evictions{0};

/// One cached hop-bounded BFS result: the reached nodes in discovery order
/// plus their distances.  Keyed on everything that determines the BFS bytes.
struct FrontierEntry {
  const KnowledgeGraph* g = nullptr;
  std::uint64_t uid = 0;         // instance id: guards address reuse
  std::uint64_t generation = 0;  // mutation counter: guards staleness
  NodeId source = -1;
  EdgeId masked_edge = -2;  // -2 = empty slot (-1 is a real "no mask" key)
  std::int32_t depth = -1;
  std::uint64_t last_use = 0;
  std::vector<NodeId> nodes;
  std::vector<std::int32_t> dist;  // parallel to nodes
};

/// Tiny per-thread LRU over frontier results.  Eight slots cover the serving
/// shape (one source node fanned out against a candidate batch) with room
/// for a couple of interleaved sources.
class FrontierCache {
 public:
  FrontierEntry* find(const KnowledgeGraph& g, NodeId source,
                      EdgeId masked_edge, std::int32_t depth) {
    for (auto& e : entries_) {
      if (e.g == &g && e.uid == g.uid() && e.generation == g.generation() &&
          e.source == source && e.masked_edge == masked_edge &&
          e.depth == depth) {
        e.last_use = ++tick_;
        return &e;
      }
    }
    return nullptr;
  }

  FrontierEntry& evict_lru() {
    FrontierEntry* victim = &entries_[0];
    for (auto& e : entries_)
      if (e.last_use < victim->last_use) victim = &e;
    if (victim->masked_edge != -2)  // a filled slot is being overwritten
      g_frontier_evictions.fetch_add(1, std::memory_order_relaxed);
    victim->last_use = ++tick_;
    return *victim;
  }

 private:
  std::array<FrontierEntry, 8> entries_{};
  std::uint64_t tick_ = 0;
};

/// Thread-local scratch for the epoch kernel: visited maps, frontier lists,
/// the stamped local-id map and local-CSR buffers all persist across links,
/// so per-link work is proportional to the subgraph actually touched.
struct ExtractScratch {
  VisitEpochMap da, db;
  std::vector<NodeId> va, vb;  // frontier node lists (discovery order)
  std::vector<NodeId> merged;  // sorted union minus the targets
  std::vector<NodeId> sort_tmp;  // radix-sort scratch for `merged`
  // Original-id -> local-id map, epoch-stamped like the visited maps.
  std::vector<std::int32_t> local_id;
  std::vector<std::uint32_t> local_stamp;
  std::uint32_t local_epoch = 0;
  // Local-CSR / DRNL scratch.
  std::vector<std::int32_t> off, ladj, cursor, queue;
  FrontierCache cache;
};

ExtractScratch& tls_scratch() {
  thread_local ExtractScratch s;
  return s;
}

/// Epoch-stamped sparse map NodeId -> local id (get returns -1 when unset
/// this epoch).  Same wrap discipline as VisitEpochMap.
struct EpochLocalMap {
  std::vector<std::int32_t>& id;
  std::vector<std::uint32_t>& stamp;
  std::uint32_t epoch;
  void set(NodeId v, std::int32_t lid) {
    stamp[static_cast<std::size_t>(v)] = epoch;
    id[static_cast<std::size_t>(v)] = lid;
  }
  std::int32_t get(NodeId v) const {
    return stamp[static_cast<std::size_t>(v)] == epoch
               ? id[static_cast<std::size_t>(v)]
               : -1;
  }
};

EpochLocalMap begin_local_epoch(ExtractScratch& s, std::int64_t num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (s.local_stamp.size() < n) {
    s.local_stamp.resize(n, 0u);
    s.local_id.resize(n);
  }
  if (++s.local_epoch == 0) {
    std::fill(s.local_stamp.begin(), s.local_stamp.end(), 0u);
    s.local_epoch = 1;
  }
  return {s.local_id, s.local_stamp, s.local_epoch};
}

/// Dense local-id map over a pooled full-size array (the legacy kernel's
/// O(num_nodes) fill — part of the clear-per-link baseline cost).
struct DenseLocalMap {
  PooledI32 buf;
  explicit DenseLocalMap(std::size_t n) : buf(n) {
    std::fill(buf.v.begin(), buf.v.end(), std::int32_t{-1});
  }
  void set(NodeId v, std::int32_t lid) { buf.v[v] = lid; }
  std::int32_t get(NodeId v) const { return buf.v[v]; }
};

/// Shared tail of both kernels: size cap, node list, edge induction, local
/// CSR and DRNL distances.  `dist_of_a` / `dist_of_b` return the hop-bounded
/// BFS distance or kUnreachable; `local_of` maps original -> local ids.
/// This is the single definition of the extraction bytes past the BFS, so
/// the kernels cannot drift apart.
template <typename DistA, typename DistB, typename LocalOf>
void finish_subgraph(const KnowledgeGraph& g, NodeId a, NodeId b,
                     EdgeId masked_edge, const ExtractOptions& options,
                     std::vector<NodeId>& candidates, EnclosingSubgraph& sub,
                     DistA dist_of_a, DistB dist_of_b, LocalOf&& local_of,
                     std::vector<std::int32_t>& off,
                     std::vector<std::int32_t>& ladj,
                     std::vector<std::int32_t>& cursor,
                     std::vector<std::int32_t>& queue) {
  // Apply the size cap: keep the max_nodes - 2 candidates closest to the
  // target pair, in closeness order.  The node id makes every key unique, so
  // a partial sort yields exactly the prefix a full sort would, at
  // O(n log keep) instead of O(n log n) over a hub's 2-hop neighborhood.
  if (options.max_nodes > 0 &&
      static_cast<std::int64_t>(candidates.size()) + 2 > options.max_nodes) {
    struct Closeness {
      std::int32_t sum, nearest;
      NodeId v;
      auto operator<=>(const Closeness&) const = default;
    };
    thread_local std::vector<Closeness> keys;
    keys.clear();
    // Unreachable distances count as a large constant so reachable-from-both
    // nodes sort first.
    const std::int32_t large = 4 * options.num_hops + 4;
    for (const NodeId v : candidates) {
      const std::int32_t ra = dist_of_a(v), rb = dist_of_b(v);
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

  for (std::size_t i = 0; i < sub.nodes.size(); ++i)
    local_of.set(sub.nodes[i], static_cast<std::int32_t>(i));

  // Induce edges: both endpoints inside, target link excluded.  Each
  // undirected edge is visited from both endpoints; keep it once.
  for (std::size_t i = 0; i < sub.nodes.size(); ++i) {
    const NodeId u = sub.nodes[i];
    for (const auto& adj : g.neighbors(u)) {
      if (adj.edge == masked_edge) continue;
      const std::int32_t lv = local_of.get(adj.node);
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
                EnclosingSubgraph::kTargetB, sub.dist_a, queue);
  local_bfs_csr(off.data(), ladj.data(), m, EnclosingSubgraph::kTargetB,
                EnclosingSubgraph::kTargetA, sub.dist_b, queue);
  // The targets know their own distances regardless of masking.
  sub.dist_a[EnclosingSubgraph::kTargetA] = 0;
  sub.dist_b[EnclosingSubgraph::kTargetB] = 0;
}

/// Legacy kernel: per-link O(num_nodes) distance maps, candidate scan and
/// local-id fill.  Kept as the scale-bench baseline and as a bit-exactness
/// cross-check for the epoch kernel.
EnclosingSubgraph extract_clear_per_link(const KnowledgeGraph& g, NodeId a,
                                         NodeId b,
                                         const ExtractOptions& options,
                                         EdgeId masked_edge) {
  BfsOptions bfs_opts;
  bfs_opts.max_depth = options.num_hops;
  bfs_opts.masked_edge = masked_edge;
  const std::size_t total_nodes = static_cast<std::size_t>(g.num_nodes());
  PooledI32 da(total_nodes), db(total_nodes), queue(total_nodes);
  bfs_distances_into(g, a, bfs_opts, da.v, queue.v);
  bfs_distances_into(g, b, bfs_opts, db.v, queue.v);

  // Collect candidate nodes per the union / intersection rule.
  EnclosingSubgraph sub;
  std::vector<NodeId> candidates;
  if (options.collect_hull) {
    sub.hull.push_back(a);
    sub.hull.push_back(b);
  }
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    if (v == a || v == b) continue;
    const bool in_a = da.v[v] != kUnreachable;
    const bool in_b = db.v[v] != kUnreachable;
    if (options.collect_hull && (in_a || in_b)) sub.hull.push_back(v);
    const bool keep = options.mode == NeighborhoodMode::kUnion
                          ? (in_a || in_b)
                          : (in_a && in_b);
    if (keep) candidates.push_back(v);
  }

  DenseLocalMap local_of(total_nodes);
  PooledI32 off(1), ladj(1), cursor(1);
  finish_subgraph(
      g, a, b, masked_edge, options, candidates, sub,
      [&](NodeId v) { return da.v[v]; }, [&](NodeId v) { return db.v[v]; },
      local_of, off.v, ladj.v, cursor.v, queue.v);
  return sub;
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

/// Hop-bounded BFS through the per-thread frontier cache: a hit replays the
/// stored (node, dist) list into the epoch map — same bytes as running the
/// BFS, minus the traversal.
void bfs_frontier(const KnowledgeGraph& g, NodeId source, EdgeId masked_edge,
                  std::int32_t depth, bool use_cache, VisitEpochMap& visit,
                  std::vector<NodeId>& visited, FrontierCache& cache) {
  visit.begin(g.num_nodes());
  if (use_cache) {
    if (FrontierEntry* hit = cache.find(g, source, masked_edge, depth)) {
      g_frontier_hits.fetch_add(1, std::memory_order_relaxed);
      visited.assign(hit->nodes.begin(), hit->nodes.end());
      for (std::size_t i = 0; i < visited.size(); ++i)
        visit.set(visited[i], hit->dist[i]);
      return;
    }
    g_frontier_misses.fetch_add(1, std::memory_order_relaxed);
  }
  BfsOptions opts;
  opts.max_depth = depth;
  opts.masked_edge = masked_edge;
  bfs_distances_epoch(g, source, opts, visit, visited);
  if (use_cache) {
    FrontierEntry& slot = cache.evict_lru();
    slot.g = &g;
    slot.uid = g.uid();
    slot.generation = g.generation();
    slot.source = source;
    slot.masked_edge = masked_edge;
    slot.depth = depth;
    slot.nodes.assign(visited.begin(), visited.end());
    slot.dist.resize(visited.size());
    for (std::size_t i = 0; i < visited.size(); ++i)
      slot.dist[i] = visit.distance(visited[i]);
  }
}

/// Default kernel: epoch-stamped visited maps — per-link cost follows the
/// touched subgraph, not the graph (DESIGN.md §2.6).
EnclosingSubgraph extract_epoch(const KnowledgeGraph& g, NodeId a, NodeId b,
                                const ExtractOptions& options,
                                EdgeId masked_edge) {
  auto& s = tls_scratch();
  bfs_frontier(g, a, masked_edge, options.num_hops, options.reuse_frontiers,
               s.da, s.va, s.cache);
  bfs_frontier(g, b, masked_edge, options.num_hops, options.reuse_frontiers,
               s.db, s.vb, s.cache);

  // Sorted union of the two frontiers minus the targets: ascending node id
  // reproduces the legacy kernel's 0..N candidate scan byte-for-byte while
  // only touching the nodes actually reached.
  s.merged.clear();
  for (const NodeId v : s.va)
    if (v != a && v != b) s.merged.push_back(v);
  for (const NodeId v : s.vb)
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

  EpochLocalMap local_of = begin_local_epoch(s, g.num_nodes());
  finish_subgraph(
      g, a, b, masked_edge, options, candidates, sub,
      [&](NodeId v) { return s.da.distance(v); },
      [&](NodeId v) { return s.db.distance(v); }, local_of, s.off, s.ladj,
      s.cursor, s.queue);
  return sub;
}

}  // namespace

EnclosingSubgraph extract_enclosing_subgraph(const KnowledgeGraph& g, NodeId a,
                                             NodeId b,
                                             const ExtractOptions& options) {
  if (a == b)
    throw std::invalid_argument("extract_enclosing_subgraph: a == b");
  if (options.num_hops < 1)
    throw std::invalid_argument("extract_enclosing_subgraph: num_hops < 1");

  // Hide the target link (if it exists) from all traversals.
  const EdgeId masked_edge = g.find_edge(a, b);
  return options.clear_per_link
             ? extract_clear_per_link(g, a, b, options, masked_edge)
             : extract_epoch(g, a, b, options, masked_edge);
}

bool export_cached_frontier(const KnowledgeGraph& g, NodeId source,
                            EdgeId masked_edge, std::int32_t depth,
                            std::vector<NodeId>& nodes,
                            std::vector<std::int32_t>& dist) {
  FrontierEntry* e = tls_scratch().cache.find(g, source, masked_edge, depth);
  if (e == nullptr) return false;
  nodes = e->nodes;
  dist = e->dist;
  return true;
}

void seed_frontier_cache(const KnowledgeGraph& g, NodeId source,
                         EdgeId masked_edge, std::int32_t depth,
                         const std::vector<NodeId>& nodes,
                         const std::vector<std::int32_t>& dist) {
  if (nodes.size() != dist.size())
    throw std::invalid_argument(
        "seed_frontier_cache: nodes/dist length mismatch");
  auto& cache = tls_scratch().cache;
  if (cache.find(g, source, masked_edge, depth) != nullptr)
    return;  // already resident (find refreshed its LRU stamp)
  FrontierEntry& slot = cache.evict_lru();
  slot.g = &g;
  slot.uid = g.uid();
  slot.generation = g.generation();
  slot.source = source;
  slot.masked_edge = masked_edge;
  slot.depth = depth;
  slot.nodes = nodes;
  slot.dist = dist;
}

FrontierCacheStats frontier_cache_stats() {
  FrontierCacheStats s;
  s.hits = g_frontier_hits.load(std::memory_order_relaxed);
  s.misses = g_frontier_misses.load(std::memory_order_relaxed);
  s.evictions = g_frontier_evictions.load(std::memory_order_relaxed);
  return s;
}

void reset_frontier_cache_stats() {
  g_frontier_hits.store(0, std::memory_order_relaxed);
  g_frontier_misses.store(0, std::memory_order_relaxed);
  g_frontier_evictions.store(0, std::memory_order_relaxed);
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
