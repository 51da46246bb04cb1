#include "graph/knowledge_graph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace amdgcnn::graph {

namespace {
std::int64_t g_id_capacity_override = 0;  // 0 = the real 2^31-1 limit
}  // namespace

std::int64_t KnowledgeGraph::id_capacity() {
  return g_id_capacity_override > 0
             ? g_id_capacity_override
             : static_cast<std::int64_t>(
                   std::numeric_limits<NodeId>::max());
}

void KnowledgeGraph::set_id_capacity_for_testing(std::int64_t cap) {
  if (cap < 0 ||
      cap > static_cast<std::int64_t>(std::numeric_limits<NodeId>::max()))
    throw std::invalid_argument("set_id_capacity_for_testing: bad capacity");
  g_id_capacity_override = cap;
}

KnowledgeGraph::KnowledgeGraph(std::int32_t num_node_types,
                               std::int32_t num_edge_types,
                               std::int64_t edge_attr_dim,
                               std::int64_t node_feat_dim)
    : num_node_types_(num_node_types),
      num_edge_types_(num_edge_types),
      edge_attr_dim_(edge_attr_dim),
      node_feat_dim_(node_feat_dim) {
  if (num_node_types <= 0 || num_edge_types <= 0)
    throw std::invalid_argument("KnowledgeGraph: type counts must be > 0");
  if (edge_attr_dim < 0 || node_feat_dim < 0)
    throw std::invalid_argument("KnowledgeGraph: negative attribute dim");
  edge_type_attr_.assign(
      static_cast<std::size_t>(num_edge_types) * edge_attr_dim, 0.0);
}

void KnowledgeGraph::require_finalized(const char* what) const {
  if (!finalized_)
    throw std::logic_error(std::string(what) + ": graph not finalized");
}

void KnowledgeGraph::require_not_finalized(const char* what) const {
  if (finalized_)
    throw std::logic_error(std::string(what) + ": graph already finalized");
}

NodeId KnowledgeGraph::add_node(std::int32_t type) {
  require_not_finalized("add_node");
  if (type < 0 || type >= num_node_types_)
    throw std::invalid_argument("add_node: type out of range");
  if (num_nodes() >= id_capacity())
    throw std::invalid_argument(
        "add_node: node count would overflow NodeId (2^31-1)");
  node_type_.push_back(type);
  if (node_feat_dim_ > 0)
    node_feat_.resize(node_feat_.size() + node_feat_dim_, 0.0);
  return static_cast<NodeId>(node_type_.size() - 1);
}

EdgeId KnowledgeGraph::add_edge(NodeId u, NodeId v, std::int32_t type) {
  require_not_finalized("add_edge");
  const auto n = static_cast<NodeId>(node_type_.size());
  if (u < 0 || u >= n || v < 0 || v >= n)
    throw std::invalid_argument("add_edge: endpoint out of range");
  if (u == v) throw std::invalid_argument("add_edge: self-loop rejected");
  if (type < 0 || type >= num_edge_types_)
    throw std::invalid_argument("add_edge: type out of range");
  if (num_edges() >= id_capacity())
    throw std::invalid_argument(
        "add_edge: edge count would overflow EdgeId (2^31-1)");
  edges_.push_back({u, v, type});
  return static_cast<EdgeId>(edges_.size() - 1);
}

void KnowledgeGraph::set_node_features(NodeId v, std::span<const double> feat) {
  if (node_feat_dim_ == 0)
    throw std::logic_error("set_node_features: node_feat_dim is 0");
  if (snap_)
    throw std::logic_error(
        "set_node_features: snapshot-backed features are read-only "
        "(compact() first)");
  if (v < 0 || v >= static_cast<NodeId>(node_type_.size()))
    throw std::invalid_argument("set_node_features: node out of range");
  if (static_cast<std::int64_t>(feat.size()) != node_feat_dim_)
    throw std::invalid_argument("set_node_features: wrong feature length");
  std::copy(feat.begin(), feat.end(),
            node_feat_.begin() + static_cast<std::size_t>(v) * node_feat_dim_);
}

void KnowledgeGraph::set_edge_type_attr(std::int32_t type,
                                        std::span<const double> attr) {
  if (edge_attr_dim_ == 0)
    throw std::logic_error("set_edge_type_attr: edge_attr_dim is 0");
  if (type < 0 || type >= num_edge_types_)
    throw std::invalid_argument("set_edge_type_attr: type out of range");
  if (static_cast<std::int64_t>(attr.size()) != edge_attr_dim_)
    throw std::invalid_argument("set_edge_type_attr: wrong attr length");
  std::copy(attr.begin(), attr.end(),
            edge_type_attr_.begin() +
                static_cast<std::size_t>(type) * edge_attr_dim_);
}

void KnowledgeGraph::build_csr() {
  const std::int64_t n = num_nodes();
  std::vector<std::int64_t> deg(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges_) {
    ++deg[static_cast<std::size_t>(e.src) + 1];
    ++deg[static_cast<std::size_t>(e.dst) + 1];
  }
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t i = 0; i < n; ++i)
    offsets_[i + 1] = offsets_[i] + deg[i + 1];
  adjacency_.resize(static_cast<std::size_t>(offsets_[n]));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
    const auto& e = edges_[eid];
    adjacency_[cursor[e.src]++] = {e.dst, static_cast<EdgeId>(eid)};
    adjacency_[cursor[e.dst]++] = {e.src, static_cast<EdgeId>(eid)};
  }
}

void KnowledgeGraph::finalize() {
  require_not_finalized("finalize");
  if (num_nodes() > id_capacity() || num_edges() > id_capacity())
    throw std::invalid_argument(
        "finalize: node/edge count overflows the 32-bit id range");
  build_csr();
  finalized_ = true;
}

void KnowledgeGraph::check_update_endpoints(const char* what, NodeId u,
                                            NodeId v) const {
  using Kind = GraphUpdateError::Kind;
  if (!finalized_)
    throw GraphUpdateError(Kind::kNotFinalized,
                           std::string(what) + ": graph not finalized "
                                               "(use add_edge before finalize)");
  const auto n = static_cast<NodeId>(num_nodes());
  if (u < 0 || u >= n || v < 0 || v >= n)
    throw GraphUpdateError(Kind::kNodeOutOfRange,
                           std::string(what) + ": endpoint out of range");
  if (u == v)
    throw GraphUpdateError(Kind::kSelfLoop,
                           std::string(what) + ": self-loop rejected");
}

EdgeId KnowledgeGraph::insert_edge(NodeId u, NodeId v, std::int32_t type) {
  using Kind = GraphUpdateError::Kind;
  check_update_endpoints("insert_edge", u, v);
  if (type < 0 || type >= num_edge_types_)
    throw GraphUpdateError(Kind::kTypeOutOfRange,
                           "insert_edge: type out of range");
  if (find_edge(u, v) >= 0)
    throw GraphUpdateError(Kind::kDuplicateEdge,
                           "insert_edge: edge already present");
  if (num_edges() >= id_capacity())
    throw GraphUpdateError(
        Kind::kIdOverflow,
        "insert_edge: edge count would overflow EdgeId (2^31-1)");
  edges_.push_back({u, v, type});
  const auto id = static_cast<EdgeId>(num_edges() - 1);
  overlay_.materialize(u, base_neighbors(u)).push_back({v, id});
  overlay_.materialize(v, base_neighbors(v)).push_back({u, id});
  overlay_.note_insert();
  overlay_.touch(u, v);
  return id;
}

EdgeId KnowledgeGraph::insert_edge(NodeId u, NodeId v, std::int32_t type,
                                   std::span<const double> attr) {
  using Kind = GraphUpdateError::Kind;
  if (static_cast<std::int64_t>(attr.size()) != edge_attr_dim_)
    throw GraphUpdateError(Kind::kAttrDimMismatch,
                           "insert_edge: attribute length does not match "
                           "edge_attr_dim");
  const auto id = insert_edge(u, v, type);
  if (edge_attr_dim_ > 0)
    std::copy(attr.begin(), attr.end(),
              edge_type_attr_.begin() +
                  static_cast<std::size_t>(type) * edge_attr_dim_);
  return id;
}

EdgeId KnowledgeGraph::delete_edge(NodeId u, NodeId v) {
  using Kind = GraphUpdateError::Kind;
  check_update_endpoints("delete_edge", u, v);
  const EdgeId e = find_edge(u, v);
  if (e < 0)
    throw GraphUpdateError(Kind::kMissingEdge,
                           "delete_edge: no edge between the endpoints");
  overlay_.mark_removed(e);
  auto erase_entry = [&](NodeId from, NodeId to) {
    auto& adj = overlay_.materialize(from, base_neighbors(from));
    for (auto it = adj.begin(); it != adj.end(); ++it)
      if (it->edge == e && it->node == to) {
        adj.erase(it);  // order-preserving: later entries keep their rank
        return;
      }
  };
  erase_entry(u, v);
  erase_entry(v, u);
  overlay_.touch(u, v);
  return e;
}

void KnowledgeGraph::detach_snapshot() {
  if (!snap_) return;
  // Owned copies of the mapped base arrays.  Edge records: base first, then
  // the post-load inserts already in edges_ — preserving every id.
  std::vector<EdgeRecord> all_edges;
  all_edges.reserve(static_cast<std::size_t>(num_edges()));
  all_edges.insert(all_edges.end(), snap_edges_,
                   snap_edges_ + snap_num_edges_);
  all_edges.insert(all_edges.end(), edges_.begin(), edges_.end());
  edges_ = std::move(all_edges);
  node_type_.assign(snap_node_type_, snap_node_type_ + snap_num_nodes_);
  if (node_feat_dim_ > 0)
    node_feat_.assign(snap_node_feat_,
                      snap_node_feat_ + snap_num_nodes_ * node_feat_dim_);
  // The CSR arrays are rebuilt by the caller (compact); no need to copy.
  snap_.reset();
  snap_node_type_ = nullptr;
  snap_edges_ = nullptr;
  snap_offsets_ = nullptr;
  snap_adjacency_ = nullptr;
  snap_node_feat_ = nullptr;
  snap_num_nodes_ = 0;
  snap_num_edges_ = 0;
}

void KnowledgeGraph::compact() {
  if (!finalized_)
    throw GraphUpdateError(GraphUpdateError::Kind::kNotFinalized,
                           "compact: graph not finalized");
  if (overlay_.empty() && !snap_) return;
  detach_snapshot();
  // Drop tombstones, keeping the relative order of survivors: a node's
  // rebuilt CSR slice then equals its patched overlay list byte for byte
  // (base survivors in base order, then overlay inserts in insertion
  // order), so compaction is invisible to every adjacency consumer.
  std::vector<EdgeRecord> live;
  live.reserve(edges_.size());
  for (std::size_t eid = 0; eid < edges_.size(); ++eid)
    if (!overlay_.removed(static_cast<EdgeId>(eid))) live.push_back(edges_[eid]);
  edges_ = std::move(live);
  overlay_.clear_structural();
  build_csr();
}

bool KnowledgeGraph::edge_removed(EdgeId e) const {
  if (e < 0 || e >= static_cast<EdgeId>(num_edges()))
    throw std::invalid_argument("edge_removed: id out of range");
  return overlay_.removed(e);
}

std::int32_t KnowledgeGraph::node_type(NodeId v) const {
  if (v < 0 || v >= static_cast<NodeId>(num_nodes()))
    throw std::invalid_argument("node_type: node out of range");
  return node_type_data()[v];
}

const EdgeRecord& KnowledgeGraph::edge(EdgeId e) const {
  if (e < 0 || e >= static_cast<EdgeId>(num_edges()))
    throw std::invalid_argument("edge: id out of range");
  return edge_rec(e);
}

std::span<const double> KnowledgeGraph::edge_attr(EdgeId e) const {
  return edge_type_attr(edge(e).type);
}

std::span<const double> KnowledgeGraph::edge_type_attr(
    std::int32_t type) const {
  if (type < 0 || type >= num_edge_types_)
    throw std::invalid_argument("edge_type_attr: type out of range");
  if (edge_attr_dim_ == 0) return {};
  return {edge_type_attr_.data() +
              static_cast<std::size_t>(type) * edge_attr_dim_,
          static_cast<std::size_t>(edge_attr_dim_)};
}

std::span<const double> KnowledgeGraph::node_features(NodeId v) const {
  if (v < 0 || v >= static_cast<NodeId>(num_nodes()))
    throw std::invalid_argument("node_features: node out of range");
  if (node_feat_dim_ == 0) return {};
  return {node_feat_data() + static_cast<std::size_t>(v) * node_feat_dim_,
          static_cast<std::size_t>(node_feat_dim_)};
}

std::span<const Adjacent> KnowledgeGraph::neighbors(NodeId v) const {
  require_finalized("neighbors");
  if (v < 0 || v >= static_cast<NodeId>(num_nodes()))
    throw std::invalid_argument("neighbors: node out of range");
  if (const auto* patched = overlay_.find(v))
    return {patched->data(), patched->size()};
  return base_neighbors(v);
}

std::int64_t KnowledgeGraph::degree(NodeId v) const {
  require_finalized("degree");
  if (v < 0 || v >= static_cast<NodeId>(num_nodes()))
    throw std::invalid_argument("degree: node out of range");
  if (const auto* patched = overlay_.find(v))
    return static_cast<std::int64_t>(patched->size());
  const std::int64_t* off = offsets_data();
  return off[v + 1] - off[v];
}

EdgeId KnowledgeGraph::find_edge(NodeId u, NodeId v) const {
  require_finalized("find_edge");
  if (u < 0 || u >= static_cast<NodeId>(num_nodes()) || v < 0 ||
      v >= static_cast<NodeId>(num_nodes()))
    throw std::invalid_argument("find_edge: node out of range");
  const NodeId from = degree(u) <= degree(v) ? u : v;
  const NodeId to = from == u ? v : u;
  for (const auto& a : neighbors(from))
    if (a.node == to) return a.edge;
  return -1;
}

std::vector<std::int64_t> KnowledgeGraph::node_type_counts() const {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_node_types_),
                                   0);
  const std::int32_t* types = node_type_data();
  const std::int64_t n = num_nodes();
  for (std::int64_t v = 0; v < n; ++v)
    ++counts[static_cast<std::size_t>(types[v])];
  return counts;
}

std::vector<std::int64_t> KnowledgeGraph::edge_type_counts() const {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_edge_types_),
                                   0);
  const std::int64_t m = num_edges();
  for (std::int64_t eid = 0; eid < m; ++eid)
    if (!overlay_.removed(static_cast<EdgeId>(eid)))
      ++counts[static_cast<std::size_t>(
          edge_rec(static_cast<EdgeId>(eid)).type)];
  return counts;
}

}  // namespace amdgcnn::graph
