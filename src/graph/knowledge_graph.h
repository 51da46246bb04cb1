// Typed, attributed knowledge-graph container.
//
// Nodes carry a type id (paper: 10 types in PrimeKG, 5 in OGBL-BioKG, 1 in
// WordNet-18) and optionally an explicit feature vector.  Edges are
// undirected (SEAL treats knowledge graphs as undirected for enclosing-
// subgraph extraction), carry a relation-type id, and an attribute vector
// (paper §III-B: e.g. PrimeKG's 30 relations compressed to a 2-d ±polarity
// one-hot).  Adjacency is CSR over both endpoint directions, built once by
// finalize().
//
// After finalize() the graph is no longer frozen: insert_edge / delete_edge
// record incremental updates in a DeltaOverlay (tombstone bitmap + per-node
// patched adjacency) so the serving path can mutate the graph in O(degree)
// instead of rebuilding the CSR, and compact() folds the overlay back into
// a fresh CSR whose neighbor order is byte-identical to the overlay view
// (DESIGN.md §2.5).  neighbors()/degree()/find_edge() transparently read
// through the overlay, so every consumer (BFS, SEAL extraction, heuristics)
// sees the updated graph unchanged.  Mutations are NOT thread-safe against
// concurrent reads; reads of an unchanging graph (overlay or not) are.
//
// Million-node tier (DESIGN.md §2.6): a finalized graph serialises to a
// compact binary CSR snapshot (save_snapshot) and loads back either by
// copying (kCopy) or zero-copy via mmap (kMap).  A mapped graph keeps its
// big immutable arrays (node types, edge records, 64-bit CSR offsets,
// adjacency, node features) as read-only views into the mapping; the
// DeltaOverlay mutation API works unchanged on top (patched adjacency lists
// are seeded by copying the mapped base spans), and compact() detaches —
// it folds overlay + mapped arrays into owned storage and releases the
// mapping.  All id arithmetic is guarded: growing past 2^31-1 nodes or edge
// records raises a typed error instead of silently wrapping NodeId/EdgeId.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/delta_overlay.h"
#include "graph/graph_types.h"

namespace amdgcnn::graph {

class SnapshotMapping;  // graph/snapshot.h: owns one mmap'd snapshot file

/// How load_snapshot materialises the on-disk arrays.
enum class SnapshotLoadMode : int {
  kMap,   ///< zero-copy: arrays stay in the mmap'd file (read-only views)
  kCopy,  ///< read into owned vectors (portable fallback; same bytes)
};

class KnowledgeGraph {
 public:
  KnowledgeGraph(std::int32_t num_node_types, std::int32_t num_edge_types,
                 std::int64_t edge_attr_dim = 0,
                 std::int64_t node_feat_dim = 0);

  /// Default: empty untyped graph (1 node type, 1 edge type, no attributes);
  /// exists so containers holding graphs are default-constructible.
  KnowledgeGraph() : KnowledgeGraph(1, 1, 0, 0) {}

  // ---- Construction (before finalize) ------------------------------------

  /// Append a node of the given type; returns its id.
  NodeId add_node(std::int32_t type);

  /// Append an undirected edge; returns its id.  Self-loops and duplicate
  /// edges are rejected in finalize() only if `strict` was requested there.
  EdgeId add_edge(NodeId u, NodeId v, std::int32_t type);

  /// Set explicit features for one node (requires node_feat_dim > 0).
  void set_node_features(NodeId v, std::span<const double> feat);

  /// Define the attribute vector for one relation type (requires
  /// edge_attr_dim > 0).  Every edge of that type shares the vector —
  /// exactly how the paper derives edge attributes from relation ids.
  void set_edge_type_attr(std::int32_t type, std::span<const double> attr);

  /// Build the CSR adjacency.  Must be called exactly once; afterwards the
  /// construction API above is closed and the incremental-update API below
  /// opens.
  void finalize();
  bool finalized() const { return finalized_; }

  // ---- Snapshot persistence (after finalize; DESIGN.md §2.6) ---------------

  /// Write the graph as a versioned binary CSR snapshot (64-bit offsets,
  /// 8-byte-aligned sections, mmap-ready).  Requires a finalized graph with
  /// an EMPTY overlay — call compact() first so the snapshot is the logical
  /// graph (throws GraphUpdateError otherwise).
  void save_snapshot(const std::string& path) const;

  /// Load a snapshot written by save_snapshot.  kMap keeps the big arrays
  /// as read-only views into the mapped file (zero copy; the mapping lives
  /// until compact() detaches or the graph is destroyed); kCopy reads them
  /// into owned vectors.  Both modes produce byte-identical adjacency,
  /// attributes and SEAL datasets.
  static KnowledgeGraph load_snapshot(
      const std::string& path, SnapshotLoadMode mode = SnapshotLoadMode::kMap);

  /// True when the base arrays are views into an mmap'd snapshot.
  bool snapshot_backed() const { return snap_ != nullptr; }

  // ---- Incremental updates (after finalize; DESIGN.md §2.5) ---------------
  //
  // All failures raise GraphUpdateError (typed; never UB): duplicate
  // inserts, self-loops, out-of-range node/type ids, deleting a missing
  // edge, attribute-dim mismatch, id overflow.

  /// Insert an undirected edge through the delta overlay; returns its id
  /// (stable until the next compact()).  O(degree) on first touch of each
  /// endpoint, O(1) amortised afterwards.
  EdgeId insert_edge(NodeId u, NodeId v, std::int32_t type);

  /// As above, also (re)defining the attribute vector of `type`.  The
  /// attribute length must equal edge_attr_dim() exactly.
  EdgeId insert_edge(NodeId u, NodeId v, std::int32_t type,
                     std::span<const double> attr);

  /// Delete the edge between u and v (base edges become tombstones, overlay
  /// edges are dropped at the next compact()).  Returns the removed id.
  EdgeId delete_edge(NodeId u, NodeId v);

  /// Fold the overlay into a fresh CSR: tombstoned edges vanish, overlay
  /// edges become base edges, and edge ids are renumbered (surviving edges
  /// keep their relative order, so every node's neighbor sequence — and
  /// hence any extraction, DRNL labeling or BFS — is byte-identical before
  /// and after).  Generation counters survive: no cache goes stale.  On a
  /// snapshot-backed graph this also detaches the mapping (mapped arrays
  /// are copied into owned storage first).
  void compact();

  /// Monotone counter, bumped by every successful insert/delete (compact()
  /// does not bump it — the logical graph is unchanged).
  std::uint64_t generation() const { return overlay_.generation(); }
  /// Generation of the last mutation touching v (0 = never touched).
  std::uint64_t node_generation(NodeId v) const {
    return overlay_.node_generation(v);
  }
  /// Pending overlay depth (inserts + tombstones since the last compact).
  std::int64_t overlay_depth() const { return overlay_.depth(); }
  /// True when an edge id refers to a tombstoned (deleted, not yet
  /// compacted) edge; its record stays readable until compact().
  bool edge_removed(EdgeId e) const;

  // ---- Topology queries (after finalize) ----------------------------------

  std::int64_t num_nodes() const {
    return snap_ ? snap_num_nodes_
                 : static_cast<std::int64_t>(node_type_.size());
  }
  /// Count of edge RECORDS (valid id range), including tombstones awaiting
  /// compaction; see num_live_edges() for the logical edge count.
  std::int64_t num_edges() const {
    return snap_num_edges_ + static_cast<std::int64_t>(edges_.size());
  }
  /// Edges actually present in the graph (records minus tombstones).
  std::int64_t num_live_edges() const {
    return num_edges() - overlay_.num_tombstones();
  }
  std::int32_t num_node_types() const { return num_node_types_; }
  std::int32_t num_edge_types() const { return num_edge_types_; }
  std::int64_t edge_attr_dim() const { return edge_attr_dim_; }
  std::int64_t node_feat_dim() const { return node_feat_dim_; }

  std::int32_t node_type(NodeId v) const;
  const EdgeRecord& edge(EdgeId e) const;

  /// Attribute vector of one edge (via its relation type); empty when
  /// edge_attr_dim == 0.
  std::span<const double> edge_attr(EdgeId e) const;
  std::span<const double> edge_type_attr(std::int32_t type) const;
  std::span<const double> node_features(NodeId v) const;

  /// All (neighbor, edge) pairs of v.
  std::span<const Adjacent> neighbors(NodeId v) const;
  std::int64_t degree(NodeId v) const;

  // ---- Cache hints ----------------------------------------------------------
  //
  // On a graph far larger than the caches each of these reads is one DRAM
  // miss; hinting a batch of them before the reads lets the misses overlap
  // (DESIGN.md §2.6).  They change no result, and an id out of range (or an
  // unfinalized graph, for rows) makes them a no-op.

  enum class RowStep { kOffset, kAdjacency };
  /// Hint a later neighbors(v) in two steps, issued some rows apart:
  /// kOffset fetches v's CSR offset; kAdjacency reads it and fetches the
  /// row's first line (the patched list when the overlay holds one).
  void prefetch_row(NodeId v, RowStep step) const {
    if (!finalized_ || !in_range(v, num_nodes())) return;
    const std::int64_t* off = offsets_data() + v;
    if (step == RowStep::kOffset) {
      __builtin_prefetch(off);
    } else if (const auto* patched = overlay_.find(v)) {
      __builtin_prefetch(patched->data());
    } else {
      __builtin_prefetch(adjacency_data() + *off);
    }
  }
  /// Hint a later node_type(v).
  void prefetch_node_type(NodeId v) const {
    if (in_range(v, num_nodes())) __builtin_prefetch(node_type_data() + v);
  }
  /// Hint a later edge(e) / edge_attr(e).
  void prefetch_edge(EdgeId e) const {
    if (in_range(e, num_edges())) __builtin_prefetch(&edge_rec(e));
  }

  /// Edge id connecting u and v, or -1.  O(min-degree).
  EdgeId find_edge(NodeId u, NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const { return find_edge(u, v) >= 0; }

  /// Count of nodes per type (for dataset-summary tables).
  std::vector<std::int64_t> node_type_counts() const;
  /// Count of edges per type.
  std::vector<std::int64_t> edge_type_counts() const;

  // ---- Id-capacity guard (32-bit NodeId/EdgeId; DESIGN.md §2.6) -----------

  /// Maximum number of node or edge-record ids a graph may hold: 2^31 - 1
  /// unless lowered for testing.  Growing past it raises invalid_argument
  /// (construction API) or GraphUpdateError::kIdOverflow (update API)
  /// instead of silently wrapping the 32-bit ids.
  static std::int64_t id_capacity();
  /// Test-only: lower the capacity so overflow guards are exercisable
  /// without allocating 2^31 records.  0 restores the real limit.  Not
  /// thread-safe; never call outside tests.
  static void set_id_capacity_for_testing(std::int64_t cap);

 private:
  friend class SnapshotMapping;  // load_snapshot wiring (graph/snapshot.cpp)

  static bool in_range(std::int32_t id, std::int64_t count) {
    return id >= 0 && id < count;
  }
  void require_finalized(const char* what) const;
  void require_not_finalized(const char* what) const;
  /// (Re)build offsets_/adjacency_ from edges_ (counting sort by edge id).
  /// Requires fully-owned storage (never runs while snapshot-backed).
  void build_csr();

  // Base-array views: owned vectors or (when snapshot-backed) read-only
  // pointers into the mapping.  Edge records are split: ids below
  // snap_num_edges_ live in the snapshot, later ids (post-load inserts) in
  // the owned edges_ vector — so O(degree) mutation never copies the base.
  const std::int32_t* node_type_data() const {
    return snap_ ? snap_node_type_ : node_type_.data();
  }
  const EdgeRecord& edge_rec(EdgeId e) const {
    return e < snap_num_edges_
               ? snap_edges_[e]
               : edges_[static_cast<std::size_t>(e - snap_num_edges_)];
  }
  const std::int64_t* offsets_data() const {
    return snap_ ? snap_offsets_ : offsets_.data();
  }
  const Adjacent* adjacency_data() const {
    return snap_ ? snap_adjacency_ : adjacency_.data();
  }
  const double* node_feat_data() const {
    return snap_ ? snap_node_feat_ : node_feat_.data();
  }

  /// Base CSR slice of v, ignoring the overlay (patch seeding).
  std::span<const Adjacent> base_neighbors(NodeId v) const {
    const std::int64_t* off = offsets_data();
    return {adjacency_data() + off[v],
            static_cast<std::size_t>(off[v + 1] - off[v])};
  }
  /// Shared endpoint/type validation for insert_edge/delete_edge.
  void check_update_endpoints(const char* what, NodeId u, NodeId v) const;
  /// Copy every mapped base array into owned storage and release the
  /// mapping (compact()'s first step on a snapshot-backed graph).
  void detach_snapshot();

  std::int32_t num_node_types_;
  std::int32_t num_edge_types_;
  std::int64_t edge_attr_dim_;
  std::int64_t node_feat_dim_;

  std::vector<std::int32_t> node_type_;
  std::vector<EdgeRecord> edges_;
  std::vector<double> node_feat_;       // num_nodes x node_feat_dim
  std::vector<double> edge_type_attr_;  // num_edge_types x edge_attr_dim
                                        // (always owned: insert_edge writes)

  // CSR over both directions (64-bit offsets: directed adjacency entry
  // counts may exceed 2^31 even while ids stay 32-bit).
  std::vector<std::int64_t> offsets_;
  std::vector<Adjacent> adjacency_;

  // Snapshot backing (null/0 when the graph owns its arrays).
  std::shared_ptr<const SnapshotMapping> snap_;
  const std::int32_t* snap_node_type_ = nullptr;
  const EdgeRecord* snap_edges_ = nullptr;
  const std::int64_t* snap_offsets_ = nullptr;
  const Adjacent* snap_adjacency_ = nullptr;
  const double* snap_node_feat_ = nullptr;
  std::int64_t snap_num_nodes_ = 0;
  std::int64_t snap_num_edges_ = 0;

  // Post-finalize updates: tombstones, patched adjacency, generations.
  DeltaOverlay overlay_;
  bool finalized_ = false;
};

}  // namespace amdgcnn::graph
