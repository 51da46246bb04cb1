// Enclosing-subgraph extraction (SEAL, §III-A of the paper).
//
// Given a target node pair (a, b), collect the k-hop neighborhoods of both
// targets and induce the subgraph on their UNION (default, SEAL's original
// rule) or INTERSECTION (the paper's choice for PrimeKG, to bound subgraph
// size around high-degree drug/disease nodes).  The target link itself, when
// present, is always masked so the model cannot read the answer off the
// graph.  Per-node distances to each target are computed with the *other*
// target removed (the DRNL convention of Zhang & Chen 2018).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/knowledge_graph.h"

namespace amdgcnn::graph {

enum class NeighborhoodMode {
  kUnion,
  kIntersection,
};

struct LocalEdge {
  std::int32_t src;  // local node id
  std::int32_t dst;  // local node id
  EdgeId orig;       // edge id in the full graph (for attribute lookup)
};

/// An induced enclosing subgraph with local (0-based, dense) node ids.
/// Local id 0 is target a and local id 1 is target b, always.
struct EnclosingSubgraph {
  std::vector<NodeId> nodes;          // local id -> original id
  std::vector<LocalEdge> edges;       // induced edges, target link excluded
  std::vector<std::int32_t> dist_a;   // per local node; kUnreachable = -1
  std::vector<std::int32_t> dist_b;
  /// Original ids of EVERY node within num_hops of either target (the union
  /// hull, before the intersection rule or the size cap prunes it), plus the
  /// two targets.  Only filled when ExtractOptions::collect_hull is set.
  /// Any graph mutation that can change this subgraph must touch a hull
  /// node, so caches key their invalidation on hull generations
  /// (serve::Server's score LRU, DESIGN.md §2.5).
  std::vector<NodeId> hull;

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(nodes.size());
  }
  static constexpr std::int32_t kTargetA = 0;
  static constexpr std::int32_t kTargetB = 1;
};

struct ExtractOptions {
  std::int32_t num_hops = 2;                          // paper: k = 2
  NeighborhoodMode mode = NeighborhoodMode::kUnion;   // intersection: PrimeKG
  /// Hard cap on subgraph size; nodes closest to the targets are kept.
  /// 0 disables the cap.
  std::int64_t max_nodes = 0;
  /// Also record the uncapped union hull in EnclosingSubgraph::hull (cache
  /// invalidation support); off by default — the extraction bytes are
  /// unchanged either way.
  bool collect_hull = false;
};

/// One hop-bounded BFS from `source` with no masked edge: the reached nodes
/// in discovery order (source first) and their distances.  It depends only
/// on (source, depth) and the graph's adjacency, so one traversal serves
/// every link out of `source` until a node in `nodes` is mutated — the
/// serving runtime keys its endpoint LRU on exactly that (DESIGN.md §2.8).
struct Frontier {
  NodeId source = -1;
  std::int32_t depth = 0;
  std::vector<NodeId> nodes;
  std::vector<std::int32_t> dist;  // parallel to nodes
};

/// Extract the enclosing subgraph of (a, b).  Requires a != b.  The returned
/// subgraph always contains both targets, even if they fall outside each
/// other's k-hop neighborhood (they then appear isolated, DRNL gives
/// unreachable nodes label 0 downstream).
///
/// `frontier_a` / `frontier_b` are optional frontier slots for the two
/// targets.  When the link (a, b) is absent from the graph, a filled slot is
/// replayed instead of running that target's BFS, and an empty one receives
/// the traversal.  A replayed frontier must have been traversed for the same
/// target and options.num_hops (std::invalid_argument otherwise) on the
/// graph as it is now — the caller owns staleness.  When the link exists it
/// is masked out of both traversals, which makes them specific to this link,
/// so the slots are left untouched.  The bytes are the same with and without
/// slots.
///
/// Visits are stamped into per-thread epoch maps (DESIGN.md §2.6), so a link
/// costs O(|subgraph|) regardless of graph size.
EnclosingSubgraph extract_enclosing_subgraph(
    const KnowledgeGraph& g, NodeId a, NodeId b, const ExtractOptions& options,
    std::shared_ptr<const Frontier>* frontier_a = nullptr,
    std::shared_ptr<const Frontier>* frontier_b = nullptr);

/// Process-wide frontier-slot counters (relaxed atomics): `hits` counts
/// slots replayed, `misses` slots filled by a traversal.
struct FrontierCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};
FrontierCacheStats frontier_cache_stats();

/// Materialise an enclosing subgraph as a standalone KnowledgeGraph with
/// local node ids (types, relation types and attribute tables preserved).
/// Used by the γ-decay reproduction (bench_gamma_decay) to evaluate
/// heuristics *within* the subgraph, and handy for debugging extractions.
KnowledgeGraph materialize_subgraph(const KnowledgeGraph& g,
                                    const EnclosingSubgraph& sub);

}  // namespace amdgcnn::graph
