// Breadth-first traversal on KnowledgeGraph: the epoch-stamped, hop-bounded
// BFS behind SEAL extraction's per-target frontiers and
// shortest_path_length, with optional masking of one edge (the target link
// must be hidden from the model — SEAL) and of one node (as when DRNL
// computes d(i, a) with b removed).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/knowledge_graph.h"

namespace amdgcnn::graph {

inline constexpr std::int32_t kUnreachable = -1;

struct BfsOptions {
  /// Stop expanding beyond this depth (-1 = unbounded).
  std::int32_t max_depth = -1;
  /// Edge id to ignore during traversal (-1 = none).
  EdgeId masked_edge = -1;
  /// Node id to treat as removed (-1 = none).
  NodeId masked_node = -1;
};

/// Epoch-stamped map NodeId -> int32 (DESIGN.md §2.6): resetting for a new
/// traversal bumps a 32-bit epoch counter instead of clearing the O(N)
/// array, so a bounded BFS on a million-node graph costs only the nodes it
/// actually reaches.  Each node owns one 8-byte (stamp, value) slot, so a
/// visit or a lookup reads one cache line.  A slot is valid iff its stamp
/// equals the current epoch; stale slots from earlier traversals are never
/// read.  The BFS below stores distances in it, and extraction also keeps
/// its original -> local id map in one.
class VisitEpochMap {
 public:
  /// Start a new epoch over a graph of `num_nodes` nodes.  Grows the
  /// backing array on first use / graph growth (amortised; steady-state
  /// O(1)).  Handles 32-bit epoch wraparound by a one-off full clear.
  void begin(std::int64_t num_nodes);

  bool visited(NodeId v) const {
    return slots_[static_cast<std::size_t>(v)].stamp == epoch_;
  }
  /// Value of v in the current epoch (its distance, for a BFS map), or
  /// kUnreachable (-1) if unset.
  std::int32_t get(NodeId v) const {
    const Slot s = slots_[static_cast<std::size_t>(v)];
    return s.stamp == epoch_ ? s.value : kUnreachable;
  }
  void set(NodeId v, std::int32_t value) {
    slots_[static_cast<std::size_t>(v)] = {epoch_, value};
  }
  /// Test-only: set the epoch counter, so that the next begin() starts
  /// epoch `epoch + 1` (0xFFFFFFFF makes it wrap) without ~4e9 begin()
  /// calls.  Slots keep their stamps.
  void set_epoch_for_testing(std::uint32_t epoch) { epoch_ = epoch; }

 private:
  struct alignas(8) Slot {
    std::uint32_t stamp;  // slot valid iff == epoch_
    std::int32_t value;
  };
  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;  // 0 = no epoch started yet
};

/// Bounded BFS into an epoch map: `visit` must be begin()-ed for this graph
/// by the caller; visited nodes (the hop-bounded frontier, source first, in
/// discovery order) are appended to `visited_out` (cleared first), which
/// doubles as the frontier queue.  Produces exactly the distances and the
/// discovery order of a plain queue BFS over an O(N) distance array, without
/// its clearing cost.  The rows of queued nodes it will expand are
/// prefetched a few queue positions ahead (DESIGN.md §2.6).
void bfs_distances_epoch(const KnowledgeGraph& g, NodeId source,
                         const BfsOptions& options, VisitEpochMap& visit,
                         std::vector<NodeId>& visited_out);

/// Shortest-path distance between two nodes, or kUnreachable.  Runs
/// bfs_distances_epoch on a map owned by the calling thread.
std::int32_t shortest_path_length(const KnowledgeGraph& g, NodeId from,
                                  NodeId to, const BfsOptions& options = {});

}  // namespace amdgcnn::graph
