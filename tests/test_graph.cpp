// KnowledgeGraph container + traversal tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datasets/kg_generator.h"
#include "extraction_reference.h"
#include "graph/knowledge_graph.h"
#include "graph/traversal.h"
#include "test_util.h"
#include "util/rng.h"

namespace amdgcnn::graph {
namespace {

using testing::reference_bfs;

TEST(KnowledgeGraph, BuildAndQuery) {
  KnowledgeGraph g(2, 3, /*edge_attr_dim=*/2, /*node_feat_dim=*/2);
  const auto a = g.add_node(0);
  const auto b = g.add_node(1);
  const auto c = g.add_node(1);
  g.set_node_features(b, std::vector<double>{0.5, -1.0});
  g.set_edge_type_attr(1, std::vector<double>{1.0, 0.0});
  const auto e0 = g.add_edge(a, b, 1);
  g.add_edge(b, c, 2);
  g.finalize();

  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.node_type(a), 0);
  EXPECT_EQ(g.node_type(c), 1);
  EXPECT_EQ(g.degree(b), 2);
  EXPECT_EQ(g.degree(a), 1);
  EXPECT_EQ(g.find_edge(a, b), e0);
  EXPECT_EQ(g.find_edge(b, a), e0);  // undirected
  EXPECT_EQ(g.find_edge(a, c), -1);
  EXPECT_TRUE(g.has_edge(b, c));
  EXPECT_EQ(g.edge(e0).type, 1);

  auto attr = g.edge_attr(e0);
  ASSERT_EQ(attr.size(), 2u);
  EXPECT_EQ(attr[0], 1.0);
  auto nf = g.node_features(b);
  EXPECT_EQ(nf[1], -1.0);
  // Unset features default to zero.
  EXPECT_EQ(g.node_features(a)[0], 0.0);
}

TEST(KnowledgeGraph, NeighborsListBothEndpoints) {
  auto g = testing::triangle_with_tail();
  auto n2 = g.neighbors(2);
  EXPECT_EQ(n2.size(), 3u);  // 0, 1, 3
  bool saw0 = false, saw1 = false, saw3 = false;
  for (const auto& adj : n2) {
    saw0 = saw0 || adj.node == 0;
    saw1 = saw1 || adj.node == 1;
    saw3 = saw3 || adj.node == 3;
  }
  EXPECT_TRUE(saw0 && saw1 && saw3);
}

TEST(KnowledgeGraph, TypeCounts) {
  KnowledgeGraph g(3, 2);
  g.add_node(0);
  g.add_node(2);
  g.add_node(2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.finalize();
  EXPECT_EQ(g.node_type_counts(), (std::vector<std::int64_t>{1, 0, 2}));
  EXPECT_EQ(g.edge_type_counts(), (std::vector<std::int64_t>{0, 2}));
}

TEST(KnowledgeGraph, ValidationErrors) {
  KnowledgeGraph g(2, 2, 2, 2);
  const auto a = g.add_node(0);
  const auto b = g.add_node(1);
  EXPECT_THROW(g.add_node(2), std::invalid_argument);       // bad type
  EXPECT_THROW(g.add_edge(a, a, 0), std::invalid_argument); // self loop
  EXPECT_THROW(g.add_edge(a, 7, 0), std::invalid_argument); // bad endpoint
  EXPECT_THROW(g.add_edge(a, b, 5), std::invalid_argument); // bad edge type
  EXPECT_THROW(g.set_node_features(a, std::vector<double>{1.0}),
               std::invalid_argument);                      // wrong width
  EXPECT_THROW(g.neighbors(a), std::logic_error);           // not finalized
  g.add_edge(a, b, 0);
  g.finalize();
  EXPECT_THROW(g.finalize(), std::logic_error);             // double finalize
  EXPECT_THROW(g.add_node(0), std::logic_error);            // frozen
  EXPECT_THROW(g.add_edge(a, b, 0), std::logic_error);
}

TEST(KnowledgeGraph, ZeroAttrDimsReturnEmptySpans) {
  auto g = testing::path_graph(3);
  EXPECT_EQ(g.edge_attr(0).size(), 0u);
  EXPECT_EQ(g.node_features(0).size(), 0u);
}

/// Every node's value in `visit`'s current epoch (kUnreachable if unset).
std::vector<std::int32_t> dense(const VisitEpochMap& visit, std::int64_t n) {
  std::vector<std::int32_t> d(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < d.size(); ++v)
    d[v] = visit.get(static_cast<NodeId>(v));
  return d;
}

/// Distances from `source` to every node through the library's BFS kernel.
std::vector<std::int32_t> epoch_distances(const KnowledgeGraph& g,
                                          NodeId source,
                                          const BfsOptions& o = {}) {
  VisitEpochMap visit;
  std::vector<NodeId> order;
  visit.begin(g.num_nodes());
  bfs_distances_epoch(g, source, o, visit, order);
  return dense(visit, g.num_nodes());
}

TEST(Bfs, DistancesOnPath) {
  auto g = testing::path_graph(5);
  auto d = epoch_distances(g, 0);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(Bfs, MaxDepthTruncates) {
  auto g = testing::path_graph(5);
  BfsOptions opts;
  opts.max_depth = 2;
  auto d = epoch_distances(g, 0, opts);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, kUnreachable, kUnreachable}));
}

TEST(Bfs, MaskedEdgeBlocksPath) {
  auto g = testing::path_graph(3);
  BfsOptions opts;
  opts.masked_edge = g.find_edge(0, 1);
  auto d = epoch_distances(g, 0, opts);
  EXPECT_EQ(d[1], kUnreachable);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Bfs, MaskedNodeActsRemoved) {
  auto g = testing::triangle_with_tail();
  BfsOptions opts;
  opts.masked_node = 2;
  auto d = epoch_distances(g, 0, opts);
  EXPECT_EQ(d[1], 1);               // via direct edge 0-1
  EXPECT_EQ(d[2], kUnreachable);    // removed
  EXPECT_EQ(d[3], kUnreachable);    // only reachable through 2
}

TEST(Bfs, MaskedSourceYieldsAllUnreachable) {
  auto g = testing::path_graph(3);
  BfsOptions opts;
  opts.masked_node = 0;
  auto d = epoch_distances(g, 0, opts);
  for (auto v : d) EXPECT_EQ(v, kUnreachable);
}

// The epoch kernel counts depths per queue run, stops at the first node at
// max_depth and prefetches rows ahead; none of that may change a distance or
// the discovery order.  One map serves every traversal, so a slot leaking
// from an earlier epoch into a later one would show up as a distance.
// shortest_path_length runs the same kernel on its own thread-local map,
// which grows from the first graph to the second.
TEST(Bfs, EpochKernelMatchesReferenceBfs) {
  datasets::RandomKGOptions ro;
  ro.num_nodes = 400;
  ro.num_edges = 1200;
  ro.seed = 3;
  datasets::ScaleKGOptions so;  // skewed endpoints: low ids are hubs
  so.num_nodes = 10000;
  so.seed = 5;
  std::vector<KnowledgeGraph> graphs;
  graphs.push_back(datasets::make_random_kg(ro));
  graphs.push_back(datasets::make_scale_kg(so));

  VisitEpochMap visit;
  std::vector<NodeId> order;
  util::Rng rng(11);
  util::Rng pick(13);  // shortest_path_length targets
  int traversals = 0;
  for (const auto& g : graphs) {
    const auto n = static_cast<std::uint64_t>(g.num_nodes());
    for (int trial = 0; trial < 50; ++trial) {
      // Every fifth source is drawn from the lowest ids (the hubs).
      const auto source =
          static_cast<NodeId>(rng.uniform_int(trial % 5 == 0 ? 50 : n));
      const auto nbrs = g.neighbors(source);
      for (const std::int32_t depth : {-1, 0, 1, 2, 3}) {
        for (const bool mask_edge : {false, true}) {
          for (const bool mask_node : {false, true}) {
            BfsOptions o;
            o.max_depth = depth;
            // Masks next to the source cut real paths; every tenth trial
            // masks the source itself.
            if (mask_edge && !nbrs.empty())
              o.masked_edge = nbrs[rng.uniform_int(nbrs.size())].edge;
            if (mask_node && trial % 10 == 0)
              o.masked_node = source;
            else if (mask_node && !nbrs.empty())
              o.masked_node = nbrs[rng.uniform_int(nbrs.size())].node;
            visit.begin(g.num_nodes());
            bfs_distances_epoch(g, source, o, visit, order);
            const auto want = reference_bfs(g, source, o);
            const std::string what =
                "nodes=" + std::to_string(g.num_nodes()) +
                " source=" + std::to_string(source) +
                " depth=" + std::to_string(depth) +
                " masked_edge=" + std::to_string(o.masked_edge) +
                " masked_node=" + std::to_string(o.masked_node);
            ASSERT_EQ(order, want.order) << what;
            ASSERT_EQ(dense(visit, g.num_nodes()), want.dist) << what;
            // The farthest node reached, one halfway, and any node (mostly
            // unreachable at small depths).
            std::vector<NodeId> targets = {
                static_cast<NodeId>(pick.uniform_int(n))};
            if (!want.order.empty()) {
              targets.push_back(want.order.back());
              targets.push_back(want.order[want.order.size() / 2]);
            }
            for (const NodeId t : targets)
              ASSERT_EQ(shortest_path_length(g, source, t, o), want.dist[t])
                  << what << " target=" << t;
            ++traversals;
          }
        }
      }
    }
  }
  EXPECT_GE(traversals, 1000);
}

// A hop-bounded BFS reaches exactly the k-hop neighborhood: the frontier an
// extraction merges.
TEST(KHop, CollectsExactNeighborhood) {
  auto g = testing::path_graph(7);
  BfsOptions opts;
  opts.max_depth = 2;
  VisitEpochMap visit;
  std::vector<NodeId> nodes;
  visit.begin(g.num_nodes());
  bfs_distances_epoch(g, 3, opts, visit, nodes);
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

// 32-bit epoch wraparound: begin() then clears every slot, so no stamp from
// before the wrap reads as visited after it.  Stamps of epoch 1, the first
// epoch after a wrap, are the ones that would alias without the clear.
TEST(VisitEpochMap, WraparoundClearsStaleSlots) {
  datasets::RandomKGOptions ro;
  ro.num_nodes = 200;
  ro.num_edges = 600;
  ro.seed = 9;
  const auto g = datasets::make_random_kg(ro);
  const auto n = g.num_nodes();
  BfsOptions o;
  o.max_depth = 3;
  VisitEpochMap visit;
  std::vector<NodeId> order;
  // Three traversals before the wrap, in epochs 1, 0xFFFFFFFE and
  // 0xFFFFFFFF, and one after it, each checked against the reference.
  for (const NodeId source : {0, 1, 2, 3}) {
    if (source == 1) visit.set_epoch_for_testing(0xFFFFFFFDu);
    visit.begin(n);
    if (source == 3) {
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_FALSE(visit.visited(v)) << "stale slot " << v;
        ASSERT_EQ(visit.get(v), kUnreachable) << "stale slot " << v;
      }
    }
    bfs_distances_epoch(g, source, o, visit, order);
    const auto want = reference_bfs(g, source, o);
    ASSERT_EQ(order, want.order) << "source " << source;
    ASSERT_EQ(dense(visit, n), want.dist) << "source " << source;
  }
}

TEST(ShortestPath, MatchesBfs) {
  auto g = testing::triangle_with_tail();
  EXPECT_EQ(shortest_path_length(g, 0, 3), 2);
  EXPECT_EQ(shortest_path_length(g, 0, 0), 0);
  BfsOptions opts;
  opts.masked_node = 2;
  EXPECT_EQ(shortest_path_length(g, 0, 3, opts), kUnreachable);
}

}  // namespace
}  // namespace amdgcnn::graph
