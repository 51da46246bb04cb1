// Determinism and property tests for the parallel SEAL dataset build
// (DESIGN.md §2.2) and the extraction/DRNL stages it drives.
//
// Three layers:
//   * ParallelDatasetBuild — the contract of SealDatasetOptions::num_threads:
//     every worker count produces BIT-IDENTICAL output (tensor bytes, labels,
//     DRNL distance vectors) to the serial path.
//   * DrnlProperty — node-permutation invariance and drnl(u,v) == drnl(v,u)
//     symmetry of the labeling, on randomized KGs.
//   * ExtractionProperty — structural invariants of every extracted
//     enclosing subgraph (targets present at local ids 0/1, hop bound,
//     neighborhood rule, size cap, edge provenance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datasets/kg_generator.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "seal/dataset.h"
#include "seal/drnl.h"
#include "test_util.h"
#include "util/parallel_error.h"

namespace amdgcnn {
namespace {

// Random KGs / link lists and the byte-level sample comparison are the
// shared generator module in test_util.h (reused by the dynamic-graph
// suite).
using testing::expect_samples_identical;
using testing::random_kg_options;
using testing::random_links;

// ---- ParallelDatasetBuild ---------------------------------------------------

TEST(ParallelDatasetBuild, BitIdenticalForAnyWorkerCount) {
  const auto g = datasets::make_random_kg(random_kg_options(7));
  const auto train = random_links(g, 40, /*num_classes=*/3, /*seed=*/11);
  const auto test = random_links(g, 15, /*num_classes=*/3, /*seed=*/13);

  seal::SealDatasetOptions options;
  options.extract.num_hops = 2;
  options.extract.max_nodes = 24;
  options.features.max_drnl_label = 16;

  options.num_threads = 0;  // legacy serial loop
  const auto serial = seal::build_seal_dataset(g, train, test, 3, options);
  for (std::int64_t nt : {1, 2, 4, 8}) {
    options.num_threads = nt;
    const auto parallel = seal::build_seal_dataset(g, train, test, 3, options);
    EXPECT_EQ(parallel.num_classes, serial.num_classes);
    EXPECT_EQ(parallel.node_feature_dim, serial.node_feature_dim);
    EXPECT_EQ(parallel.edge_attr_dim, serial.edge_attr_dim);
    expect_samples_identical(parallel.train, serial.train, "train");
    expect_samples_identical(parallel.test, serial.test, "test");
  }
}

TEST(ParallelDatasetBuild, ExtractionStagesMatchSerialPath) {
  // Below the tensor level: the extracted subgraphs themselves (node order,
  // edge lists, both DRNL distance vectors) must be identical when the
  // parallel build's samples are recomputed serially.
  const auto g = datasets::make_random_kg(random_kg_options(21));
  const auto links = random_links(g, 30, /*num_classes=*/2, /*seed=*/5);

  seal::SealDatasetOptions options;
  options.extract.num_hops = 2;
  options.num_threads = 4;
  const auto samples = seal::build_samples(g, links, options);
  ASSERT_EQ(samples.size(), links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto sub = graph::extract_enclosing_subgraph(
        g, links[i].a, links[i].b, options.extract);
    const auto labels = seal::drnl_labels(sub);
    const auto reference =
        seal::build_sample(g, sub, links[i].label, options.features);
    EXPECT_EQ(samples[i].num_nodes, sub.num_nodes()) << "sample " << i;
    EXPECT_EQ(samples[i].node_feat.data(), reference.node_feat.data())
        << "sample " << i;
    EXPECT_EQ(samples[i].src, reference.src) << "sample " << i;
    EXPECT_EQ(samples[i].dst, reference.dst) << "sample " << i;
    // The DRNL one-hot block is the leading columns of each feature row;
    // spot-check it decodes back to drnl_labels(sub).
    const std::int64_t width = options.features.max_drnl_label + 1;
    const std::int64_t f = samples[i].node_feat.dim(1);
    for (std::int64_t v = 0; v < sub.num_nodes(); ++v) {
      const std::int64_t clamped =
          std::min<std::int64_t>(labels[static_cast<std::size_t>(v)],
                                 options.features.max_drnl_label);
      for (std::int64_t col = 0; col < width; ++col)
        EXPECT_EQ(samples[i].node_feat.data()[v * f + col],
                  col == clamped ? 1.0 : 0.0)
            << "sample " << i << " node " << v << " col " << col;
    }
  }
}

TEST(ParallelDatasetBuild, RejectsNegativeThreadCount) {
  const auto g = datasets::make_random_kg(random_kg_options(3));
  const auto links = random_links(g, 4, 2, 9);
  seal::SealDatasetOptions options;
  options.num_threads = -1;
  EXPECT_THROW(seal::build_samples(g, links, options), std::invalid_argument);
}

TEST(ParallelDatasetBuild, DefaultBuildThreadsIsPositive) {
  EXPECT_GE(seal::default_build_threads(), 1);
}

// A poisoned link (endpoint past num_nodes) inside the parallel build must
// not tear down the process and must not race: the join rethrows
// util::WorkerError naming the stage and the LOWEST failing link index with
// the original exception nested, the same report for every worker count and
// schedule.
TEST(ParallelDatasetBuild, WorkerFailureIsDeterministicWorkerError) {
  const auto g = datasets::make_random_kg(random_kg_options(7));
  auto links = random_links(g, 24, /*num_classes=*/3, /*seed=*/17);
  const auto bad = static_cast<graph::NodeId>(g.num_nodes() + 100);
  links[5].b = bad;   // first poisoned item: the one that must be reported
  links[19].a = bad;  // later failure must lose to item 5 under any schedule

  seal::SealDatasetOptions options;
  options.extract.num_hops = 2;
  options.extract.max_nodes = 24;
  for (std::int64_t nt : {1, 2, 8}) {
    options.num_threads = nt;
    try {
      seal::build_samples(g, links, options);
      FAIL() << "expected util::WorkerError (threads=" << nt << ")";
    } catch (const util::WorkerError& e) {
      EXPECT_EQ(e.item(), 5);
      EXPECT_NE(std::string(e.what()).find(
                    "build_samples: worker failed at item 5"),
                std::string::npos)
          << e.what();
      bool nested_is_original = false;
      try {
        std::rethrow_if_nested(e);
      } catch (const std::invalid_argument&) {
        nested_is_original = true;  // find_edge: node out of range
      }
      EXPECT_TRUE(nested_is_original);
    }
  }

  // The serial path (num_threads == 0) has no join to cross, so the raw
  // exception propagates unwrapped.
  options.num_threads = 0;
  EXPECT_THROW(seal::build_samples(g, links, options), std::invalid_argument);
}

// ---- DrnlProperty -----------------------------------------------------------

TEST(DrnlProperty, HashIsSymmetricInTheTwoDistances) {
  for (std::int32_t x = -1; x <= 12; ++x)
    for (std::int32_t y = -1; y <= 12; ++y)
      EXPECT_EQ(seal::drnl_label(x, y), seal::drnl_label(y, x))
          << "x=" << x << " y=" << y;
}

TEST(DrnlProperty, SwappingTargetsPreservesPerNodeLabels) {
  // drnl is defined on unordered pairs: extracting (a, b) and (b, a) must
  // assign every original node the same label.
  const auto g = datasets::make_random_kg(random_kg_options(17));
  const auto links = random_links(g, 20, 2, 23);
  graph::ExtractOptions options;
  options.num_hops = 2;
  for (const auto& link : links) {
    const auto sub_ab =
        graph::extract_enclosing_subgraph(g, link.a, link.b, options);
    const auto sub_ba =
        graph::extract_enclosing_subgraph(g, link.b, link.a, options);
    const auto labels_ab = seal::drnl_labels(sub_ab);
    const auto labels_ba = seal::drnl_labels(sub_ba);
    std::map<graph::NodeId, std::int64_t> by_node_ab, by_node_ba;
    for (std::size_t i = 0; i < sub_ab.nodes.size(); ++i)
      by_node_ab[sub_ab.nodes[i]] = labels_ab[i];
    for (std::size_t i = 0; i < sub_ba.nodes.size(); ++i)
      by_node_ba[sub_ba.nodes[i]] = labels_ba[i];
    EXPECT_EQ(by_node_ab, by_node_ba)
        << "link (" << link.a << ", " << link.b << ")";
  }
}

/// Rebuild g with node ids relabeled by `perm` (perm[old] = new), preserving
/// types, attributes, and edge insertion order.
graph::KnowledgeGraph permute_nodes(const graph::KnowledgeGraph& g,
                                    const std::vector<graph::NodeId>& perm) {
  graph::KnowledgeGraph out(g.num_node_types(), g.num_edge_types(),
                            g.edge_attr_dim(), g.node_feat_dim());
  std::vector<std::int32_t> types(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    types[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
        g.node_type(v);
  for (const auto t : types) out.add_node(t);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    out.add_edge(perm[static_cast<std::size_t>(edge.src)],
                 perm[static_cast<std::size_t>(edge.dst)], edge.type);
  }
  for (std::int32_t t = 0; t < g.num_edge_types(); ++t)
    out.set_edge_type_attr(t, g.edge_type_attr(t));
  out.finalize();
  return out;
}

TEST(DrnlProperty, InvariantUnderNodeRelabeling) {
  // Isomorphic graphs must yield identical per-node DRNL labels for the
  // corresponding links.  max_nodes stays 0: the size cap tie-breaks on raw
  // node id, which a relabeling is free to change.
  const auto g = datasets::make_random_kg(random_kg_options(29));
  std::vector<graph::NodeId> perm(static_cast<std::size_t>(g.num_nodes()));
  for (std::size_t i = 0; i < perm.size(); ++i)
    perm[i] = static_cast<graph::NodeId>(i);
  util::Rng rng(31);
  rng.shuffle(perm);
  const auto h = permute_nodes(g, perm);

  graph::ExtractOptions options;
  options.num_hops = 2;
  options.max_nodes = 0;
  const auto links = random_links(g, 20, 2, 37);
  for (const auto& link : links) {
    const auto sub_g =
        graph::extract_enclosing_subgraph(g, link.a, link.b, options);
    const auto sub_h = graph::extract_enclosing_subgraph(
        h, perm[static_cast<std::size_t>(link.a)],
        perm[static_cast<std::size_t>(link.b)], options);
    const auto labels_g = seal::drnl_labels(sub_g);
    const auto labels_h = seal::drnl_labels(sub_h);
    ASSERT_EQ(sub_g.nodes.size(), sub_h.nodes.size());
    std::map<graph::NodeId, std::int64_t> by_node_g, by_node_h;
    for (std::size_t i = 0; i < sub_g.nodes.size(); ++i)
      by_node_g[perm[static_cast<std::size_t>(sub_g.nodes[i])]] = labels_g[i];
    for (std::size_t i = 0; i < sub_h.nodes.size(); ++i)
      by_node_h[sub_h.nodes[i]] = labels_h[i];
    EXPECT_EQ(by_node_g, by_node_h)
        << "link (" << link.a << ", " << link.b << ")";
  }
}

// ---- ExtractionProperty -----------------------------------------------------

TEST(ExtractionProperty, SubgraphInvariantsHoldOnRandomGraphs) {
  for (std::uint64_t seed : {41u, 43u, 47u}) {
    const auto g = datasets::make_random_kg(random_kg_options(seed));
    const auto links = random_links(g, 25, 2, seed + 1);
    for (auto mode : {graph::NeighborhoodMode::kUnion,
                      graph::NeighborhoodMode::kIntersection}) {
      graph::ExtractOptions options;
      options.num_hops = 2;
      options.mode = mode;
      for (const auto& link : links) {
        const auto sub =
            graph::extract_enclosing_subgraph(g, link.a, link.b, options);
        // Targets always present, at the pinned local ids.
        ASSERT_GE(sub.num_nodes(), 2);
        EXPECT_EQ(sub.nodes[graph::EnclosingSubgraph::kTargetA], link.a);
        EXPECT_EQ(sub.nodes[graph::EnclosingSubgraph::kTargetB], link.b);
        EXPECT_EQ(sub.dist_a[0], 0);
        EXPECT_EQ(sub.dist_b[1], 0);

        // Hop bound + neighborhood rule, checked against independent
        // full-graph BFS.  Membership masks only the target link (the hull
        // is collected before the DRNL convention kicks in).
        graph::BfsOptions hull;
        hull.max_depth = options.num_hops;
        hull.masked_edge = g.find_edge(link.a, link.b);
        const auto hull_a = graph::bfs_distances(g, link.a, hull);
        const auto hull_b = graph::bfs_distances(g, link.b, hull);
        // Lower bounds for the DRNL distances: unbounded-depth BFS with the
        // other target removed, on the FULL graph.  The subgraph's own
        // distances may only be larger (paths through dropped nodes vanish)
        // and may only reach fewer nodes.
        graph::BfsOptions from_a = hull, from_b = hull;
        from_a.max_depth = -1;
        from_b.max_depth = -1;
        from_a.masked_node = link.b;
        from_b.masked_node = link.a;
        const auto da = graph::bfs_distances(g, link.a, from_a);
        const auto db = graph::bfs_distances(g, link.b, from_b);
        std::set<graph::NodeId> members(sub.nodes.begin(), sub.nodes.end());
        ASSERT_EQ(members.size(), sub.nodes.size()) << "duplicate nodes";
        ASSERT_EQ(sub.dist_a.size(), sub.nodes.size());
        ASSERT_EQ(sub.dist_b.size(), sub.nodes.size());
        for (std::size_t i = 2; i < sub.nodes.size(); ++i) {
          const auto v = sub.nodes[i];
          const auto ha = hull_a[static_cast<std::size_t>(v)];
          const auto hb = hull_b[static_cast<std::size_t>(v)];
          const bool in_a = ha != graph::kUnreachable;
          const bool in_b = hb != graph::kUnreachable;
          if (mode == graph::NeighborhoodMode::kUnion)
            EXPECT_TRUE(in_a || in_b) << "node " << v << " outside hull";
          else
            EXPECT_TRUE(in_a && in_b) << "node " << v << " outside hull";
          if (sub.dist_a[i] != graph::kUnreachable) {
            ASSERT_NE(da[static_cast<std::size_t>(v)], graph::kUnreachable)
                << "node " << v;
            EXPECT_GE(sub.dist_a[i], da[static_cast<std::size_t>(v)])
                << "node " << v;
          }
          if (sub.dist_b[i] != graph::kUnreachable) {
            ASSERT_NE(db[static_cast<std::size_t>(v)], graph::kUnreachable)
                << "node " << v;
            EXPECT_GE(sub.dist_b[i], db[static_cast<std::size_t>(v)])
                << "node " << v;
          }
        }

        // Every induced edge maps to a real, non-masked full-graph edge
        // between the claimed endpoints.
        for (const auto& e : sub.edges) {
          ASSERT_GE(e.src, 0);
          ASSERT_LT(e.src, sub.num_nodes());
          ASSERT_GE(e.dst, 0);
          ASSERT_LT(e.dst, sub.num_nodes());
          EXPECT_NE(e.orig, hull.masked_edge) << "target link leaked";
          const auto& orig = g.edge(e.orig);
          const auto u = sub.nodes[static_cast<std::size_t>(e.src)];
          const auto v = sub.nodes[static_cast<std::size_t>(e.dst)];
          EXPECT_TRUE((orig.src == u && orig.dst == v) ||
                      (orig.src == v && orig.dst == u))
              << "edge " << e.orig << " endpoints mismatch";
        }
      }
    }
  }
}

TEST(ExtractionProperty, MaxNodesCapsSubgraphSize) {
  const auto g = datasets::make_random_kg(random_kg_options(53));
  const auto links = random_links(g, 15, 2, 59);
  graph::ExtractOptions capped;
  capped.num_hops = 2;
  capped.max_nodes = 8;
  for (const auto& link : links) {
    const auto sub =
        graph::extract_enclosing_subgraph(g, link.a, link.b, capped);
    EXPECT_LE(sub.num_nodes(), 8);
    EXPECT_EQ(sub.nodes[0], link.a);
    EXPECT_EQ(sub.nodes[1], link.b);
  }
}

}  // namespace
}  // namespace amdgcnn
