// Scale-tier suite (DESIGN.md §2.6): the binary CSR snapshot format, the
// epoch-based extraction kernel, and the 32-bit id-capacity guards.
//
// Layers:
//   * SnapshotRoundTrip — a graph loaded from a snapshot (both kMap and
//     kCopy) is indistinguishable from the built graph at every level we
//     serve from: adjacency queries, SEAL datasets (byte-exact tensors) and
//     predict_links probability rows; including after overlay mutations on
//     the mapped graph and after compact() detaches the mapping.
//   * SnapshotErrors — the format is fail-closed: unfinalized/pending
//     overlay saves, bad magic, truncation and missing files all raise
//     typed errors instead of serving garbage views.
//   * EpochExtraction — the per-thread visited-epoch kernel (filling or
//     replaying frontier slots, or without them) is bit-identical to the
//     clear-per-link oracle of tests/extraction_reference.h on randomized
//     graphs, static and mutated.
//   * IdCapacity — the 32-bit index-overflow guards, shrunk to a testable
//     capacity via KnowledgeGraph::set_id_capacity_for_testing.
//   * ScaleGenerator — make_scale_kg / sample_scale_links are pure
//     functions of their seed and produce well-formed output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/link_predictor.h"
#include "core/seal_link_classifier.h"
#include "datasets/kg_generator.h"
#include "extraction_reference.h"
#include "graph/graph_types.h"
#include "graph/knowledge_graph.h"
#include "graph/snapshot.h"
#include "graph/subgraph.h"
#include "seal/dataset.h"
#include "test_util.h"

namespace amdgcnn {
namespace {

using graph::GraphUpdateError;
using graph::KnowledgeGraph;
using graph::SnapshotLoadMode;
using testing::apply_updates;
using testing::expect_samples_identical;
using testing::make_update_sequence;
using testing::random_kg_options;
using testing::random_links;
using testing::UpdateSequenceOptions;

// Each test writes its own uniquely named snapshot in the working directory
// (ctest may run cases in parallel) and removes it on scope exit.
struct TempSnapshot {
  explicit TempSnapshot(const char* tag)
      : path(std::string("test_scale_") + tag + ".snap") {}
  ~TempSnapshot() { std::remove(path.c_str()); }
  std::string path;
};

seal::SealDatasetOptions small_options() {
  seal::SealDatasetOptions o;
  o.extract.num_hops = 2;
  o.extract.max_nodes = 24;
  o.features.max_drnl_label = 16;
  return o;
}

// Adjacency-level equality: every neighbor span, edge record and attribute
// table matches.  This is the raw layer; the SEAL/serving layers below
// depend on it byte-for-byte.
void expect_graphs_equal(const KnowledgeGraph& got, const KnowledgeGraph& want,
                         const char* what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  ASSERT_EQ(got.num_live_edges(), want.num_live_edges()) << what;
  ASSERT_EQ(got.num_node_types(), want.num_node_types()) << what;
  ASSERT_EQ(got.num_edge_types(), want.num_edge_types()) << what;
  ASSERT_EQ(got.edge_attr_dim(), want.edge_attr_dim()) << what;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(want.num_nodes());
       ++v) {
    EXPECT_EQ(got.node_type(v), want.node_type(v)) << what << " node " << v;
    const auto ga = got.neighbors(v);
    const auto wa = want.neighbors(v);
    ASSERT_EQ(ga.size(), wa.size()) << what << " node " << v;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(ga[i].node, wa[i].node) << what << " node " << v;
      EXPECT_EQ(ga[i].edge, wa[i].edge) << what << " node " << v;
    }
  }
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(want.num_edges());
       ++e) {
    ASSERT_EQ(got.edge_removed(e), want.edge_removed(e)) << what;
    if (want.edge_removed(e)) continue;
    const auto& gr = got.edge(e);
    const auto& wr = want.edge(e);
    EXPECT_EQ(gr.src, wr.src) << what << " edge " << e;
    EXPECT_EQ(gr.dst, wr.dst) << what << " edge " << e;
    EXPECT_EQ(gr.type, wr.type) << what << " edge " << e;
  }
  for (std::int32_t t = 0; t < want.num_edge_types(); ++t) {
    const auto ga = got.edge_type_attr(t);
    const auto wa = want.edge_type_attr(t);
    ASSERT_EQ(ga.size(), wa.size()) << what;
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(ga[i], wa[i]) << what << " attr type " << t;
  }
}

// ---- SnapshotRoundTrip ------------------------------------------------------

TEST(SnapshotRoundTrip, MappedAndCopiedLoadsMatchBuiltGraphExactly) {
  TempSnapshot tmp("roundtrip");
  const auto g = datasets::make_random_kg(random_kg_options(21));
  g.save_snapshot(tmp.path);

  const auto mapped = KnowledgeGraph::load_snapshot(tmp.path,
                                                    SnapshotLoadMode::kMap);
  const auto copied = KnowledgeGraph::load_snapshot(tmp.path,
                                                    SnapshotLoadMode::kCopy);
  EXPECT_TRUE(mapped.snapshot_backed());
  EXPECT_FALSE(copied.snapshot_backed());
  expect_graphs_equal(mapped, g, "kMap");
  expect_graphs_equal(copied, g, "kCopy");

  // The serving-critical layer: SEAL datasets built from the loaded graphs
  // are byte-exact copies of the built graph's, kernel-independent.
  const auto links = random_links(g, 30, /*num_classes=*/3, /*seed=*/5);
  const auto opts = small_options();
  const auto want = seal::build_samples(g, links, opts);
  expect_samples_identical(seal::build_samples(mapped, links, opts), want,
                           "kMap samples");
  expect_samples_identical(seal::build_samples(copied, links, opts), want,
                           "kCopy samples");
}

TEST(SnapshotRoundTrip, OverlayMutationsAndCompactOnMappedGraph) {
  TempSnapshot tmp("overlay");
  auto g = datasets::make_random_kg(random_kg_options(33));
  g.save_snapshot(tmp.path);
  auto mapped = KnowledgeGraph::load_snapshot(tmp.path,
                                              SnapshotLoadMode::kMap);

  // Replay one update sequence against both copies: patched adjacency must
  // shadow the mapped base arrays exactly as it shadows owned ones.
  UpdateSequenceOptions uo;
  uo.count = 50;
  uo.seed = 9;
  const auto seq = make_update_sequence(g, uo);
  apply_updates(g, seq);
  apply_updates(mapped, seq);
  ASSERT_GT(mapped.overlay_depth(), 0);
  EXPECT_TRUE(mapped.snapshot_backed());
  expect_graphs_equal(mapped, g, "overlay-on-mapping");

  const auto links = random_links(g, 20, /*num_classes=*/3, /*seed=*/7);
  const auto opts = small_options();
  expect_samples_identical(seal::build_samples(mapped, links, opts),
                           seal::build_samples(g, links, opts),
                           "overlay samples");

  // compact() detaches the mapping (copies the base arrays into owned
  // storage) and folds the overlay in; the logical graph is unchanged.
  mapped.compact();
  g.compact();
  EXPECT_FALSE(mapped.snapshot_backed());
  EXPECT_EQ(mapped.overlay_depth(), 0);
  expect_graphs_equal(mapped, g, "post-compact");

  // A compacted ex-mapped graph is a first-class citizen: it can be
  // snapshotted again and the round trip still holds.
  TempSnapshot tmp2("overlay2");
  mapped.save_snapshot(tmp2.path);
  expect_graphs_equal(
      KnowledgeGraph::load_snapshot(tmp2.path, SnapshotLoadMode::kMap), g,
      "resnapshot");
}

TEST(SnapshotRoundTrip, ResaveOfMappedGraphIsByteIdentical) {
  TempSnapshot tmp1("resave1");
  TempSnapshot tmp2("resave2");
  const auto g = datasets::make_random_kg(random_kg_options(44));
  g.save_snapshot(tmp1.path);
  // A freshly mapped graph has no overlay, so it can be re-saved directly;
  // the bytes must survive the trip unchanged.
  KnowledgeGraph::load_snapshot(tmp1.path, SnapshotLoadMode::kMap)
      .save_snapshot(tmp2.path);

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const auto b1 = read_all(tmp1.path);
  const auto b2 = read_all(tmp2.path);
  ASSERT_FALSE(b1.empty());
  ASSERT_EQ(b1.size(), b2.size());
  EXPECT_EQ(0, std::memcmp(b1.data(), b2.data(), b1.size()));
}

TEST(SnapshotRoundTrip, ServingScoresFromMappedGraphAreBitIdentical) {
  TempSnapshot tmp("serving");
  // Train a tiny classifier on the built graph, then serve the same batch
  // from the built, mapped and copied graphs: probability rows must be
  // bitwise equal (the inference path reads only through the view API).
  const auto g = datasets::make_random_kg(random_kg_options(55));
  const auto train = random_links(g, 30, /*num_classes=*/3, /*seed=*/3);

  core::ClassifierConfig cfg;
  cfg.model.kind = models::GnnKind::kAMDGCNN;
  cfg.model.hidden_dim = 8;
  cfg.model.heads = 2;
  cfg.model.num_layers = 2;
  cfg.model.sort_k = 10;
  cfg.training.epochs = 1;
  cfg.dataset = small_options();
  core::SealLinkClassifier clf(cfg);
  clf.fit(g, train, /*num_classes=*/3);

  core::LinkPredictor::Options po;
  po.dataset = cfg.dataset;
  const core::LinkPredictor predictor(clf.model(), po);

  g.save_snapshot(tmp.path);
  const auto mapped = KnowledgeGraph::load_snapshot(tmp.path,
                                                    SnapshotLoadMode::kMap);
  const auto copied = KnowledgeGraph::load_snapshot(tmp.path,
                                                    SnapshotLoadMode::kCopy);

  const auto links = random_links(g, 12, /*num_classes=*/3, /*seed=*/19);
  const auto want = predictor.predict_links(g, links);
  for (const auto* other : {&mapped, &copied}) {
    const auto got = predictor.predict_links(*other, links);
    ASSERT_EQ(got.proba.size(), want.proba.size());
    EXPECT_EQ(0, std::memcmp(got.proba.data(), want.proba.data(),
                             want.proba.size() * sizeof(double)));
    EXPECT_EQ(got.labels, want.labels);
  }
}

// ---- SnapshotErrors ---------------------------------------------------------

TEST(SnapshotErrors, SaveRequiresFinalizedGraphWithEmptyOverlay) {
  TempSnapshot tmp("errors_save");
  KnowledgeGraph unfinalized(1, 1);
  unfinalized.add_node(0);
  unfinalized.add_node(0);
  unfinalized.add_edge(0, 1, 0);
  EXPECT_THROW(unfinalized.save_snapshot(tmp.path), std::logic_error);

  auto g = datasets::make_random_kg(random_kg_options(66));
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  graph::NodeId u = 0, v = 1;
  while (g.find_edge(u, v) >= 0) v = static_cast<graph::NodeId>((v + 1) % n);
  g.insert_edge(u, v, 0);
  ASSERT_GT(g.overlay_depth(), 0);
  EXPECT_THROW(g.save_snapshot(tmp.path), std::logic_error);
  g.compact();
  g.save_snapshot(tmp.path);  // after compaction the same graph saves fine
}

TEST(SnapshotErrors, LoadRejectsCorruptAndMissingFiles) {
  TempSnapshot tmp("errors_load");
  const auto g = datasets::make_random_kg(random_kg_options(77));
  g.save_snapshot(tmp.path);

  EXPECT_THROW(KnowledgeGraph::load_snapshot("no_such_file.snap"),
               std::runtime_error);

  // Corrupt the magic in place.
  {
    std::fstream f(tmp.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_THROW(KnowledgeGraph::load_snapshot(tmp.path), std::runtime_error);
  EXPECT_THROW(
      KnowledgeGraph::load_snapshot(tmp.path, SnapshotLoadMode::kCopy),
      std::runtime_error);

  // Re-save, then truncate: the header's file_size check must fire.
  g.save_snapshot(tmp.path);
  {
    std::ifstream in(tmp.path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 8);
    std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(KnowledgeGraph::load_snapshot(tmp.path), std::runtime_error);
}

// ---- EpochExtraction --------------------------------------------------------

void expect_subgraphs_equal(const graph::EnclosingSubgraph& got,
                            const graph::EnclosingSubgraph& want,
                            const std::string& what) {
  ASSERT_EQ(got.nodes, want.nodes) << what;
  ASSERT_EQ(got.dist_a, want.dist_a) << what;
  ASSERT_EQ(got.dist_b, want.dist_b) << what;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << what;
  for (std::size_t i = 0; i < want.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].src, want.edges[i].src) << what;
    EXPECT_EQ(got.edges[i].dst, want.edges[i].dst) << what;
    EXPECT_EQ(got.edges[i].orig, want.edges[i].orig) << what;
  }
  ASSERT_EQ(got.hull, want.hull) << what;
}

/// Extraction through frontier slots must equal `want` twice: once with
/// empty slots, which the traversals fill, and once replaying them.  When
/// (a, b) is an existing edge the traversals are masked and specific to the
/// link, so the slots must stay empty.
void expect_slotted_extractions_equal(const KnowledgeGraph& g,
                                      const seal::LinkExample& l,
                                      const graph::ExtractOptions& options,
                                      const graph::EnclosingSubgraph& want,
                                      const std::string& what) {
  std::shared_ptr<const graph::Frontier> fa, fb;
  expect_subgraphs_equal(
      extract_enclosing_subgraph(g, l.a, l.b, options, &fa, &fb), want,
      what + " slots-empty");
  if (g.find_edge(l.a, l.b) >= 0) {
    EXPECT_EQ(fa, nullptr) << what << " masked link filled a slot";
    EXPECT_EQ(fb, nullptr) << what << " masked link filled a slot";
    return;
  }
  ASSERT_NE(fa, nullptr) << what;
  ASSERT_NE(fb, nullptr) << what;
  EXPECT_EQ(fa->source, l.a) << what;
  EXPECT_EQ(fb->source, l.b) << what;
  const auto* filled_a = fa.get();
  const auto* filled_b = fb.get();
  expect_subgraphs_equal(
      extract_enclosing_subgraph(g, l.a, l.b, options, &fa, &fb), want,
      what + " slots-replayed");
  EXPECT_EQ(fa.get(), filled_a) << what << " replay replaced its slot";
  EXPECT_EQ(fb.get(), filled_b) << what << " replay replaced its slot";
}

/// `links` plus an existing edge out of each of the first few sources, so
/// both branches of the slot contract run.
std::vector<seal::LinkExample> with_edge_links(
    const KnowledgeGraph& g, std::vector<seal::LinkExample> links) {
  const std::size_t n = std::min<std::size_t>(links.size(), 5);
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& adj : g.neighbors(links[i].a))
      if (adj.node != links[i].a) {
        links.push_back({links[i].a, adj.node, 0});
        break;
      }
  return links;
}

// The epoch kernel (with empty, filled or no frontier slots) must reproduce
// the clear-per-link oracle bit for bit — same nodes in the same order, same
// distances, same induced edges — across modes, hop counts, caps and overlay
// mutations.  The oracle shares no step with the kernel, so a bug in its
// BFS, merge, cap, induction or DRNL distances shows up here.  Determinism
// is the contract everything else (parallel build, score cache, checkpoint
// reproducibility) stands on.
TEST(EpochExtraction, MatchesReferenceOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto g = datasets::make_random_kg(random_kg_options(seed));
    for (const bool mutate : {false, true}) {
      if (mutate) {
        UpdateSequenceOptions uo;
        uo.count = 30;
        uo.seed = seed + 100;
        apply_updates(g, make_update_sequence(g, uo));
      }
      const auto links =
          with_edge_links(g, random_links(g, 25, /*num_classes=*/2, seed + 7));
      std::size_t masked = 0;
      for (const auto& l : links) masked += g.find_edge(l.a, l.b) >= 0;
      ASSERT_GT(masked, 0u);
      ASSERT_LT(masked, links.size());
      for (const auto mode : {graph::NeighborhoodMode::kUnion,
                              graph::NeighborhoodMode::kIntersection}) {
        for (const std::int32_t hops : {1, 2, 3}) {
          for (const std::int64_t cap : {20, 3}) {
            graph::ExtractOptions options;
            options.mode = mode;
            options.num_hops = hops;
            options.max_nodes = cap;
            options.collect_hull = true;
            for (const auto& l : links) {
              const auto want =
                  testing::extract_reference(g, l.a, l.b, options);
              const std::string what =
                  "seed=" + std::to_string(seed) +
                  " mutate=" + std::to_string(mutate) +
                  " hops=" + std::to_string(hops) +
                  " cap=" + std::to_string(cap) + " link=(" +
                  std::to_string(l.a) + "," + std::to_string(l.b) + ")";
              expect_subgraphs_equal(
                  extract_enclosing_subgraph(g, l.a, l.b, options), want,
                  what + " epoch");
              expect_slotted_extractions_equal(g, l, options, want, what);
            }
          }
        }
      }
    }
  }
}

// Dense graphs whose 2-hop unions run to hundreds of nodes, with ids that
// need two and three bytes: the epoch kernel radix-sorts such unions and
// partial-sorts the capped candidates, and must still match the oracle's
// full scan and full sort bit for bit, replayed slots included.
TEST(EpochExtraction, MatchesReferenceOnLargeNeighborhoods) {
  for (const std::int64_t nodes : {3000, 70000}) {
    datasets::RandomKGOptions o;
    o.num_nodes = nodes;
    o.num_edges = nodes * 12;
    o.seed = 5;
    const auto g = datasets::make_random_kg(o);
    const auto links =
        with_edge_links(g, random_links(g, 12, /*num_classes=*/2, 17));
    for (const auto mode : {graph::NeighborhoodMode::kUnion,
                            graph::NeighborhoodMode::kIntersection}) {
      for (const std::int32_t hops : {1, 2, 3}) {
        for (const std::int64_t cap : {0, 32, 3}) {
          graph::ExtractOptions options;
          options.mode = mode;
          options.num_hops = hops;
          options.max_nodes = cap;
          options.collect_hull = true;
          for (const auto& l : links) {
            const auto want = testing::extract_reference(g, l.a, l.b, options);
            // One hop reaches ~2 x 24 nodes; from two hops on the unions
            // are large enough to take the radix sort.
            if (hops >= 2) {
              ASSERT_GT(want.hull.size(), 256u);
            }
            const std::string what =
                "nodes=" + std::to_string(nodes) +
                " hops=" + std::to_string(hops) + " cap=" +
                std::to_string(cap) + " link=(" + std::to_string(l.a) + "," +
                std::to_string(l.b) + ")";
            expect_subgraphs_equal(
                extract_enclosing_subgraph(g, l.a, l.b, options), want, what);
            expect_slotted_extractions_equal(g, l, options, want, what);
          }
        }
      }
    }
  }
}

// A slot is replayed only for the target and depth it was traversed for;
// any other replay is a caller bug and must throw, not extract the wrong
// subgraph.
TEST(EpochExtraction, MismatchedFrontierSlotThrows) {
  const auto g = datasets::make_random_kg(random_kg_options(11));
  seal::LinkExample l{};
  for (const auto& c : random_links(g, 50, /*num_classes=*/2, 13))
    if (g.find_edge(c.a, c.b) < 0) {
      l = c;
      break;
    }
  ASSERT_LT(g.find_edge(l.a, l.b), 0);
  graph::ExtractOptions options;
  options.num_hops = 2;
  std::shared_ptr<const graph::Frontier> fa, fb;
  extract_enclosing_subgraph(g, l.a, l.b, options, &fa, &fb);
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);

  // Source mismatch: the slots swapped between the targets.
  EXPECT_THROW(extract_enclosing_subgraph(g, l.a, l.b, options, &fb, &fa),
               std::invalid_argument);
  // Depth mismatch: frontiers traversed at 2 hops replayed at 3.
  auto deeper = options;
  deeper.num_hops = 3;
  EXPECT_THROW(extract_enclosing_subgraph(g, l.a, l.b, deeper, &fa, nullptr),
               std::invalid_argument);
  EXPECT_THROW(extract_enclosing_subgraph(g, l.a, l.b, deeper, nullptr, &fb),
               std::invalid_argument);
}

// ---- IdCapacity -------------------------------------------------------------

// Shrink the id space to 8 and drive every growth path into the guard: the
// construction API throws std::invalid_argument, the update API the typed
// GraphUpdateError::kIdOverflow.  Restores the real 2^31-1 capacity on exit.
TEST(IdCapacity, GrowthPastCapacityThrowsTypedErrors) {
  struct RestoreCapacity {
    ~RestoreCapacity() { KnowledgeGraph::set_id_capacity_for_testing(0); }
  } restore;
  KnowledgeGraph::set_id_capacity_for_testing(8);

  KnowledgeGraph g(1, 1);
  for (int i = 0; i < 8; ++i) g.add_node(0);
  EXPECT_THROW(g.add_node(0), std::invalid_argument);

  // A ring uses all 8 edge ids; the 9th add_edge must refuse.
  for (int i = 0; i < 8; ++i)
    g.add_edge(static_cast<graph::NodeId>(i),
               static_cast<graph::NodeId>((i + 2) % 8), 0);
  EXPECT_THROW(g.add_edge(0, 3, 0), std::invalid_argument);

  g.finalize();
  EXPECT_EQ(g.num_edges(), 8);
  try {
    g.insert_edge(0, 3, 0);
    FAIL() << "expected GraphUpdateError";
  } catch (const GraphUpdateError& e) {
    EXPECT_EQ(e.kind(), GraphUpdateError::Kind::kIdOverflow);
  }

  // Deleting frees a live edge but not its id slot: the id space is
  // append-only until compact() renumbers.
  g.delete_edge(0, 2);
  try {
    g.insert_edge(0, 3, 0);
    FAIL() << "expected GraphUpdateError";
  } catch (const GraphUpdateError& e) {
    EXPECT_EQ(e.kind(), GraphUpdateError::Kind::kIdOverflow);
  }
  g.compact();
  EXPECT_EQ(g.num_edges(), 7);
  g.insert_edge(0, 3, 0);  // slot reclaimed: fits again
  EXPECT_EQ(g.num_edges(), 8);

  KnowledgeGraph::set_id_capacity_for_testing(0);
  KnowledgeGraph big(1, 1);
  for (int i = 0; i < 12; ++i) big.add_node(0);  // real capacity: fine
}

TEST(IdCapacity, TestingOverrideRejectsOutOfRangeValues) {
  EXPECT_THROW(KnowledgeGraph::set_id_capacity_for_testing(-1),
               std::invalid_argument);
  EXPECT_THROW(KnowledgeGraph::set_id_capacity_for_testing(
                   static_cast<std::int64_t>(1) << 32),
               std::invalid_argument);
  KnowledgeGraph::set_id_capacity_for_testing(0);  // ensure the real limit
}

// ---- ScaleGenerator ---------------------------------------------------------

TEST(ScaleGenerator, IsDeterministicInItsSeed) {
  datasets::ScaleKGOptions o;
  o.num_nodes = 3000;
  o.mean_degree = 6.0;
  o.seed = 42;
  const auto g1 = datasets::make_scale_kg(o);
  const auto g2 = datasets::make_scale_kg(o);
  expect_graphs_equal(g1, g2, "same seed");

  o.seed = 43;
  const auto g3 = datasets::make_scale_kg(o);
  EXPECT_EQ(g3.num_nodes(), g1.num_nodes());
  // Same shape parameters, different draw: the edge sets must differ.
  bool differs = g3.num_edges() != g1.num_edges();
  for (graph::EdgeId e = 0;
       !differs && e < static_cast<graph::EdgeId>(g1.num_edges()); ++e)
    differs = g1.edge(e).src != g3.edge(e).src ||
              g1.edge(e).dst != g3.edge(e).dst;
  EXPECT_TRUE(differs);
}

TEST(ScaleGenerator, ProducesWellFormedGraphAndLinks) {
  datasets::ScaleKGOptions o;
  o.num_nodes = 2000;
  o.mean_degree = 5.0;
  o.seed = 7;
  const auto g = datasets::make_scale_kg(o);
  EXPECT_EQ(g.num_nodes(), o.num_nodes);
  // Streaming generator: edge count is exactly n * mean_degree / 2 (no
  // dedup set, duplicates allowed by design).
  EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(
                               static_cast<double>(o.num_nodes) *
                               o.mean_degree / 2.0));
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges());
       ++e) {
    const auto& rec = g.edge(e);
    ASSERT_NE(rec.src, rec.dst);
    ASSERT_GE(rec.type, 0);
    ASSERT_LT(rec.type, g.num_edge_types());
  }

  const auto links = datasets::sample_scale_links(g, 40, 11);
  ASSERT_EQ(links.size(), 40u);
  const auto links2 = datasets::sample_scale_links(g, 40, 11);
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(links[i].a, links2[i].a);
    EXPECT_EQ(links[i].b, links2[i].b);
    EXPECT_EQ(links[i].label, links2[i].label);
    EXPECT_NE(links[i].a, links[i].b);
    EXPECT_EQ(links[i].label, i % 2 == 0 ? 1 : 0);
    if (i % 2 == 0) {  // positives are live edges of the graph
      EXPECT_GE(g.find_edge(links[i].a, links[i].b), 0) << "link " << i;
    }
  }
}

}  // namespace
}  // namespace amdgcnn
