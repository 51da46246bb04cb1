// Dynamic-graph layer tests (DESIGN.md §2.5): the DeltaOverlay mutation
// API, compaction, generation counters, and the serving-side score cache.
//
// Three headline invariants, each driven by the seeded update-sequence
// generator in test_util.h (200+ randomized trials apiece; a failing trial
// replays from the seed in the assertion message):
//   (1) Static-vs-incremental equivalence — a graph grown through
//       insert_edge/delete_edge (with or without compact()) yields SEAL
//       datasets byte-identical to the same logical graph built through the
//       pristine add_edge + finalize path.
//   (2) Overlay/compaction identity — adjacency, DRNL labels and extracted
//       samples are invariant to WHEN compact() runs along an update
//       sequence.
//   (3) Cache coherence — scores served through serve::Server (whose
//       hull-validated LRU is the one score cache) are bitwise equal to cold
//       predict_links under randomized interleavings of mutations, queries
//       and compactions.
//
// Plus the negative-path pack (typed GraphUpdateError for every mutation
// precondition) and thread-invariance of build_samples / predict_links over
// overlay graphs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/link_predictor.h"
#include "core/seal_link_classifier.h"
#include "datasets/kg_generator.h"
#include "datasets/wordnet_sim.h"
#include "graph/graph_types.h"
#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "seal/dataset.h"
#include "seal/drnl.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/parallel_error.h"

namespace amdgcnn {
namespace {

using graph::GraphUpdateError;
using testing::apply_update;
using testing::apply_updates;
using testing::expect_samples_identical;
using testing::make_update_sequence;
using testing::random_kg_options;
using testing::random_links;
using testing::rebuild_via_finalize;
using testing::GraphUpdate;
using testing::UpdateSequenceOptions;

GraphUpdateError::Kind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const GraphUpdateError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected GraphUpdateError";
  return GraphUpdateError::Kind::kNotFinalized;
}

// ---- Negative paths: every mutation precondition raises a typed error ------

TEST(GraphMutationErrors, MutationBeforeFinalizeIsRejected) {
  graph::KnowledgeGraph g(1, 1);
  g.add_node(0);
  g.add_node(0);
  EXPECT_EQ(kind_of([&] { g.insert_edge(0, 1, 0); }),
            GraphUpdateError::Kind::kNotFinalized);
  EXPECT_EQ(kind_of([&] { g.delete_edge(0, 1); }),
            GraphUpdateError::Kind::kNotFinalized);
  EXPECT_EQ(kind_of([&] { g.compact(); }),
            GraphUpdateError::Kind::kNotFinalized);
}

TEST(GraphMutationErrors, DuplicateInsertIsRejected) {
  auto g = testing::path_graph(4);  // 0-1-2-3
  EXPECT_EQ(kind_of([&] { g.insert_edge(0, 1, 0); }),
            GraphUpdateError::Kind::kDuplicateEdge);
  // Orientation does not matter (undirected).
  EXPECT_EQ(kind_of([&] { g.insert_edge(1, 0, 0); }),
            GraphUpdateError::Kind::kDuplicateEdge);
  // Duplicates of OVERLAY edges are rejected too, not just base edges.
  g.insert_edge(0, 3, 0);
  EXPECT_EQ(kind_of([&] { g.insert_edge(3, 0, 0); }),
            GraphUpdateError::Kind::kDuplicateEdge);
}

TEST(GraphMutationErrors, RemovingNonexistentEdgeIsRejected) {
  auto g = testing::path_graph(4);
  EXPECT_EQ(kind_of([&] { g.delete_edge(0, 3); }),
            GraphUpdateError::Kind::kMissingEdge);
  // Deleting twice: the second delete sees a missing edge.
  g.delete_edge(0, 1);
  EXPECT_EQ(kind_of([&] { g.delete_edge(0, 1); }),
            GraphUpdateError::Kind::kMissingEdge);
}

TEST(GraphMutationErrors, OutOfRangeIdsAreRejected) {
  auto g = testing::path_graph(4);
  EXPECT_EQ(kind_of([&] { g.insert_edge(-1, 2, 0); }),
            GraphUpdateError::Kind::kNodeOutOfRange);
  EXPECT_EQ(kind_of([&] { g.insert_edge(0, 4, 0); }),
            GraphUpdateError::Kind::kNodeOutOfRange);
  EXPECT_EQ(kind_of([&] { g.delete_edge(0, 99); }),
            GraphUpdateError::Kind::kNodeOutOfRange);
  EXPECT_EQ(kind_of([&] { g.insert_edge(2, 2, 0); }),
            GraphUpdateError::Kind::kSelfLoop);
  EXPECT_EQ(kind_of([&] { g.insert_edge(0, 3, 1); }),
            GraphUpdateError::Kind::kTypeOutOfRange);
  EXPECT_EQ(kind_of([&] { g.insert_edge(0, 3, -1); }),
            GraphUpdateError::Kind::kTypeOutOfRange);
}

TEST(GraphMutationErrors, AttrDimMismatchIsRejectedBeforeMutating) {
  graph::KnowledgeGraph g(1, 2, /*edge_attr_dim=*/3);
  g.add_node(0);
  g.add_node(0);
  g.add_node(0);
  g.add_edge(0, 1, 0);
  const double attr3[] = {1.0, 0.0, 0.0};
  g.set_edge_type_attr(0, attr3);
  g.set_edge_type_attr(1, attr3);
  g.finalize();

  const std::uint64_t gen = g.generation();
  const double attr2[] = {1.0, 0.0};
  EXPECT_EQ(kind_of([&] { g.insert_edge(1, 2, 1, attr2); }),
            GraphUpdateError::Kind::kAttrDimMismatch);
  // The failed insert must not have mutated anything: no edge, no
  // generation bump, no overlay depth.
  EXPECT_EQ(g.generation(), gen);
  EXPECT_EQ(g.overlay_depth(), 0);
  EXPECT_FALSE(g.has_edge(1, 2));
}

// ---- Overlay semantics: visibility, counters, compaction -------------------

TEST(DeltaOverlay, InsertAndDeleteAreImmediatelyVisible) {
  auto g = testing::path_graph(5);
  ASSERT_FALSE(g.has_edge(0, 4));
  const auto e = g.insert_edge(0, 4, 0);
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_EQ(g.find_edge(4, 0), e);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.edge(e).src, 0);
  EXPECT_EQ(g.edge(e).dst, 4);

  EXPECT_EQ(g.delete_edge(1, 2), 1);  // base edge 1 is 1-2
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.edge_removed(1));
  EXPECT_EQ(g.degree(1), 1);
  // Tombstoned records stay readable until compact().
  EXPECT_EQ(g.edge(1).src, 1);
  EXPECT_EQ(g.num_edges(), 5);       // 4 base records + 1 overlay insert
  EXPECT_EQ(g.num_live_edges(), 4);  // one of them tombstoned
  EXPECT_EQ(g.overlay_depth(), 2);
}

TEST(DeltaOverlay, GenerationCountersStampTouchedEndpointsOnly) {
  auto g = testing::path_graph(5);
  EXPECT_EQ(g.generation(), 0u);
  for (graph::NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(g.node_generation(v), 0u);

  g.insert_edge(0, 4, 0);
  EXPECT_EQ(g.generation(), 1u);
  EXPECT_EQ(g.node_generation(0), 1u);
  EXPECT_EQ(g.node_generation(4), 1u);
  EXPECT_EQ(g.node_generation(2), 0u);

  g.delete_edge(2, 3);
  EXPECT_EQ(g.generation(), 2u);
  EXPECT_EQ(g.node_generation(2), 2u);
  EXPECT_EQ(g.node_generation(3), 2u);
  EXPECT_EQ(g.node_generation(0), 1u);
}

TEST(DeltaOverlay, CompactFoldsOverlayAndPreservesGenerations) {
  auto g = testing::path_graph(5);
  g.insert_edge(0, 4, 0);
  g.delete_edge(1, 2);
  const auto gen = g.generation();

  g.compact();
  EXPECT_EQ(g.overlay_depth(), 0);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_live_edges(), 4);
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(1, 2));
  // compact() changes no logical state: generation counters survive, so no
  // downstream cache is invalidated.
  EXPECT_EQ(g.generation(), gen);
  EXPECT_EQ(g.node_generation(0), 1u);
  EXPECT_EQ(g.node_generation(2), 2u);
  // A compacted graph accepts further updates.
  g.insert_edge(1, 2, 0);
  EXPECT_EQ(g.generation(), gen + 1);
}

// ---- Invariant (1): static-vs-incremental equivalence ----------------------

seal::SealDatasetOptions small_seal_options(std::int64_t num_threads = 0) {
  seal::SealDatasetOptions o;
  o.extract.num_hops = 2;
  o.extract.max_nodes = 24;
  o.features.max_drnl_label = 16;
  o.num_threads = num_threads;
  return o;
}

TEST(DynamicGraphEquivalence, OverlayGraphBuildsIdenticalSealDatasets) {
  const auto opts = small_seal_options();
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    auto g = datasets::make_random_kg(random_kg_options(trial + 1));
    UpdateSequenceOptions uo;
    uo.count = 30;
    uo.seed = trial * 2 + 1;
    apply_updates(g, make_update_sequence(g, uo));
    if (trial % 3 == 1) g.compact();  // a third of trials query post-compact

    // Reference: the same logical graph through add_edge + finalize.
    const auto fresh = rebuild_via_finalize(g);
    ASSERT_EQ(fresh.num_edges(), g.num_live_edges()) << "trial " << trial;

    const auto links = random_links(g, 8, /*num_classes=*/3, trial + 77);
    expect_samples_identical(seal::build_samples(g, links, opts),
                             seal::build_samples(fresh, links, opts),
                             ("trial " + std::to_string(trial)).c_str());
  }
}

// ---- Invariant (2): compaction timing is unobservable ----------------------

/// Adjacency of v as id-free (neighbor, relation-type) pairs — edge ids are
/// renumbered by compact(), endpoints and types are not.
std::vector<std::pair<graph::NodeId, std::int32_t>> typed_adjacency(
    const graph::KnowledgeGraph& g, graph::NodeId v) {
  std::vector<std::pair<graph::NodeId, std::int32_t>> out;
  for (const auto& adj : g.neighbors(v))
    out.emplace_back(adj.node, g.edge(adj.edge).type);
  return out;
}

TEST(DynamicGraphCompaction, TimingOfCompactionIsUnobservable) {
  const auto opts = small_seal_options();
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    const auto base = datasets::make_random_kg(random_kg_options(trial + 501));
    UpdateSequenceOptions uo;
    uo.count = 24;
    uo.seed = trial * 2 + 9;
    const auto seq = make_update_sequence(base, uo);

    // Never-compacted reference vs compaction after `cut` updates.
    auto never = base;
    apply_updates(never, seq);
    const auto links = random_links(never, 6, /*num_classes=*/3, trial + 33);
    const auto want = seal::build_samples(never, links, opts);

    for (const std::size_t cut : {std::size_t{0}, seq.size() / 2,
                                  seq.size()}) {
      auto g = base;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i == cut) g.compact();
        apply_update(g, seq[i]);
      }
      if (cut == seq.size()) g.compact();

      const auto tag = "trial " + std::to_string(trial) + " cut " +
                       std::to_string(cut);
      // Neighbor sequences are byte-identical up to edge-id renumbering.
      for (graph::NodeId v = 0;
           v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
        ASSERT_EQ(typed_adjacency(g, v), typed_adjacency(never, v))
            << tag << " node " << v;
      // ... so DRNL labels and full sample bytes are too.
      for (const auto& link : links) {
        graph::ExtractOptions eo = opts.extract;
        const auto sub = graph::extract_enclosing_subgraph(g, link.a, link.b,
                                                           eo);
        const auto ref = graph::extract_enclosing_subgraph(never, link.a,
                                                           link.b, eo);
        ASSERT_EQ(sub.nodes, ref.nodes) << tag;
        ASSERT_EQ(seal::drnl_labels(sub), seal::drnl_labels(ref)) << tag;
      }
      expect_samples_identical(seal::build_samples(g, links, opts), want,
                               tag.c_str());
    }
  }
}

// ---- Trained-classifier fixture for the serving-side tests -----------------

struct ServingFixture {
  datasets::LinkDataset data;
  core::ClassifierConfig cfg;
  std::unique_ptr<core::SealLinkClassifier> clf;

  ServingFixture() {
    datasets::WordNetSimOptions o;
    o.num_nodes = 200;
    o.num_train = 40;
    o.num_test = 15;
    o.mean_degree = 5.0;
    data = datasets::make_wordnet_sim(o);

    cfg.model.kind = models::GnnKind::kAMDGCNN;
    cfg.model.hidden_dim = 8;
    cfg.model.heads = 2;
    cfg.model.num_layers = 2;
    cfg.model.sort_k = 10;
    cfg.training.epochs = 1;
    cfg.dataset.extract.max_nodes = 24;
    cfg.dataset.features.max_drnl_label = 16;
    clf = std::make_unique<core::SealLinkClassifier>(cfg);
    clf->fit(data.graph, data.train_links, data.num_classes);
  }

  core::LinkPredictor predictor(std::int64_t threads = 0) const {
    core::LinkPredictor::Options po;
    po.dataset = cfg.dataset;
    po.dataset.num_threads = threads;
    return core::LinkPredictor(clf->model(), po);
  }
};

void expect_proba_bitwise_equal(const core::LinkPredictions& got,
                                const core::LinkPredictions& want,
                                const std::string& tag) {
  ASSERT_EQ(got.proba.size(), want.proba.size()) << tag;
  ASSERT_EQ(0, std::memcmp(got.proba.data(), want.proba.data(),
                           want.proba.size() * sizeof(double)))
      << tag;
  ASSERT_EQ(got.labels, want.labels) << tag;
}

// ---- Invariant (3): cache coherence ----------------------------------------

TEST(DynamicGraphCache, CachedScoresAlwaysEqualColdPath) {
  ServingFixture fx;
  auto g = fx.data.graph;  // mutable serving copy
  const auto predictor = fx.predictor();
  serve::Server server(predictor, g);

  util::Rng rng(4242);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  for (int step = 0; step < 200; ++step) {
    // Random interleaving: 0-2 mutations, sometimes a compaction, then a
    // small randomized query batch (overlapping batches drive the hit path;
    // mutations drive invalidation).
    const auto muts = rng.uniform_int(3);
    for (std::uint64_t k = 0; k < muts; ++k) {
      const auto a = static_cast<graph::NodeId>(rng.uniform_int(n));
      const auto b = static_cast<graph::NodeId>(rng.uniform_int(n));
      if (a == b) continue;
      try {
        if (rng.uniform() < 0.5 && g.has_edge(a, b))
          g.delete_edge(a, b);
        else if (!g.has_edge(a, b))
          g.insert_edge(a, b, static_cast<std::int32_t>(rng.uniform_int(
                                  static_cast<std::uint64_t>(
                                      g.num_edge_types()))));
      } catch (const GraphUpdateError&) {
        ADD_FAILURE() << "valid mutation raised at step " << step;
      }
    }
    if (step % 17 == 5) g.compact();

    const auto links =
        random_links(g, 6, fx.data.num_classes,
                     /*seed=*/1000 + static_cast<std::uint64_t>(step) % 5);
    expect_proba_bitwise_equal(server.score_batch(links),
                               predictor.predict_links(g, links),
                               "step " + std::to_string(step));
  }
  // The interleaving must have exercised all three cache paths, or the
  // property above proved nothing.
  const auto s = server.stats();
  EXPECT_GT(s.score_hits, 0);
  EXPECT_GT(s.score_misses, 0);
  EXPECT_GT(s.score_invalidated, 0);
}

TEST(DynamicGraphCache, RepeatQueryHitsWithoutMutationAndMissesAfterTouch) {
  ServingFixture fx;
  auto g = fx.data.graph;
  const auto predictor = fx.predictor();
  serve::Server server(predictor, g);
  const auto links = random_links(g, 5, fx.data.num_classes, 7);

  const auto first = server.score_batch(links);
  expect_proba_bitwise_equal(first, predictor.predict_links(g, links), "cold");
  EXPECT_EQ(server.stats().score_hits, 0);
  EXPECT_EQ(server.stats().score_misses, 5);

  // No mutation: pure hits, bit-identical.
  const auto second = server.score_batch(links);
  expect_proba_bitwise_equal(second, first, "repeat");
  EXPECT_EQ(server.stats().score_hits, 5);

  // compact() must not evict (generations are preserved).
  g.compact();
  server.score_batch(links);
  EXPECT_EQ(server.stats().score_hits, 10);
  EXPECT_EQ(server.stats().score_invalidated, 0);

  // Touching a queried endpoint invalidates the entries whose hull contains
  // it (links[0].a is in its own hull by construction).
  graph::NodeId other = -1;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes());
       ++v)
    if (v != links[0].a && !g.has_edge(links[0].a, v)) {
      other = v;
      break;
    }
  ASSERT_GE(other, 0);
  g.insert_edge(links[0].a, other, 0);
  expect_proba_bitwise_equal(server.score_batch(links),
                             predictor.predict_links(g, links), "touched");
  EXPECT_GT(server.stats().score_invalidated, 0);
}

// A poisoned link in a parallel serving batch surfaces as util::WorkerError
// carrying the stage name and the lowest failing batch index.
TEST(DynamicGraphCache, PredictLinksWorkerFailureIsWorkerError) {
  ServingFixture fx;
  const auto& g = fx.data.graph;
  auto links = random_links(g, 8, fx.data.num_classes, 31);
  links[2].b = static_cast<graph::NodeId>(g.num_nodes() + 7);

  const auto p = fx.predictor(/*threads=*/4);
  try {
    p.predict_links(g, links);
    FAIL() << "expected util::WorkerError";
  } catch (const util::WorkerError& e) {
    EXPECT_EQ(e.item(), 2);
    EXPECT_NE(std::string(e.what()).find("predict_links: worker failed at "
                                         "item 2"),
              std::string::npos)
        << e.what();
  }
}

// ---- Thread invariance over overlay graphs ---------------------------------

TEST(DynamicGraphThreads, BuildSamplesBitIdenticalOverOverlayGraph) {
  auto g = datasets::make_random_kg(random_kg_options(99));
  UpdateSequenceOptions uo;
  uo.count = 40;
  uo.seed = 5;
  apply_updates(g, make_update_sequence(g, uo));
  ASSERT_GT(g.overlay_depth(), 0);

  const auto links = random_links(g, 30, /*num_classes=*/3, 21);
  auto opts = small_seal_options(0);
  const auto serial = seal::build_samples(g, links, opts);
  for (std::int64_t nt : {1, 4}) {
    opts.num_threads = nt;
    expect_samples_identical(seal::build_samples(g, links, opts), serial,
                             ("num_threads=" + std::to_string(nt)).c_str());
  }
}

TEST(DynamicGraphThreads, PredictLinksBitIdenticalOverOverlayGraph) {
  ServingFixture fx;
  auto g = fx.data.graph;
  UpdateSequenceOptions uo;
  uo.count = 30;
  uo.seed = 3;
  apply_updates(g, make_update_sequence(g, uo));
  ASSERT_GT(g.overlay_depth(), 0);
  const auto links = random_links(g, 20, fx.data.num_classes, 13);

  const auto serial = fx.predictor(0).predict_links(g, links);
  for (std::int64_t nt : {1, 4}) {
    const auto predictor = fx.predictor(nt);
    // Two passes so the second replays frontiers from the workers' caches.
    predictor.predict_links(g, links);
    expect_proba_bitwise_equal(predictor.predict_links(g, links), serial,
                               "num_threads=" + std::to_string(nt));
  }
}

}  // namespace
}  // namespace amdgcnn
