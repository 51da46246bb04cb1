// Serving-runtime tests (DESIGN.md §2.8): the persistent util::WorkerPool,
// the batched endpoint-grouped Server pipeline and its two cache layers.
//
// Headline invariants:
//   (1) Pool fork-join correctness — every item runs exactly once, worker
//       indices stay in range, failures surface as util::WorkerError with
//       the LOWEST failing item for any worker count, and the lifecycle
//       negative paths (double shutdown, run-after-shutdown) are typed.
//   (2) Byte equivalence — a batch scored through the Server is bitwise
//       identical to the serial cold predict_links path (exact schemes) and
//       invariant to the worker count (every scheme, including f16/q8),
//       duplicates and all.
//   (3) Cache coherence — the cross-query score/frontier caches never
//       change bytes under randomized mutation/query interleavings, and a
//       mutation inside an endpoint's frontier invalidates it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/link_predictor.h"
#include "core/seal_link_classifier.h"
#include "datasets/wordnet_sim.h"
#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "serve/lru_cache.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/parallel_error.h"
#include "util/worker_pool.h"

namespace amdgcnn {
namespace {

using testing::random_links;

// ---- WorkerPool: fork-join correctness -------------------------------------

TEST(WorkerPoolRun, EveryItemRunsOnceAndWorkerIndicesAreInRange) {
  util::WorkerPool pool(3);
  constexpr std::int64_t kItems = 200;
  std::vector<std::atomic<int>> runs(kItems);
  std::atomic<bool> worker_in_range{true};
  std::atomic<bool> worker0_is_caller{true};
  const auto caller = std::this_thread::get_id();
  pool.run("test", kItems, [&](std::int64_t item, int worker) {
    if (worker < 0 || worker >= 3) worker_in_range = false;
    if ((worker == 0) != (std::this_thread::get_id() == caller))
      worker0_is_caller = false;
    runs[static_cast<std::size_t>(item)].fetch_add(1);
  });
  EXPECT_TRUE(worker_in_range);
  EXPECT_TRUE(worker0_is_caller);
  for (std::int64_t i = 0; i < kItems; ++i)
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
}

TEST(WorkerPoolRun, PoolIsReusableAcrossJobs) {
  util::WorkerPool pool(2);
  std::atomic<std::int64_t> total{0};
  for (int job = 0; job < 5; ++job)
    pool.run("test", 40, [&](std::int64_t, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 200);
}

TEST(WorkerPoolRun, ShortJobsStayExactWhenWorkersArriveLate) {
  // Eight workers and a few trivial items per job: the caller usually
  // drains a job before some workers wake.  Those arrive late, possibly
  // after run() has returned, and must skip the job without touching its
  // frame.
  util::WorkerPool pool(8);
  for (std::int64_t job = 0; job < 2000; ++job) {
    const std::int64_t n = 1 + job % 7;
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
    pool.run("test", n, [&](std::int64_t i, int) {
      out[static_cast<std::size_t>(i)] = job * 10 + i;
    });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(out[static_cast<std::size_t>(i)], job * 10 + i)
          << "job " << job << " item " << i;
  }
}

TEST(WorkerPoolRun, EmptyJobIsANoop) {
  util::WorkerPool pool(2);
  pool.run("test", 0, [&](std::int64_t, int) { FAIL() << "ran an item"; });
  pool.run("test", -3, [&](std::int64_t, int) { FAIL() << "ran an item"; });
}

TEST(WorkerPoolRun, LowestFailingItemWinsForAnyWorkerCount) {
  for (const int workers : {1, 2, 4}) {
    util::WorkerPool pool(workers);
    try {
      pool.run("stage", 100, [](std::int64_t item, int) {
        if (item == 13 || item == 57 || item == 91)
          throw std::runtime_error("boom " + std::to_string(item));
      });
      FAIL() << "expected WorkerError (workers=" << workers << ")";
    } catch (const util::WorkerError& e) {
      EXPECT_EQ(e.item(), 13) << "workers=" << workers;
      EXPECT_NE(std::string(e.what()).find("stage: worker failed at item 13"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("boom 13"), std::string::npos);
    }
    // The pool survives a failing job.
    std::atomic<std::int64_t> total{0};
    pool.run("test", 10, [&](std::int64_t, int) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 10);
  }
}

// ---- WorkerPool: lifecycle negative paths ----------------------------------

TEST(WorkerPoolLifecycle, ZeroWorkersIsRejected) {
  EXPECT_THROW(util::WorkerPool(0), serve::ServeError);
  EXPECT_THROW(util::WorkerPool(-2), serve::ServeError);
}

TEST(WorkerPoolLifecycle, DoubleShutdownIsIdempotent) {
  util::WorkerPool pool(2);
  EXPECT_FALSE(pool.closed());
  pool.shutdown();
  EXPECT_TRUE(pool.closed());
  pool.shutdown();  // second call returns immediately
  EXPECT_TRUE(pool.closed());
}

TEST(WorkerPoolLifecycle, RunAfterShutdownThrowsServeError) {
  util::WorkerPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.run("test", 4, [](std::int64_t, int) {}),
               serve::ServeError);
}

// ---- LruCache --------------------------------------------------------------

TEST(LruCache, EvictsColdEndAndRefreshesOnFind) {
  serve::LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  ASSERT_NE(cache.find(1), nullptr);  // 1 becomes MRU; 2 is now coldest
  cache.insert(3, 30);                // evicts 2
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(*cache.find(1), 10);
  EXPECT_EQ(*cache.find(3), 30);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.evictions(), 1);  // erase() is not an eviction
  EXPECT_EQ(cache.size(), 1u);
}

// ---- Trained-classifier fixture --------------------------------------------

struct ServeFixture {
  datasets::LinkDataset data;
  core::ClassifierConfig cfg;
  std::unique_ptr<core::SealLinkClassifier> clf;

  ServeFixture() {
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

  core::LinkPredictor predictor(
      ag::quant::Scheme quantize = ag::quant::Scheme::kNone) const {
    core::LinkPredictor::Options po;
    po.dataset = cfg.dataset;
    po.quantize = quantize;
    return core::LinkPredictor(clf->model(), po);
  }
};

void expect_predictions_bitwise_equal(const core::LinkPredictions& got,
                                      const core::LinkPredictions& want,
                                      const std::string& tag) {
  ASSERT_EQ(got.proba.size(), want.proba.size()) << tag;
  ASSERT_EQ(0, std::memcmp(got.proba.data(), want.proba.data(),
                           want.proba.size() * sizeof(double)))
      << tag;
  ASSERT_EQ(got.labels, want.labels) << tag;
}

// ---- Server: byte equivalence ----------------------------------------------

TEST(ServerScore, BatchesMatchSerialColdPathBitwiseForAnyWorkerCount) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  const auto links = random_links(fx.data.graph, 24, fx.data.num_classes, 11);
  const auto want = predictor.predict_links(fx.data.graph, links);

  for (const int workers : {1, 2, 4}) {
    serve::ServerOptions so;
    so.num_workers = workers;
    serve::Server server(predictor, fx.data.graph, so);
    expect_predictions_bitwise_equal(
        server.score_batch(links), want,
        "workers=" + std::to_string(workers));
    // A second pass is served from the score cache — still the same bytes.
    expect_predictions_bitwise_equal(
        server.score_batch(links), want,
        "workers=" + std::to_string(workers) + " warm");
    const auto s = server.stats();
    EXPECT_EQ(s.links, 48);
    EXPECT_GT(s.score_hits, 0) << "workers=" << workers;
    EXPECT_EQ(s.scored, s.score_misses);
  }
}

TEST(ServerScore, QuantizedSchemesAreWorkerCountInvariant) {
  ServeFixture fx;
  const auto links = random_links(fx.data.graph, 16, fx.data.num_classes, 23);
  for (const auto scheme :
       {ag::quant::Scheme::kNone, ag::quant::Scheme::kF16,
        ag::quant::Scheme::kQ8}) {
    const auto predictor = fx.predictor(scheme);
    const std::string tag = ag::quant::scheme_name(scheme);
    // The per-scheme reference: the Server must reproduce the predictor's
    // own serial path bytes (the trained weights for kNone, the decoded
    // weights for f16/q8), for every worker count.
    const auto want = predictor.predict_links(fx.data.graph, links);
    for (const int workers : {1, 3}) {
      serve::ServerOptions so;
      so.num_workers = workers;
      serve::Server server(predictor, fx.data.graph, so);
      expect_predictions_bitwise_equal(
          server.score_batch(links), want,
          tag + " workers=" + std::to_string(workers));
    }
  }
}

TEST(ServerScore, DuplicateLinksAreDedupedAndFannedOutInInputOrder) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  const auto base = random_links(fx.data.graph, 6, fx.data.num_classes, 31);
  std::vector<seal::LinkExample> links;
  for (int r = 0; r < 4; ++r)
    links.insert(links.end(), base.begin(), base.end());
  const auto want = predictor.predict_links(fx.data.graph, links);

  serve::ServerOptions so;
  so.num_workers = 2;
  serve::Server server(predictor, fx.data.graph, so);
  expect_predictions_bitwise_equal(server.score_batch(links), want, "dedup");
  const auto s = server.stats();
  EXPECT_EQ(s.links, 24);
  EXPECT_EQ(s.deduped, 18);  // 6 distinct pairs, 3 repeats each
  EXPECT_EQ(s.scored, 6);
}

TEST(ServerScore, SharedEndpointBatchesHitTheEndpointCache) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  // A candidate fan: one hot source against many destinations, all
  // non-edges so every link takes the cacheable unmasked frontier path.
  std::vector<seal::LinkExample> fan;
  const graph::NodeId source = 3;
  for (graph::NodeId b = 20; fan.size() < 12; ++b)
    if (b != source && !fx.data.graph.has_edge(source, b))
      fan.push_back({source, b, 0});
  const auto want = predictor.predict_links(fx.data.graph, fan);

  serve::Server server(predictor, fx.data.graph, {});
  const auto f0 = graph::frontier_cache_stats();
  expect_predictions_bitwise_equal(server.score_batch(fan), want, "fan");
  const auto f1 = graph::frontier_cache_stats();
  const auto s = server.stats();
  // One group: its source is looked up once and each destination once.
  EXPECT_EQ(s.endpoint_hits + s.endpoint_misses,
            static_cast<std::int64_t>(fan.size()) + 1);
  // The source is traversed for the first link and replayed for the rest.
  EXPECT_GE(f1.hits - f0.hits, static_cast<std::int64_t>(fan.size()) - 1);

  // A second batch fanning the SAME source against fresh destinations must
  // hit the cross-query endpoint cache (the source BFS is replayed from the
  // shared LRU instead of re-traversed).
  std::vector<seal::LinkExample> fan2;
  for (graph::NodeId b = 120; fan2.size() < 6; ++b)
    if (b != source && !fx.data.graph.has_edge(source, b))
      fan2.push_back({source, b, 0});
  expect_predictions_bitwise_equal(server.score_batch(fan2),
                                   predictor.predict_links(fx.data.graph, fan2),
                                   "fan2");
  EXPECT_GT(server.stats().endpoint_hits, s.endpoint_hits);
}

// ---- Server: cache coherence under mutations -------------------------------

TEST(ServerCache, MutationsNeverChangeBytes) {
  ServeFixture fx;
  auto g = fx.data.graph;  // mutable serving copy
  const auto predictor = fx.predictor();
  const auto cold = fx.predictor();
  serve::ServerOptions so;
  so.num_workers = 2;
  serve::Server server(predictor, g, so);

  util::Rng rng(77);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  for (int step = 0; step < 60; ++step) {
    // Single-writer contract: mutate only between requests.
    const auto muts = rng.uniform_int(3);
    for (std::uint64_t k = 0; k < muts; ++k) {
      const auto a = static_cast<graph::NodeId>(rng.uniform_int(n));
      const auto b = static_cast<graph::NodeId>(rng.uniform_int(n));
      if (a == b) continue;
      if (rng.uniform() < 0.5 && g.has_edge(a, b))
        g.delete_edge(a, b);
      else if (!g.has_edge(a, b))
        g.insert_edge(a, b,
                      static_cast<std::int32_t>(rng.uniform_int(
                          static_cast<std::uint64_t>(g.num_edge_types()))));
    }
    // Overlapping batches drive hits; mutations drive invalidations.
    const auto links =
        random_links(g, 6, fx.data.num_classes,
                     /*seed=*/500 + static_cast<std::uint64_t>(step) % 4);
    expect_predictions_bitwise_equal(server.score_batch(links),
                                     cold.predict_links(g, links),
                                     "step " + std::to_string(step));
  }
  const auto s = server.stats();
  EXPECT_GT(s.score_hits, 0);
  EXPECT_GT(s.score_invalidated + s.endpoint_invalidated, 0)
      << "interleaving never invalidated anything — property proved nothing";
}

// A mutation inside an endpoint's cached frontier must drop that frontier:
// the next fan from the same source re-traverses, and its bytes follow the
// mutated graph.
TEST(ServerCache, EdgeDeletionNearASourceInvalidatesItsFrontier) {
  ServeFixture fx;
  auto g = fx.data.graph;  // mutable serving copy
  const auto predictor = fx.predictor();
  serve::Server server(predictor, g, {});
  const graph::NodeId source = 3;
  const auto make_fan = [&](graph::NodeId first) {
    std::vector<seal::LinkExample> fan;
    for (graph::NodeId b = first; fan.size() < 6; ++b)
      if (b != source && !g.has_edge(source, b)) fan.push_back({source, b, 0});
    return fan;
  };

  const auto fan = make_fan(20);
  expect_predictions_bitwise_equal(server.score_batch(fan),
                                   predictor.predict_links(g, fan), "fan");
  const auto before = server.stats();

  // Delete an edge one hop out: from a neighbor of the source to a node
  // other than the source, so both its endpoints lie in the source's
  // 2-hop frontier.
  graph::NodeId u = -1, w = -1;
  for (const auto& adj : g.neighbors(source)) {
    for (const auto& next : g.neighbors(adj.node))
      if (next.node != source && next.node != adj.node) {
        u = adj.node;
        w = next.node;
        break;
      }
    if (u >= 0) break;
  }
  ASSERT_GE(u, 0) << "no edge one hop out from the source";
  g.delete_edge(u, w);

  const auto fan2 = make_fan(120);
  expect_predictions_bitwise_equal(server.score_batch(fan2),
                                   predictor.predict_links(g, fan2), "fan2");
  EXPECT_GT(server.stats().endpoint_invalidated, before.endpoint_invalidated);
}

// ---- Server: lifecycle -----------------------------------------------------

TEST(ServerLifecycle, ShutdownDrainsQueuedAndInFlightRequests) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  const auto links = random_links(fx.data.graph, 8, fx.data.num_classes, 41);
  const auto want = predictor.predict_links(fx.data.graph, links);

  serve::Server server(predictor, fx.data.graph, {});
  std::vector<std::future<core::LinkPredictions>> futures;
  for (int r = 0; r < 4; ++r)
    futures.push_back(server.submit(links));
  server.shutdown();  // must drain all four to their futures first
  EXPECT_TRUE(server.closed());
  for (auto& f : futures)
    expect_predictions_bitwise_equal(f.get(), want, "drained");
  server.shutdown();  // idempotent
}

TEST(ServerLifecycle, SubmitAfterShutdownThrowsServeError) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  serve::Server server(predictor, fx.data.graph, {});
  server.shutdown();
  EXPECT_THROW(
      server.submit(random_links(fx.data.graph, 2, fx.data.num_classes, 5)),
      serve::ServeError);
}

TEST(ServerLifecycle, InvalidOptionsAreRejected) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  serve::ServerOptions so;
  so.num_workers = 0;
  EXPECT_THROW(serve::Server(predictor, fx.data.graph, so),
               serve::ServeError);
  so.num_workers = 1;
  so.queue_capacity = 0;
  EXPECT_THROW(serve::Server(predictor, fx.data.graph, so),
               serve::ServeError);
  so.queue_capacity = 16;
  so.score_cache_capacity = 0;
  EXPECT_THROW(serve::Server(predictor, fx.data.graph, so),
               serve::ServeError);
  so.score_cache_capacity = 1;
  so.endpoint_cache_capacity = 0;
  EXPECT_THROW(serve::Server(predictor, fx.data.graph, so),
               serve::ServeError);
}

TEST(ServerLifecycle, WorkerFailureSurfacesLowestInputIndexForAnyWorkerCount) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  auto links = random_links(fx.data.graph, 8, fx.data.num_classes, 51);
  const auto bad = static_cast<graph::NodeId>(fx.data.graph.num_nodes() + 7);
  links[2] = {bad, 0, 0};  // out-of-range endpoint -> worker throws
  links[5] = {0, bad, 0};

  for (const int workers : {1, 3}) {
    serve::ServerOptions so;
    so.num_workers = workers;
    serve::Server server(predictor, fx.data.graph, so);
    auto future = server.submit(links);
    try {
      future.get();
      FAIL() << "expected WorkerError (workers=" << workers << ")";
    } catch (const util::WorkerError& e) {
      EXPECT_EQ(e.item(), 2) << "workers=" << workers;
      EXPECT_NE(std::string(e.what()).find("serve::score_batch"),
                std::string::npos)
          << e.what();
    }
    // The server survives a failed request and keeps serving.
    const auto good = random_links(fx.data.graph, 4, fx.data.num_classes, 52);
    expect_predictions_bitwise_equal(
        server.score_batch(good),
        predictor.predict_links(fx.data.graph, good), "after failure");
  }
}

TEST(ServerBackpressure, BoundedQueueNeverDeadlocksAtCapacityOne) {
  ServeFixture fx;
  const auto predictor = fx.predictor();
  serve::ServerOptions so;
  so.queue_capacity = 1;  // every submit beyond the first in-flight blocks
  serve::Server server(predictor, fx.data.graph, so);
  const auto links = random_links(fx.data.graph, 6, fx.data.num_classes, 61);
  const auto want = predictor.predict_links(fx.data.graph, links);
  std::vector<std::future<core::LinkPredictions>> futures;
  for (int r = 0; r < 6; ++r)
    futures.push_back(server.submit(links));
  for (auto& f : futures)
    expect_predictions_bitwise_equal(f.get(), want, "backpressure");
}

}  // namespace
}  // namespace amdgcnn
