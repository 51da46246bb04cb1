// Persistent serving runtime around the frozen inference engine
// (DESIGN.md §2.8).
//
// A Server binds one LinkPredictor to one serving graph and answers
// candidate-link batches through a pipeline built for the regime where
// SEAL's per-link subgraph cost dominates: requests flow through a bounded
// submission queue into a dispatcher thread, which plans each batch
// serially (dedup + score-cache probe + endpoint grouping), fans the cache
// misses out over a persistent util::WorkerPool with itself as worker 0 —
// every worker owns a warm inference arena and the thread-local extraction
// scratch survives across requests — and assembles results in input order.
// Two cache layers amortise repeated work across queries:
//
//   1. score LRU    — (a, b) -> probability row, validated against the
//                     hop-hull node generations (DESIGN.md §2.5): a hit is
//                     bit-identical to recompute.  This is the project's one
//                     score cache; score_batch() reaches it synchronously.
//   2. endpoint LRU — endpoint -> hop-bounded BFS frontier
//                     (graph::Frontier), validated the same way against its
//                     node generations.  Extraction replays a hit through
//                     its frontier slots instead of traversing, and a group
//                     of links out of one source replays that source's
//                     frontier for every link after the first.  This is the
//                     project's one frontier cache.
//
// Every layer preserves bytes, so a batch scored through the Server is
// bit-identical to the serial cold predict_links path per quantization
// scheme, for any worker count — asserted by tests/test_serving.cpp and
// bench_serving_throughput.
//
// Concurrency contract: submit()/score_batch() may be called from any
// thread (they block when the queue is full — backpressure is the bounded
// queue with a caller-blocks policy).  Graph mutations (DeltaOverlay
// insert/delete) keep the single-writer rule: they must not overlap request
// processing — mutate only while no submitted request is outstanding.
// shutdown() stops admissions, drains queued and in-flight requests to
// their futures, then parks and joins the pool; it is idempotent, and
// submitting afterwards throws ServeError.  Failures inside a request
// surface on the future as util::WorkerError carrying the lowest failing
// input-link index, deterministically for any worker count.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "core/link_predictor.h"
#include "util/worker_pool.h"

namespace amdgcnn::serve {

/// Misuse of the serving runtime (submit after shutdown, invalid options):
/// the pool's misuse error, so one type covers the Server and its pool.
using ServeError = util::PoolError;

struct ServerOptions {
  /// Pool workers scoring cache misses, the dispatcher thread included.
  /// Results are bit-identical for any value (the worker index only selects
  /// scratch).
  int num_workers = 1;
  /// Pending-request cap; submit() blocks once the queue is full.
  std::size_t queue_capacity = 16;
  /// Layer 1: cross-query (a, b) -> probability-row LRU entries.
  std::size_t score_cache_capacity = 1 << 16;
  /// Layer 2: cross-query endpoint -> BFS-frontier LRU entries.
  std::size_t endpoint_cache_capacity = 4096;
};

/// Cumulative counters since construction; see the cache layering above.
/// `scored` counts frozen forwards actually run — the gap to `links` is
/// work the dedup and the score cache removed.
struct ServerStats {
  std::int64_t requests = 0;
  std::int64_t links = 0;             // links across all requests
  std::int64_t deduped = 0;           // in-batch duplicates of earlier links
  std::int64_t scored = 0;            // cold forwards actually executed
  std::int64_t score_hits = 0;
  std::int64_t score_misses = 0;
  std::int64_t score_invalidated = 0;  // dropped: hull node went dirty
  std::int64_t score_evictions = 0;    // dropped: LRU capacity
  std::int64_t endpoint_hits = 0;
  std::int64_t endpoint_misses = 0;
  std::int64_t endpoint_invalidated = 0;
  std::int64_t endpoint_evictions = 0;
  /// Always 0: the node-row cache they counted is gone.  Kept until the
  /// repository benchmark stops reading them.
  std::int64_t row_hits = 0;
  std::int64_t row_misses = 0;
};

class Server {
 public:
  /// Binds `predictor` and `graph` (both borrowed; they must outlive the
  /// Server).  Each pool worker gets an arena pre-warmed to the predictor's
  /// warm_nodes/warm_edges hint so first queries never grow mid-pass.
  /// Throws ServeError when num_workers < 1 or when queue_capacity or either
  /// cache capacity is 0.
  Server(const core::LinkPredictor& predictor,
         const graph::KnowledgeGraph& graph, ServerOptions options = {});
  ~Server();  // implies shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue one batch; blocks while the queue is full.  The future yields
  /// the predictions in input order, or rethrows the request's failure.
  std::future<core::LinkPredictions> submit(
      std::vector<seal::LinkExample> links);

  /// Synchronous convenience: submit() + get().
  core::LinkPredictions score_batch(
      const std::vector<seal::LinkExample>& links);

  /// Stop admissions, drain queued + in-flight requests, park the pool.
  void shutdown();
  bool closed() const;

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }
  int num_workers() const { return options_.num_workers; }

 private:
  struct Request {
    std::vector<seal::LinkExample> links;
    std::promise<core::LinkPredictions> promise;
  };
  struct Impl;  // caches + per-worker state (server.cpp)

  void dispatcher_loop();
  core::LinkPredictions process(const std::vector<seal::LinkExample>& links);

  const core::LinkPredictor& predictor_;
  const graph::KnowledgeGraph& graph_;
  ServerOptions options_;
  std::unique_ptr<Impl> impl_;
  std::unique_ptr<util::WorkerPool> pool_;

  mutable std::mutex queue_mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Request> queue_;
  bool shut_down_ = false;
  std::thread dispatcher_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace amdgcnn::serve
