#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "graph/subgraph.h"
#include "infer/arena.h"
#include "metrics/classification.h"
#include "seal/feature_builder.h"
#include "serve/lru_cache.h"

namespace amdgcnn::serve {

namespace {

/// Ordered (a, b) packed into one word (extraction is direction-sensitive:
/// local id 0 is always a).
std::uint64_t pair_key(graph::NodeId a, graph::NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}

std::uint64_t endpoint_key(graph::NodeId source, std::int32_t depth) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(depth));
}

/// A cached artifact is live iff no member node was touched after its fill
/// generation — any mutation that can change an enclosing subgraph or a
/// hop-bounded frontier stamps a node inside it (DESIGN.md §2.5/§2.8).
bool members_live(const graph::KnowledgeGraph& g,
                  const std::vector<graph::NodeId>& members,
                  std::uint64_t generation) {
  for (const auto v : members)
    if (g.node_generation(v) > generation) return false;
  return true;
}

}  // namespace

struct Server::Impl {
  struct ScoreEntry {
    std::vector<double> proba;           // one row, num_classes wide
    std::vector<graph::NodeId> hull;     // validation set
    std::uint64_t generation = 0;
  };
  struct FrontierEntry {
    std::uint64_t generation = 0;
    std::vector<graph::NodeId> nodes;    // BFS discovery order
    std::vector<std::int32_t> dist;      // parallel to nodes
  };
  struct Worker {
    infer::Arena arena;
    seal::NodeRowCache rows;
  };

  explicit Impl(const ServerOptions& o)
      : scores(o.score_cache_capacity), frontiers(o.endpoint_cache_capacity) {}

  // Layer 1 — dispatcher-only, no lock needed.
  LruCache<std::uint64_t, ScoreEntry> scores;

  // Layer 2 — shared between pool workers.
  std::mutex frontier_mu;
  LruCache<std::uint64_t, FrontierEntry> frontiers;
  std::int64_t endpoint_hits = 0;         // guarded by frontier_mu
  std::int64_t endpoint_misses = 0;
  std::int64_t endpoint_invalidated = 0;

  // Layer 3 — one per worker, touched only by its owner.
  std::vector<std::unique_ptr<Worker>> workers;
};

Server::Server(const core::LinkPredictor& predictor,
               const graph::KnowledgeGraph& graph, ServerOptions options)
    : predictor_(predictor),
      graph_(graph),
      options_(options),
      impl_(std::make_unique<Impl>(options_)),
      pool_(std::make_unique<util::WorkerPool>(options_.num_workers)) {
  if (options_.queue_capacity < 1)
    throw ServeError("Server: queue_capacity must be >= 1");
  const auto& po = predictor_.options();
  impl_->workers.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    auto state = std::make_unique<Impl::Worker>();
    if (po.warm_nodes > 0)
      predictor_.frozen().warm_up(state->arena, po.warm_nodes, po.warm_edges);
    impl_->workers.push_back(std::move(state));
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() { shutdown(); }

std::future<core::LinkPredictions> Server::submit(
    std::vector<seal::LinkExample> links) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  not_full_.wait(lock, [&] {
    return shut_down_ || queue_.size() < options_.queue_capacity;
  });
  if (shut_down_) throw ServeError("Server::submit: server is shut down");
  Request request;
  request.links = std::move(links);
  auto future = request.promise.get_future();
  queue_.push_back(std::move(request));
  lock.unlock();
  not_empty_.notify_one();
  return future;
}

core::LinkPredictions Server::score_batch(
    const std::vector<seal::LinkExample>& links) {
  return submit(links).get();
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Wake blocked submitters (they throw) and the dispatcher, which drains
  // every queued request to its future before exiting.
  not_full_.notify_all();
  not_empty_.notify_all();
  dispatcher_.join();
  pool_->shutdown();
}

bool Server::closed() const {
  const std::lock_guard<std::mutex> lock(queue_mu_);
  return shut_down_;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::dispatcher_loop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      not_empty_.wait(lock, [&] { return shut_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shut down and fully drained
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_all();
    try {
      request.promise.set_value(process(request.links));
    } catch (...) {
      request.promise.set_exception(std::current_exception());
    }
  }
}

core::LinkPredictions Server::process(
    const std::vector<seal::LinkExample>& links) {
  const std::int64_t c = predictor_.config().num_classes;
  const auto n = static_cast<std::int64_t>(links.size());
  core::LinkPredictions result;
  result.num_classes = c;
  result.proba.resize(static_cast<std::size_t>(n * c));

  // ---- Plan (serial): dedup, score-cache probe, endpoint grouping --------
  struct Distinct {
    seal::LinkExample link;
    std::int64_t first_input = 0;  // lowest input index (error reporting)
  };
  std::vector<Distinct> distinct;
  std::vector<std::int64_t> dup_of(static_cast<std::size_t>(n));
  std::int64_t deduped = 0;
  {
    std::unordered_map<std::uint64_t, std::int64_t> seen;
    for (std::int64_t i = 0; i < n; ++i) {
      const auto key = pair_key(links[i].a, links[i].b);
      const auto [it, inserted] =
          seen.try_emplace(key, static_cast<std::int64_t>(distinct.size()));
      if (inserted)
        distinct.push_back({links[i], i});
      else
        ++deduped;
      dup_of[static_cast<std::size_t>(i)] = it->second;
    }
  }
  const auto d = static_cast<std::int64_t>(distinct.size());
  std::vector<double> rows(static_cast<std::size_t>(d * c));
  std::vector<std::vector<graph::NodeId>> hulls(distinct.size());

  std::int64_t score_hits = 0, score_misses = 0, score_invalidated = 0;
  std::vector<std::int64_t> miss;
  for (std::int64_t k = 0; k < d; ++k) {
    const auto key = pair_key(distinct[static_cast<std::size_t>(k)].link.a,
                              distinct[static_cast<std::size_t>(k)].link.b);
    if (options_.score_cache) {
      if (auto* entry = impl_->scores.find(key)) {
        if (members_live(graph_, entry->hull, entry->generation)) {
          std::copy(entry->proba.begin(), entry->proba.end(),
                    rows.begin() + k * c);
          ++score_hits;
          continue;
        }
        impl_->scores.erase(key);
        ++score_invalidated;
      }
      ++score_misses;
    }
    miss.push_back(k);
  }

  // Endpoint groups over the misses: all links fanning out of one source
  // node score back to back on one worker, so its per-thread frontier cache
  // runs the source BFS once per group (DESIGN.md §2.6) and its node-row
  // cache reuses feature tails across the overlapping subgraphs.
  std::vector<std::vector<std::int64_t>> groups;
  {
    std::unordered_map<graph::NodeId, std::size_t> group_of;
    for (const auto k : miss) {
      const auto source = distinct[static_cast<std::size_t>(k)].link.a;
      const auto [it, inserted] = group_of.try_emplace(source, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(k);
    }
  }

  // ---- Score the misses over the pool (parallel) -------------------------
  // Failures are collected by the lowest failing *input* index, not the
  // group index, so a bad batch reports the same link on every run and any
  // worker count.  A failure aborts its group; other groups complete.
  util::WorkerErrorCollector errors;
  if (!groups.empty()) {
    const auto& ds = predictor_.options().dataset;
    auto extract_opts = ds.extract;
    extract_opts.collect_hull = true;
    const std::int32_t depth = extract_opts.num_hops;

    // Move a hull-validated frontier from the shared LRU into the calling
    // worker's per-thread cache (a no-op miss otherwise)...
    const auto seed = [&](graph::NodeId source) {
      std::vector<graph::NodeId> nodes;
      std::vector<std::int32_t> dist;
      {
        const std::lock_guard<std::mutex> lock(impl_->frontier_mu);
        auto* entry = impl_->frontiers.find(endpoint_key(source, depth));
        if (entry == nullptr) {
          ++impl_->endpoint_misses;
          return;
        }
        if (!members_live(graph_, entry->nodes, entry->generation)) {
          impl_->frontiers.erase(endpoint_key(source, depth));
          ++impl_->endpoint_invalidated;
          ++impl_->endpoint_misses;
          return;
        }
        nodes = entry->nodes;
        dist = entry->dist;
        ++impl_->endpoint_hits;
      }
      graph::seed_frontier_cache(graph_, source, /*masked_edge=*/-1, depth,
                                 nodes, dist);
    };
    // ...and publish a freshly traversed frontier back to the shared LRU.
    const auto publish = [&](graph::NodeId source) {
      std::vector<graph::NodeId> nodes;
      std::vector<std::int32_t> dist;
      if (!graph::export_cached_frontier(graph_, source, /*masked_edge=*/-1,
                                         depth, nodes, dist))
        return;
      const std::lock_guard<std::mutex> lock(impl_->frontier_mu);
      const auto key = endpoint_key(source, depth);
      if (impl_->frontiers.find(key) != nullptr) return;
      Impl::FrontierEntry entry;
      entry.generation = graph_.generation();
      entry.nodes = std::move(nodes);
      entry.dist = std::move(dist);
      impl_->frontiers.insert(key, std::move(entry));
    };

    const util::WorkerPool::WorkFn fn = [&](std::int64_t gi, int w) {
      auto& worker = *impl_->workers[static_cast<std::size_t>(w)];
      seal::NodeRowCache* row_cache =
          options_.reuse_feature_rows ? &worker.rows : nullptr;
      const auto& group = groups[static_cast<std::size_t>(gi)];
      bool source_seeded = false;
      for (const auto k : group) {
        const auto& item = distinct[static_cast<std::size_t>(k)];
        try {
          const auto& link = item.link;
          if (link.a < 0 || link.a >= graph_.num_nodes() || link.b < 0 ||
              link.b >= graph_.num_nodes())
            throw std::invalid_argument(
                "serve::Server: link node id out of range");
          // The shared frontier layer only holds unmasked traversals; a
          // candidate that is an existing edge masks it out of both BFS
          // runs, so its frontiers are link-specific and bypass the cache.
          const bool unmasked = graph_.find_edge(link.a, link.b) < 0;
          if (options_.endpoint_cache && unmasked) {
            if (!source_seeded) {
              seed(link.a);
              source_seeded = true;
            }
            seed(link.b);
          }
          auto sub = graph::extract_enclosing_subgraph(graph_, link.a, link.b,
                                                       extract_opts);
          const auto sample = seal::build_sample(graph_, sub, link.label,
                                                 ds.features, row_cache);
          predictor_.frozen().predict_proba(sample, worker.arena,
                                            rows.data() + k * c);
          hulls[static_cast<std::size_t>(k)] = std::move(sub.hull);
          if (options_.endpoint_cache && unmasked) {
            publish(link.a);
            publish(link.b);
          }
        } catch (...) {
          errors.capture(item.first_input);
          return;  // abort this group; the request fails after the join
        }
      }
    };
    pool_->run("serve::score_batch", static_cast<std::int64_t>(groups.size()),
               fn);
  }
  errors.rethrow("serve::score_batch");

  // ---- Admit, fan out, count (serial; the pool has joined) ---------------
  if (options_.score_cache) {
    const std::uint64_t generation = graph_.generation();
    for (const auto k : miss) {
      Impl::ScoreEntry entry;
      entry.proba.assign(rows.begin() + k * c, rows.begin() + (k + 1) * c);
      entry.hull = std::move(hulls[static_cast<std::size_t>(k)]);
      entry.generation = generation;
      impl_->scores.insert(
          pair_key(distinct[static_cast<std::size_t>(k)].link.a,
                   distinct[static_cast<std::size_t>(k)].link.b),
          std::move(entry));
    }
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = dup_of[static_cast<std::size_t>(i)];
    std::copy(rows.begin() + k * c, rows.begin() + (k + 1) * c,
              result.proba.begin() + i * c);
  }
  result.labels = metrics::argmax_rows(result.proba, c);

  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests += 1;
    stats_.links += n;
    stats_.deduped += deduped;
    stats_.scored += static_cast<std::int64_t>(miss.size());
    stats_.score_hits += score_hits;
    stats_.score_misses += score_misses;
    stats_.score_invalidated += score_invalidated;
    stats_.score_evictions = impl_->scores.evictions();
    {
      const std::lock_guard<std::mutex> frontier_lock(impl_->frontier_mu);
      stats_.endpoint_hits = impl_->endpoint_hits;
      stats_.endpoint_misses = impl_->endpoint_misses;
      stats_.endpoint_invalidated = impl_->endpoint_invalidated;
      stats_.endpoint_evictions = impl_->frontiers.evictions();
    }
    std::int64_t row_hits = 0, row_misses = 0;
    for (const auto& worker : impl_->workers) {
      row_hits += worker->rows.stats().hits;    // safe: the pool has joined
      row_misses += worker->rows.stats().misses;
    }
    stats_.row_hits = row_hits;
    stats_.row_misses = row_misses;
  }
  return result;
}

}  // namespace amdgcnn::serve
