#include "heuristics/simrank.h"

#include <stdexcept>

#include "util/worker_pool.h"

namespace amdgcnn::heuristics {

std::vector<double> simrank(const graph::KnowledgeGraph& g,
                            const SimRankOptions& options) {
  if (options.decay <= 0.0 || options.decay >= 1.0)
    throw std::invalid_argument("simrank: decay must be in (0, 1)");
  const std::int64_t n = g.num_nodes();
  if (n > options.max_nodes)
    throw std::invalid_argument("simrank: graph exceeds max_nodes cap");
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> sim(un * un, 0.0), next(un * un, 0.0);
  for (std::size_t v = 0; v < un; ++v) sim[v * un + v] = 1.0;

  for (std::int32_t it = 0; it < options.iterations; ++it) {
    util::parallel_for("simrank", util::hardware_threads(), n,
                       [&](std::int64_t u) {
      for (std::int64_t v = u; v < n; ++v) {
        if (u == v) {
          next[static_cast<std::size_t>(u) * un + u] = 1.0;
          continue;
        }
        const auto nu = g.neighbors(static_cast<graph::NodeId>(u));
        const auto nv = g.neighbors(static_cast<graph::NodeId>(v));
        double s = 0.0;
        if (!nu.empty() && !nv.empty()) {
          for (const auto& a : nu)
            for (const auto& b : nv)
              s += sim[static_cast<std::size_t>(a.node) * un +
                       static_cast<std::size_t>(b.node)];
          s *= options.decay /
               (static_cast<double>(nu.size()) * static_cast<double>(nv.size()));
        }
        next[static_cast<std::size_t>(u) * un + static_cast<std::size_t>(v)] =
            s;
        next[static_cast<std::size_t>(v) * un + static_cast<std::size_t>(u)] =
            s;
      }
    });
    std::swap(sim, next);
  }
  return sim;
}

double simrank_score(const graph::KnowledgeGraph& g, graph::NodeId u,
                     graph::NodeId v, const SimRankOptions& options) {
  const auto sim = simrank(g, options);
  return sim[static_cast<std::size_t>(u) *
                 static_cast<std::size_t>(g.num_nodes()) +
             static_cast<std::size_t>(v)];
}

}  // namespace amdgcnn::heuristics
