#include "heuristics/pair_features.h"

#include <cmath>
#include <stdexcept>

#include "graph/traversal.h"
#include "heuristics/katz.h"
#include "heuristics/local_scores.h"
#include "util/worker_pool.h"

namespace amdgcnn::heuristics {

const std::vector<std::string>& pair_feature_names() {
  static const std::vector<std::string> names = {
      "common_neighbors", "jaccard",    "adamic_adar", "pref_attachment",
      "degree_u",         "degree_v",   "sp_distance", "katz",
  };
  return names;
}

std::vector<double> pair_features(const graph::KnowledgeGraph& g,
                                  graph::NodeId u, graph::NodeId v) {
  graph::BfsOptions bfs;
  bfs.masked_edge = g.find_edge(u, v);  // never leak the target link
  bfs.max_depth = 6;
  const auto d = graph::shortest_path_length(g, u, v, bfs);
  const double dist = d == graph::kUnreachable ? 8.0 : static_cast<double>(d);

  KatzOptions katz_opts;
  katz_opts.max_length = 3;

  return {
      common_neighbors(g, u, v),
      jaccard(g, u, v),
      adamic_adar(g, u, v),
      preferential_attachment(g, u, v),
      static_cast<double>(g.degree(u)),
      static_cast<double>(g.degree(v)),
      dist,
      katz_index(g, u, v, katz_opts),
  };
}

std::vector<double> pair_feature_matrix(
    const graph::KnowledgeGraph& g,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs) {
  const std::size_t dims = pair_feature_names().size();
  std::vector<double> x(pairs.size() * dims);
  util::parallel_for(
      "pair_feature_matrix", util::hardware_threads(),
      static_cast<std::int64_t>(pairs.size()), [&](std::int64_t i) {
        const auto f = pair_features(g, pairs[i].first, pairs[i].second);
        std::copy(f.begin(), f.end(),
                  x.begin() + i * static_cast<std::int64_t>(dims));
      });
  return x;
}

FeatureScaler FeatureScaler::fit(const std::vector<double>& x,
                                 std::size_t dims) {
  if (dims == 0 || x.size() % dims != 0 || x.empty())
    throw std::invalid_argument("FeatureScaler::fit: bad matrix shape");
  const std::size_t n = x.size() / dims;
  FeatureScaler scaler;
  scaler.mean.assign(dims, 0.0);
  scaler.stddev.assign(dims, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < dims; ++c) scaler.mean[c] += x[r * dims + c];
  for (auto& m : scaler.mean) m /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < dims; ++c) {
      const double d = x[r * dims + c] - scaler.mean[c];
      scaler.stddev[c] += d * d;
    }
  for (auto& s : scaler.stddev)
    s = std::max(1e-9, std::sqrt(s / static_cast<double>(n)));
  return scaler;
}

void FeatureScaler::apply(std::vector<double>& x) const {
  const std::size_t dims = mean.size();
  if (dims == 0 || x.size() % dims != 0)
    throw std::invalid_argument("FeatureScaler::apply: bad matrix shape");
  const std::size_t n = x.size() / dims;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < dims; ++c)
      x[r * dims + c] = (x[r * dims + c] - mean[c]) / stddev[c];
}

}  // namespace amdgcnn::heuristics
