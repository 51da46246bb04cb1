// Topological feature extraction for node pairs — the "heuristics as
// features for a classifier" methodology of the paper's related work
// (§VI-A: Katragadda et al. use CN / Adamic-Adar / Jaccard / preferential
// attachment with a decision tree; Vasavada & Wang add degrees and PageRank
// with logistic-regression / neural classifiers).
#pragma once

#include <string>
#include <vector>

#include "graph/knowledge_graph.h"

namespace amdgcnn::heuristics {

/// Names of the extracted features, aligned with pair_features() output.
const std::vector<std::string>& pair_feature_names();

/// Feature vector for the node pair (u, v):
///   common neighbors, Jaccard, Adamic-Adar, preferential attachment,
///   deg(u), deg(v), shortest-path distance (capped; target edge masked),
///   truncated Katz index.
std::vector<double> pair_features(const graph::KnowledgeGraph& g,
                                  graph::NodeId u, graph::NodeId v);

/// Row-major feature matrix for many pairs, computed on every hardware
/// thread.  A failing pair (e.g. a node out of range) surfaces as
/// util::WorkerError naming the lowest failing pair index.
std::vector<double> pair_feature_matrix(
    const graph::KnowledgeGraph& g,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs);

/// Column-wise standardisation parameters learned on a training matrix.
struct FeatureScaler {
  std::vector<double> mean;
  std::vector<double> stddev;  // >= epsilon

  /// Learn mean/stddev from a row-major [n, d] matrix.
  static FeatureScaler fit(const std::vector<double>& x, std::size_t dims);
  /// Standardise in place.
  void apply(std::vector<double>& x) const;
};

}  // namespace amdgcnn::heuristics
