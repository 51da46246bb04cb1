// Node / edge attribute matrix generation (paper §III-B).
//
// The node attribute vector of each subgraph node is the concatenation of
//   (i)  a one-hot encoding of its DRNL label (clamped to max_drnl_label),
//   (ii) a one-hot encoding of its node type in the knowledge graph,
//   (iii) optionally the node's explicit feature vector, and
//   (iv) optionally a precomputed embedding (node2vec) — the paper disables
//        this for knowledge graphs and so do our dataset presets.
//
// The edge attribute matrix has one row per *directed* edge occurrence (both
// orientations of every undirected induced edge) holding the relation-type
// attribute vector from the knowledge graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "tensor/tensor.h"

namespace amdgcnn::seal {

struct FeatureOptions {
  /// DRNL labels >= max_drnl_label are clamped; one-hot width is
  /// max_drnl_label + 1 (slot 0 = unreachable).
  std::int64_t max_drnl_label = 32;
  bool use_drnl = true;        // ablation hook
  bool use_node_type = true;   // one-hot of KG node type
  bool use_explicit = true;    // KG explicit node features, when present
  /// Optional per-original-node embedding table [num_nodes x dim],
  /// row-major (node2vec).  Empty = disabled.
  std::vector<double> embedding;
  std::int64_t embedding_dim = 0;
  /// Storage precision of the produced node_feat / edge_attr tensors.  Build
  /// it to match ModelConfig::dtype so the model's boundary cast is a no-op
  /// (one-hot and copied feature values are exactly representable in f32).
  ag::Dtype dtype = ag::Dtype::f64;
};

/// Total node-feature width produced by these options on this graph.
std::int64_t node_feature_dim(const graph::KnowledgeGraph& g,
                              const FeatureOptions& options);

/// One ready-to-train SEAL sample: the enclosing subgraph converted to
/// tensors.  `src`/`dst` list each induced undirected edge in both
/// orientations; GNN layers add self-loops internally.
struct SubgraphSample {
  ag::Tensor node_feat;             // [n, F]
  std::vector<std::int64_t> src;    // directed endpoints
  std::vector<std::int64_t> dst;
  ag::Tensor edge_attr;             // [E_directed, edge_attr_dim] or undefined
  std::int64_t num_nodes = 0;
  std::int32_t label = 0;
};

/// Build the tensors for one extracted subgraph.
SubgraphSample build_sample(const graph::KnowledgeGraph& g,
                            const graph::EnclosingSubgraph& sub,
                            std::int32_t label, const FeatureOptions& options);

}  // namespace amdgcnn::seal
