#include "seal/feature_builder.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "seal/drnl.h"

namespace amdgcnn::seal {

std::int64_t node_feature_dim(const graph::KnowledgeGraph& g,
                              const FeatureOptions& options) {
  std::int64_t f = 0;
  if (options.use_drnl) f += options.max_drnl_label + 1;
  if (options.use_node_type) f += g.num_node_types();
  if (options.use_explicit) f += g.node_feat_dim();
  f += options.embedding_dim;
  return f;
}

namespace {

// Tensor construction at the requested storage width (FeatureOptions::dtype).
// Filled directly into a vector<T> — no f64 staging pass — so building an
// f32 dataset costs less memory traffic than f64, not more.  One-hot
// indicators and the graph's feature/attribute values are narrowed per
// element (exact for one-hots; bit-rounded for explicit values, matching
// what ops::cast at the model boundary would produce).
template <typename T>
void fill_sample_tensors(const graph::KnowledgeGraph& g,
                         const graph::EnclosingSubgraph& sub,
                         const FeatureOptions& options, std::int64_t n,
                         std::int64_t f, SubgraphSample& sample) {
  // ---- Node features -------------------------------------------------------
  const auto labels = drnl_labels(sub);
  std::vector<T> feat(static_cast<std::size_t>(n * f), T(0));
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t off = 0;
    if (options.use_drnl) {
      const std::int64_t l =
          std::min<std::int64_t>(labels[i], options.max_drnl_label);
      feat[i * f + off + l] = T(1);
      off += options.max_drnl_label + 1;
    }
    if (options.use_node_type) {
      feat[i * f + off + g.node_type(sub.nodes[i])] = T(1);
      off += g.num_node_types();
    }
    if (options.use_explicit && g.node_feat_dim() > 0) {
      auto nf = g.node_features(sub.nodes[i]);
      std::transform(nf.begin(), nf.end(), feat.begin() + i * f + off,
                     [](double v) { return static_cast<T>(v); });
      off += g.node_feat_dim();
    } else if (options.use_explicit) {
      // no explicit features on this graph: contributes zero width
    }
    if (options.embedding_dim > 0) {
      const auto* row = options.embedding.data() +
                        static_cast<std::size_t>(sub.nodes[i]) *
                            options.embedding_dim;
      std::transform(row, row + options.embedding_dim,
                     feat.begin() + i * f + off,
                     [](double v) { return static_cast<T>(v); });
    }
  }
  sample.node_feat = ag::Tensor::from_data({n, f}, std::move(feat));

  // ---- Directed edge arrays + edge attributes ------------------------------
  const std::int64_t e2 = 2 * static_cast<std::int64_t>(sub.edges.size());
  sample.src.reserve(static_cast<std::size_t>(e2));
  sample.dst.reserve(static_cast<std::size_t>(e2));
  const std::int64_t ed = g.edge_attr_dim();
  std::vector<T> eattr;
  if (ed > 0) eattr.reserve(static_cast<std::size_t>(e2 * ed));
  for (const auto& le : sub.edges) {
    std::span<const double> attr;
    if (ed > 0) attr = g.edge_attr(le.orig);
    for (int orient = 0; orient < 2; ++orient) {
      sample.src.push_back(orient == 0 ? le.src : le.dst);
      sample.dst.push_back(orient == 0 ? le.dst : le.src);
      for (const double v : attr) eattr.push_back(static_cast<T>(v));
    }
  }
  if (ed > 0)
    sample.edge_attr = ag::Tensor::from_data({e2, ed}, std::move(eattr));
}

}  // namespace

SubgraphSample build_sample(const graph::KnowledgeGraph& g,
                            const graph::EnclosingSubgraph& sub,
                            std::int32_t label, const FeatureOptions& options) {
  if (options.max_drnl_label < 1)
    throw std::invalid_argument("build_sample: max_drnl_label must be >= 1");
  if (options.embedding_dim > 0 &&
      options.embedding.size() !=
          static_cast<std::size_t>(g.num_nodes() * options.embedding_dim))
    throw std::invalid_argument("build_sample: embedding table size mismatch");

  const std::int64_t n = sub.num_nodes();
  const std::int64_t f = node_feature_dim(g, options);
  if (f == 0)
    throw std::invalid_argument("build_sample: empty feature configuration");

  // The fill reads one node type per kept node and one edge record per
  // induced edge, scattered over O(N) and O(E) graph arrays: hint them all
  // first, so their cache misses overlap instead of queueing behind the
  // fill.
  if (options.use_node_type)
    for (const graph::NodeId v : sub.nodes) g.prefetch_node_type(v);
  if (g.edge_attr_dim() > 0)
    for (const auto& le : sub.edges) g.prefetch_edge(le.orig);

  SubgraphSample sample;
  sample.num_nodes = n;
  sample.label = label;
  if (options.dtype == ag::Dtype::f32)
    fill_sample_tensors<float>(g, sub, options, n, f, sample);
  else
    fill_sample_tensors<double>(g, sub, options, n, f, sample);
  return sample;
}

}  // namespace amdgcnn::seal
