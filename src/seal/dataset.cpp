#include "seal/dataset.h"

#include <stdexcept>

#include "util/worker_pool.h"

namespace amdgcnn::seal {

double SealDataset::mean_subgraph_nodes() const {
  const std::size_t total = train.size() + test.size();
  if (total == 0) return 0.0;
  double sum = 0.0;
  for (const auto& s : train) sum += static_cast<double>(s.num_nodes);
  for (const auto& s : test) sum += static_cast<double>(s.num_nodes);
  return sum / static_cast<double>(total);
}

std::int64_t default_build_threads() { return util::hardware_threads(); }

SubgraphSample make_sample(const graph::KnowledgeGraph& g,
                           const LinkExample& link,
                           const SealDatasetOptions& options) {
  const auto sub =
      graph::extract_enclosing_subgraph(g, link.a, link.b, options.extract);
  return build_sample(g, sub, link.label, options.features);
}

std::vector<SubgraphSample> build_samples(
    const graph::KnowledgeGraph& g, const std::vector<LinkExample>& links,
    const SealDatasetOptions& options) {
  if (options.num_threads < 0)
    throw std::invalid_argument("build_samples: num_threads must be >= 0");
  std::vector<SubgraphSample> out(links.size());
  // Links are claimed dynamically, but each sample lands in its pre-sized
  // slot and depends only on its link, so the result is bit-identical for
  // any worker count.  Per-worker BFS scratch lives in thread-local pools
  // inside extract_enclosing_subgraph; feature tensors allocate from each
  // worker's own tensor pool.
  util::parallel_for("build_samples", options.num_threads,
                     static_cast<std::int64_t>(links.size()),
                     [&](std::int64_t i) {
                       out[i] = make_sample(g, links[i], options);
                     });
  return out;
}

SealDataset build_seal_dataset(const graph::KnowledgeGraph& g,
                               const std::vector<LinkExample>& train_links,
                               const std::vector<LinkExample>& test_links,
                               std::int64_t num_classes,
                               const SealDatasetOptions& options) {
  if (num_classes < 2)
    throw std::invalid_argument("build_seal_dataset: need >= 2 classes");
  for (const auto* links : {&train_links, &test_links})
    for (const auto& l : *links)
      if (l.label < 0 || l.label >= num_classes)
        throw std::invalid_argument("build_seal_dataset: label out of range");

  SealDataset ds;
  ds.num_classes = num_classes;
  ds.node_feature_dim = node_feature_dim(g, options.features);
  ds.edge_attr_dim = g.edge_attr_dim();
  ds.train = build_samples(g, train_links, options);
  ds.test = build_samples(g, test_links, options);
  return ds;
}

}  // namespace amdgcnn::seal
