// SEAL dataset assembly: turn labeled target links into ready-to-train
// subgraph samples (extract enclosing subgraph -> DRNL -> feature tensors).
//
// Samples are materialised once and shared across epochs and across the two
// models under comparison — matching the reference pipeline, where subgraph
// extraction happens in the dataset loader, not in the training loop.
//
// Per-link work is independent, so the build runs on util::parallel_for with
// the same deterministic pattern as models::Trainer (DESIGN.md §2.2): every
// sample is written into its pre-sized slot, each worker draws extraction
// scratch from its own thread-local buffer pool, and no stage depends on
// worker scheduling — the built dataset is bit-identical for ANY worker
// count, including the serial path.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "seal/feature_builder.h"
#include "seal/sampling.h"

namespace amdgcnn::seal {

struct SealDatasetOptions {
  graph::ExtractOptions extract;
  FeatureOptions features;
  /// Dataset-build workers (mirrors models::TrainConfig::num_threads).
  /// 0 = the legacy serial loop; >= 1 = util::parallel_for, links claimed
  /// dynamically by this many workers.  Outputs are bit-identical (tensor
  /// bytes, labels, DRNL vectors) for every setting; negative values are
  /// rejected.
  std::int64_t num_threads = 0;
};

struct SealDataset {
  std::vector<SubgraphSample> train;
  std::vector<SubgraphSample> test;
  std::int64_t num_classes = 0;
  std::int64_t node_feature_dim = 0;
  std::int64_t edge_attr_dim = 0;

  /// Mean subgraph node count over train+test (reported by the benches).
  double mean_subgraph_nodes() const;
};

/// Worker count for callers that just want "all hardware threads":
/// util::hardware_threads().
std::int64_t default_build_threads();

/// Convert one labeled link to a sample.
SubgraphSample make_sample(const graph::KnowledgeGraph& g,
                           const LinkExample& link,
                           const SealDatasetOptions& options);

/// Convert a whole link list, honouring options.num_threads; sample i of the
/// result always corresponds to links[i].  This is the single build path for
/// both dataset splits and for inference-time sample construction
/// (core::SealLinkClassifier).
std::vector<SubgraphSample> build_samples(
    const graph::KnowledgeGraph& g, const std::vector<LinkExample>& links,
    const SealDatasetOptions& options);

/// Build the full dataset (both splits via build_samples).
SealDataset build_seal_dataset(const graph::KnowledgeGraph& g,
                               const std::vector<LinkExample>& train_links,
                               const std::vector<LinkExample>& test_links,
                               std::int64_t num_classes,
                               const SealDatasetOptions& options);

}  // namespace amdgcnn::seal
