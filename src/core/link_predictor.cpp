#include "core/link_predictor.h"

#include <stdexcept>

#include "metrics/classification.h"
#include "util/worker_pool.h"

namespace amdgcnn::core {

namespace {
/// One arena per worker thread, shared across LinkPredictor instances (the
/// arena is shape-agnostic and grows to the largest pass it ever serves).
infer::Arena& tls_arena() {
  thread_local infer::Arena arena;
  return arena;
}
}  // namespace

LinkPredictor::LinkPredictor(const models::LinkGNN& model, Options options)
    : frozen_(model, options.quantize), options_(std::move(options)) {
  if (options_.dataset.num_threads < 0)
    throw std::invalid_argument("LinkPredictor: num_threads must be >= 0");
  options_.dataset.extract.reuse_frontiers = true;
  if (options_.warm_nodes > 0)
    frozen_.warm_up(arena_, options_.warm_nodes, options_.warm_edges);
}

LinkPredictions LinkPredictor::predict_links(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links) const {
  const std::int64_t c = frozen_.config().num_classes;
  LinkPredictions result;
  result.num_classes = c;
  result.proba.resize(links.size() * static_cast<std::size_t>(c));

  // Each probability row lands in its pre-sized slot and depends only on its
  // link — extraction scratch comes from thread-local pools, activations
  // from the worker's own thread-local arena — so the batch is bit-identical
  // for any worker count.
  const bool serial = options_.dataset.num_threads == 0;
  util::parallel_for(
      "predict_links", options_.dataset.num_threads,
      static_cast<std::int64_t>(links.size()), [&](std::int64_t i) {
        const auto sample = seal::make_sample(g, links[i], options_.dataset);
        frozen_.predict_proba(sample, serial ? arena_ : tls_arena(),
                              result.proba.data() + i * c);
      });

  result.labels = metrics::argmax_rows(result.proba, c);
  return result;
}

void LinkPredictor::forward_logits(const seal::SubgraphSample& sample,
                                   double* out) const {
  frozen_.forward_logits(sample, arena_, out);
}

void LinkPredictor::predict_proba_sample(const seal::SubgraphSample& sample,
                                         double* out) const {
  frozen_.predict_proba(sample, arena_, out);
}

}  // namespace amdgcnn::core
