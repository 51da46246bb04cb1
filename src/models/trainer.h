// Training / evaluation loop for LinkGNN models.
//
// Mini-batching is implemented as gradient accumulation: each subgraph is a
// single-graph forward pass (subgraphs are tens of nodes, so per-sample
// passes are cheap and avoid padded batching entirely); gradients of
// `batch_size` samples are averaged before each Adam step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "metrics/classification.h"
#include "models/link_gnn.h"
#include "tensor/optim.h"

namespace amdgcnn::models {

struct TrainConfig {
  double learning_rate = 1e-3;  // paper Table I: [1e-6, 1e-2]
  std::int64_t epochs = 10;     // paper §V-D: both models peak around 10
  std::int64_t batch_size = 32;
  double grad_clip = 5.0;       // 0 disables clipping
  std::uint64_t seed = 17;
  /// Storage precision the model must be built with (ModelConfig::dtype).
  /// The Trainer validates the parameters against this at construction and
  /// allocates its per-sample gradient sinks at the same width, so flipping
  /// both switches to f32 selects single precision end-to-end.  Either
  /// dtype keeps the bit-determinism contract across num_threads.
  ag::Dtype dtype = ag::Dtype::f64;
  /// Batch-accumulation workers.  0 = the legacy serial path (bit-identical
  /// to pre-threading builds, used by the seeded regression tests).  >= 1 =
  /// the data-parallel path: samples of a batch run concurrently on this
  /// many util::parallel_for workers, each zeroing and accumulating into a
  /// private per-sample gradient sink; the same workers then reduce the
  /// sinks over element ranges, each element in sample order, and run the
  /// Adam step over element ranges, so results are bit-identical for ANY
  /// worker count (1 == N).
  std::int64_t num_threads = 0;
};

struct EvalResult {
  metrics::MulticlassEval metrics;
  double mean_loss = 0.0;
};

/// Per-epoch progress record (feeds the Fig. 3-6 epoch-sweep benches).
struct EpochRecord {
  std::int64_t epoch = 0;
  double train_loss = 0.0;
  double test_auc = 0.0;
  double test_ap = 0.0;
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(LinkGNN& model, const TrainConfig& config);

  /// One pass over `samples` (shuffled); returns mean training loss.
  double train_epoch(const std::vector<seal::SubgraphSample>& samples);

  /// Full training run; when `eval_every > 0`, evaluates on `test` after
  /// every `eval_every` epochs and records the trajectory.
  std::vector<EpochRecord> fit(
      const std::vector<seal::SubgraphSample>& train,
      const std::vector<seal::SubgraphSample>& test,
      std::int64_t eval_every = 0);

  /// Forward the whole set in eval mode; returns row-major [n, C]
  /// probabilities.
  std::vector<double> predict_proba(
      const std::vector<seal::SubgraphSample>& samples) const;

  EvalResult evaluate(const std::vector<seal::SubgraphSample>& samples) const;

  const TrainConfig& config() const { return config_; }

 private:
  double train_epoch_serial(const std::vector<seal::SubgraphSample>& samples);
  double train_epoch_parallel(
      const std::vector<seal::SubgraphSample>& samples);
  /// Body of the parallel path over the parameter scalar type (f32 or f64);
  /// the sinks, the reduction and the sink scope all run at width T.
  template <typename T>
  double train_epoch_parallel_impl(
      const std::vector<seal::SubgraphSample>& samples);

  LinkGNN& model_;
  TrainConfig config_;
  std::unique_ptr<ag::Adam> optimizer_;
  mutable util::Rng rng_;
  // Parameter handles and their slot indices for the grad-sink redirection
  // used by train_epoch_parallel.
  std::vector<ag::Tensor> params_;
  std::unordered_map<const ag::detail::TensorImpl*, std::size_t> slot_of_;
};

}  // namespace amdgcnn::models
