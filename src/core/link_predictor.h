// Batched link-classification inference (DESIGN.md §2.4).
//
// LinkPredictor freezes a trained model once and answers candidate-link
// queries through a per-link pipeline: enclosing-subgraph extraction -> DRNL
// labelling -> feature tensors -> arena-allocated frozen forward.  Each link
// runs all four stages back to back on one worker (the sample tensors are
// still cache-hot when the forward reads them, and nothing is materialised
// batch-wide), and links are independent, so the batch runs on
// util::parallel_for with the same deterministic pattern as
// seal::build_samples: probabilities are bit-identical for ANY worker count,
// including the serial path.  Scores are not cached here: repeated queries
// against a mutating graph go through serve::Server, whose hull-validated
// score LRU is the project's one score cache (DESIGN.md §2.5).
#pragma once

#include <cstdint>
#include <vector>

#include "infer/frozen_model.h"
#include "seal/dataset.h"

namespace amdgcnn::core {

struct LinkPredictions {
  /// Row-major [links.size(), num_classes] class probabilities.
  std::vector<double> proba;
  /// Argmax class per link.
  std::vector<std::int32_t> labels;
  std::int64_t num_classes = 0;
};

class LinkPredictor {
 public:
  struct Options {
    /// Extraction / DRNL / feature options plus the worker count, exactly as
    /// used to build the training dataset (the features MUST match what the
    /// model was trained on).  num_threads: 0 = serial, >= 1 = that many
    /// util::parallel_for workers.  Frontier reuse across links sharing an
    /// endpoint (graph::ExtractOptions::reuse_frontiers) is always switched
    /// on: extraction bytes are unchanged, only time.
    seal::SealDatasetOptions dataset;
    /// Warm-up hints: when > 0, the constructor runs one synthetic forward
    /// of this size so the serial arena is right-sized before the first real
    /// query.  Worker arenas warm up on their first query instead.
    std::int64_t warm_nodes = 0;
    std::int64_t warm_edges = 0;
    /// Quantize-on-freeze scheme (DESIGN.md §2.7).  kNone keeps the exact
    /// bit-identical forward; kF16 / kQ8 shrink the resident weights and run
    /// the relaxed-numerics f32 forward — still deterministic for any worker
    /// count, but not bit-identical to the exact path.
    ag::quant::Scheme quantize = ag::quant::Scheme::kNone;
  };

  /// Snapshots `model`'s parameters (shared storage; the model may be
  /// dropped afterwards).
  LinkPredictor(const models::LinkGNN& model, Options options);

  /// Classify a batch of candidate links against `g`.
  LinkPredictions predict_links(
      const graph::KnowledgeGraph& g,
      const std::vector<seal::LinkExample>& links) const;

  /// Logits / probabilities for one prebuilt sample, widened to double into
  /// `out[num_classes]`.  Logits are bit-identical to the training forward.
  void forward_logits(const seal::SubgraphSample& sample, double* out) const;
  void predict_proba_sample(const seal::SubgraphSample& sample,
                            double* out) const;

  /// High-water mark of the serial/single-sample arena (worker arenas are
  /// thread-local and not aggregated here).
  std::size_t arena_peak_bytes() const { return arena_.peak_bytes(); }

  /// Resident weight bytes of the frozen model (quantized payload when
  /// Options::quantize is active).
  std::size_t weight_bytes() const { return frozen_.weight_bytes(); }

  const models::ModelConfig& config() const { return frozen_.config(); }
  const Options& options() const { return options_; }

  /// The frozen forward engine, for callers that manage their own arenas
  /// (the serving runtime gives every pool worker a warm one).  Logits /
  /// probabilities through this handle are exactly the ones predict_links
  /// produces — same kernels, same accumulation order.
  const infer::FrozenModel& frozen() const { return frozen_; }

 private:
  infer::FrozenModel frozen_;
  Options options_;
  mutable infer::Arena arena_;  // serial path + single-sample helpers
};

}  // namespace amdgcnn::core
