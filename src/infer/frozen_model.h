// Frozen-model forward pass for DGCNN / AM-DGCNN (DESIGN.md §2.4).
//
// A FrozenModel snapshots the parameters of a trained LinkGNN (shared
// storage, no copies) and evaluates the exact training forward pass —
// message passing (GCN or edge-attribute GAT) → tanh → column concat →
// SortPooling → conv1d/maxpool read-out → MLP — without constructing a
// single autograd node: every activation is a raw slice of a caller-provided
// Arena, and all order-sensitive math runs through the same fwd_kernels.h
// instantiations the autograd ops use.  The contract, asserted by
// tests/test_infer.cpp and the inference bench, is that the logits are
// BIT-IDENTICAL to `model.forward(sample, rng)` in eval mode, for both model
// kinds and both storage dtypes.
//
// Parameters are recovered positionally from Module::parameters(), whose
// order is fully determined by the ModelConfig (the same contract the
// checkpoint format relies on); shapes and dtype are validated up front with
// named errors, so a model/config mismatch fails at construction, not with a
// garbage forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "infer/arena.h"
#include "models/link_gnn.h"
#include "tensor/quant.h"

namespace amdgcnn::infer {

class FrozenModel {
 public:
  /// Snapshot `model`'s parameters (storage shared, nothing copied).  The
  /// model may be dropped afterwards; tensor handles keep the weights alive.
  /// Throws std::runtime_error if the parameter list does not match the
  /// model's config (count, per-tensor shape, dtype).
  ///
  /// Quantize-on-freeze (DESIGN.md §2.7): with `scheme` kF16 or kQ8 every
  /// weight is re-encoded and the f32/f64 original RELEASED, so the resident
  /// footprint is the quantized payload.  The forward then decodes each
  /// weight into arena scratch inside its stage's mark/rewind scope and runs
  /// the exact f32 kernels: the logits equal, bit for bit, the exact f32
  /// forward of a model whose parameters are the decoded values.
  explicit FrozenModel(const models::LinkGNN& model,
                       ag::quant::Scheme scheme = ag::quant::Scheme::kNone);

  /// Eval-mode logits for one sample, widened to double into
  /// `out[num_classes]`.  Bit-identical to the training forward pass.
  void forward_logits(const seal::SubgraphSample& sample, Arena& arena,
                      double* out) const;

  /// Softmax probabilities (f64 normaliser, matching Trainer::predict_proba)
  /// into `out[num_classes]`.
  void predict_proba(const seal::SubgraphSample& sample, Arena& arena,
                     double* out) const;

  /// Run one synthetic max-shape forward to size `arena` up front, then
  /// reset (coalescing), so real queries of up to `max_nodes` nodes and
  /// `max_edges` directed edges never grow the arena mid-pass.
  void warm_up(Arena& arena, std::int64_t max_nodes,
               std::int64_t max_edges) const;

  const models::ModelConfig& config() const { return config_; }

  /// Active quantization scheme (kNone = the trained weights, no decode).
  ag::quant::Scheme quant() const { return quant_; }

  /// Bytes of resident weight storage: the raw tensor payload for the exact
  /// modes, the quantized payload (values + block scales) after
  /// quantize-on-freeze.  The ≥4x shrink gate in bench_inference_throughput
  /// measures this together with the checkpoint size.
  std::size_t weight_bytes() const { return weight_bytes_; }

 private:
  /// One frozen weight: the exact tensor, or after quantize-on-freeze only
  /// its quantized payload (the exact handle is released).
  struct Weight {
    ag::Tensor exact;
    ag::quant::QuantizedTensor quant;
  };

  struct MpLayer {
    Weight weight, bias;
    Weight a_src, a_dst, edge_weight, a_edge;  // GAT only
    std::int64_t in = 0;
    std::int64_t out = 0;    // output width (H*F for GAT)
    std::int64_t heads = 1;  // GAT only
  };

  /// The values of `w` at width T: the exact tensor's storage, or its
  /// payload decoded into `arena` scratch that lives until the caller's
  /// stage rewinds.
  template <typename T>
  static const T* read(const Weight& w, Arena& arena);

  /// Throws std::invalid_argument unless the sample's shapes match the
  /// config and every edge index lies in [0, num_nodes).
  void validate(const seal::SubgraphSample& sample) const;

  template <typename T>
  void run(const seal::SubgraphSample& sample, Arena& arena, bool proba,
           double* out) const;
  template <typename T>
  const T* forward_impl(const seal::SubgraphSample& sample,
                        Arena& arena) const;

  models::ModelConfig config_;
  std::int64_t edge_dim_ = 0;         // 0 = attention ignores edge attrs
  std::int64_t total_channels_ = 0;   // columns entering SortPooling
  std::int64_t conv_out_len_ = 0;     // length after the conv read-out
  std::vector<MpLayer> mp_;
  Weight conv1_w_, conv1_b_, conv2_w_, conv2_b_;
  Weight fc1_w_, fc1_b_, fc2_w_, fc2_b_;

  ag::quant::Scheme quant_ = ag::quant::Scheme::kNone;
  std::size_t weight_bytes_ = 0;
};

}  // namespace amdgcnn::infer
