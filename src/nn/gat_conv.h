// Graph Attention layer (Velickovic et al. 2018) extended with edge
// attributes — the message-passing layer of AM-DGCNN (paper §III-C).
//
// For a directed edge (j -> i) with attribute vector f_ji, per head h:
//
//   e_ji  = LeakyReLU( a_src^h . (W x_j)^h + a_dst^h . (W x_i)^h
//                      + a_edge^h . (W_e f_ji)^h )
//   alpha = softmax over incoming edges of i          (segment softmax)
//   out_i = sum_j alpha_ji * ( (W x_j)^h + (W_e f_ji)^h )   [heads concat]
//
// The edge projection W_e enters BOTH the attention logits and the message
// payload, so link information reaches the node embeddings — the paper's
// core claim about why GAT fixes DGCNN for knowledge graphs.  Self-loops are
// added with a zero attribute vector.  With edge_attr_dim == 0 the layer
// degenerates to standard multi-head GAT.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace amdgcnn::nn {

class GATConv final : public Module {
 public:
  /// Output width is heads * head_features (heads concatenated).
  GATConv(std::int64_t in_features, std::int64_t head_features,
          std::int64_t heads, std::int64_t edge_attr_dim, util::Rng& rng,
          double negative_slope = 0.2, ag::Dtype dtype = ag::Dtype::f64);

  /// x: [n, in]; (src, dst) directed edges WITHOUT self-loops; edge_attr is
  /// [E, edge_attr_dim] aligned with (src, dst) (undefined when the layer
  /// was built with edge_attr_dim == 0; data, never requiring grad).
  /// Returns the pre-activation [n, heads*head_features] as one tape node
  /// (ops::gat_conv).
  ag::Tensor forward(const ag::Tensor& x, const std::vector<std::int64_t>& src,
                     const std::vector<std::int64_t>& dst,
                     const ag::Tensor& edge_attr,
                     std::int64_t num_nodes) const;

  std::int64_t out_features() const { return heads_ * head_features_; }
  std::int64_t heads() const { return heads_; }
  std::int64_t edge_attr_dim() const { return edge_dim_; }

 private:
  std::int64_t in_, head_features_, heads_, edge_dim_;
  double negative_slope_;
  ag::ops::GatParams params_;  // storage precision set by the ctor's dtype
};

}  // namespace amdgcnn::nn
