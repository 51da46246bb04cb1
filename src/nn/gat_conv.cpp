#include "nn/gat_conv.h"

namespace amdgcnn::nn {

GATConv::GATConv(std::int64_t in_features, std::int64_t head_features,
                 std::int64_t heads, std::int64_t edge_attr_dim,
                 util::Rng& rng, double negative_slope, ag::Dtype dtype)
    : in_(in_features),
      head_features_(head_features),
      heads_(heads),
      edge_dim_(edge_attr_dim),
      negative_slope_(negative_slope) {
  ag::check(in_features > 0 && head_features > 0 && heads > 0,
            "GATConv: sizes must be positive");
  ag::check(edge_attr_dim >= 0, "GATConv: negative edge_attr_dim");
  const std::int64_t hf = heads_ * head_features_;
  params_.w = register_parameter(ag::Tensor::xavier(in_, hf, rng, dtype));
  params_.a_src = register_parameter(ag::Tensor::xavier(1, hf, rng, dtype));
  params_.a_dst = register_parameter(ag::Tensor::xavier(1, hf, rng, dtype));
  if (edge_dim_ > 0) {
    params_.w_e =
        register_parameter(ag::Tensor::xavier(edge_dim_, hf, rng, dtype));
    params_.a_edge = register_parameter(ag::Tensor::xavier(1, hf, rng, dtype));
  }
  params_.bias = register_parameter(ag::Tensor::zeros({1, hf}, dtype));
}

ag::Tensor GATConv::forward(const ag::Tensor& x,
                            const std::vector<std::int64_t>& src,
                            const std::vector<std::int64_t>& dst,
                            const ag::Tensor& edge_attr,
                            std::int64_t num_nodes) const {
  ag::check(x.rank() == 2 && x.dim(0) == num_nodes,
            "GATConv: node feature shape mismatch");
  return ag::ops::gat_conv(x, src, dst, edge_attr, params_, heads_,
                           negative_slope_);
}

}  // namespace amdgcnn::nn
