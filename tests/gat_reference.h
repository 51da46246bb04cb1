// Reference formulation of one edge-attribute GAT layer (paper §III-C) as a
// chain of per-op tape nodes: matmul → gather_rows → heads_dot → add →
// leaky_relu → segment_softmax → heads_scale → scatter_add_bias.  This was
// nn::GATConv's body before ops::gat_conv fused the layer into one node; the
// fused op must equal it bit for bit, forward and every gradient
// (tests/test_gat_conv_op.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace amdgcnn::testing {

/// Same contract as ag::ops::gat_conv: self-loops with zero attributes are
/// appended to (src, dst), the result is the pre-activation [n, heads*F].
inline ag::Tensor gat_conv_reference(const ag::Tensor& x,
                                     const std::vector<std::int64_t>& src,
                                     const std::vector<std::int64_t>& dst,
                                     const ag::Tensor& edge_attr,
                                     const ag::ops::GatParams& p,
                                     std::int64_t heads,
                                     double negative_slope) {
  namespace ops = ag::ops;
  const std::int64_t num_nodes = x.dim(0);
  const std::int64_t hf = p.w.dim(1);
  const auto e_in = static_cast<std::int64_t>(src.size());

  std::vector<std::int64_t> s(src), d(dst);
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    s.push_back(i);
    d.push_back(i);
  }
  const auto e_all = static_cast<std::int64_t>(s.size());

  auto xw = ops::matmul(x, p.w);      // [n, H*F]
  auto hs = ops::gather_rows(xw, s);  // [E, H*F] source payloads
  auto hd = ops::gather_rows(xw, d);  // [E, H*F]

  ag::Tensor payload = hs;
  auto scores = ops::add(ops::heads_dot(hs, p.a_src, heads),
                         ops::heads_dot(hd, p.a_dst, heads));  // [E, H]
  if (p.w_e.defined()) {
    // Real-edge attributes cast to the layer dtype; self-loop rows are zero.
    auto ea_real = ops::matmul(ops::cast(edge_attr, x.dtype()), p.w_e);
    auto ea = e_in == e_all
                  ? ea_real
                  : ops::concat_rows(
                        {ea_real,
                         ag::Tensor::zeros({e_all - e_in, hf}, x.dtype())});
    scores = ops::add(scores, ops::heads_dot(ea, p.a_edge, heads));
    payload = ops::add(payload, ea);
  }
  scores = ops::leaky_relu(scores, negative_slope);
  auto alpha = ops::segment_softmax(scores, d, num_nodes);  // [E, H]
  auto msg = ops::heads_scale(payload, alpha, heads);       // [E, H*F]
  return ops::scatter_add_bias(msg, d, num_nodes, p.bias);  // [n, H*F]
}

}  // namespace amdgcnn::testing
