// Two references for one edge-attribute GAT layer (paper §III-C), which the
// fused ops::gat_conv must equal bit for bit (tests/test_gat_conv_op.cpp):
//   * gat_conv_reference, the layer as a chain of per-op tape nodes: matmul
//     → gather_rows → heads_dot → add → leaky_relu → segment_softmax →
//     heads_scale → scatter_add_bias.  This was nn::GATConv's body before
//     ops::gat_conv fused the layer into one node; it checks the forward
//     and every gradient;
//   * gat_forward_reference, the forward as plain scalar loops with every
//     rounding step written out, one output at a time.  The shared kernels
//     (kern::mm_add, fwd::heads_dot_fwd, fwd::segment_softmax_fwd and the
//     layer's own passes) run vectors across rows, heads and features; this
//     oracle checks that each output keeps its own sequence of roundings.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "conv_reference.h"
#include "matmul_reference.h"
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

/// Per-head dot of row x[hf] with a[hf] as heads_dot_fwd rounds it: 8 f64
/// lane sums, each a fused chain from +0 over the head's whole 8-feature
/// steps; +0.0 plus the lanes in lane order; a step per remaining feature,
/// with the product rounded before the add in the tail's whole pairs and
/// fused at the last step of an odd tail; one rounding to T.  (At f32 every
/// f64 product is exact, so only f64 sees the tail rule.)
template <typename T>
T heads_dot_reference(const T* x, const T* a, std::int64_t f) {
  using conv_ref_detail::fused;
  using conv_ref_detail::mul_then_add;
  double lanes[8] = {};
  std::int64_t c = 0;
  for (; c + 8 <= f; c += 8)
    for (int l = 0; l < 8; ++l)
      lanes[l] = fused(static_cast<double>(x[c + l]),
                       static_cast<double>(a[c + l]), lanes[l]);
  double acc = 0.0;
  for (int l = 0; l < 8; ++l) acc = acc + lanes[l];
  for (; c < f; ++c) {
    const double xc = static_cast<double>(x[c]), ac = static_cast<double>(a[c]);
    acc = c < f - f % 2 ? mul_then_add(xc, ac, acc) : fused(xc, ac, acc);
  }
  return static_cast<T>(acc);
}

/// Scalar forward of the fused layer, pre-activation [n, hf].  eattr is
/// [e_in, edge_dim] at width T (nullptr and edge_dim 0 without edge
/// attributes); the self-loops are appended here.
template <typename T>
std::vector<T> gat_forward_reference(
    const T* x, const T* eattr, const std::vector<std::int64_t>& src,
    const std::vector<std::int64_t>& dst, std::int64_t n, std::int64_t in,
    std::int64_t hf, std::int64_t heads, std::int64_t edge_dim, const T* w,
    const T* a_src, const T* a_dst, const T* w_e, const T* a_edge,
    const T* bias, T slope) {
  using conv_ref_detail::mul_then_add;
  const auto e_in = static_cast<std::int64_t>(src.size());
  const std::int64_t e_all = e_in + n, f = hf / heads;
  std::vector<std::int64_t> s(src), d(dst);
  for (std::int64_t i = 0; i < n; ++i) {
    s.push_back(i);
    d.push_back(i);
  }
  std::vector<T> xw(static_cast<std::size_t>(n * hf), T(0));
  mm_add_reference(x, w, xw.data(), n, in, hf);
  std::vector<T> ea(static_cast<std::size_t>(e_in * hf), T(0));
  if (edge_dim > 0) mm_add_reference(eattr, w_e, ea.data(), e_in, edge_dim, hf);

  // Logits: (src dot + dst dot), then + the edge dot (+0 on self-loops)
  // when the layer has edge attributes; LeakyReLU.
  std::vector<T> act(static_cast<std::size_t>(e_all * heads));
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t h = 0; h < heads; ++h) {
      T sc = heads_dot_reference(&xw[s[r] * hf + h * f], a_src + h * f, f) +
             heads_dot_reference(&xw[d[r] * hf + h * f], a_dst + h * f, f);
      if (edge_dim > 0)
        sc = sc + (r < e_in ? heads_dot_reference(&ea[r * hf + h * f],
                                                  a_edge + h * f, f)
                            : T(0));
      act[r * heads + h] = sc > T(0) ? sc : slope * sc;
    }

  // Segment softmax over destinations, per element in edge order.
  std::vector<T> seg_max(static_cast<std::size_t>(n * heads),
                         -std::numeric_limits<T>::infinity());
  std::vector<double> seg_sum(static_cast<std::size_t>(n * heads), 0.0);
  std::vector<T> alpha(act.size());
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t h = 0; h < heads; ++h)
      seg_max[d[r] * heads + h] =
          std::max(seg_max[d[r] * heads + h], act[r * heads + h]);
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t h = 0; h < heads; ++h) {
      const T z = act[r * heads + h] - seg_max[d[r] * heads + h];
      alpha[r * heads + h] = std::exp(z);
      seg_sum[d[r] * heads + h] += static_cast<double>(alpha[r * heads + h]);
    }
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t h = 0; h < heads; ++h)
      alpha[r * heads + h] =
          static_cast<T>(static_cast<double>(alpha[r * heads + h]) /
                         seg_sum[d[r] * heads + h]);

  // Bias, then each message's rounded product added in edge order.
  std::vector<T> out(static_cast<std::size_t>(n * hf));
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t c = 0; c < hf; ++c) out[i * hf + c] = bias[c];
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t c = 0; c < hf; ++c) {
      T payload = xw[s[r] * hf + c];
      if (edge_dim > 0) payload = payload + (r < e_in ? ea[r * hf + c] : T(0));
      out[d[r] * hf + c] = mul_then_add(payload, alpha[r * heads + c / f],
                                        out[d[r] * hf + c]);
    }
  return out;
}

}  // namespace amdgcnn::testing
