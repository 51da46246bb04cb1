// Dtype-generic segment/scatter ops used by the GNN message passing.  The
// scatter adds run at native width in fixed row order (deterministic for
// either dtype); the segment-softmax normalisers accumulate in f64 per the
// dtype policy (DESIGN.md §2.3).
#include "tensor/segment_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "tensor/bwd_kernels.h"
#include "tensor/fwd_kernels.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace amdgcnn::ag::ops {

namespace {

#define AG_DISPATCH(dt, fn, ...) \
  ((dt) == Dtype::f32 ? fn<float>(__VA_ARGS__) : fn<double>(__VA_ARGS__))

template <typename T>
Tensor scatter_add_rows_impl(const Tensor& src,
                             const std::vector<std::int64_t>& index,
                             std::int64_t num_rows) {
  const std::int64_t m = src.dim(1);
  const auto& sv = src.data_as<T>();
  std::vector<T> out =
      detail::new_zeroed_t<T>(static_cast<std::size_t>(num_rows * m));
  for (std::size_t r = 0; r < index.size(); ++r)
    for (std::int64_t c = 0; c < m; ++c)
      out[index[r] * m + c] += sv[r * m + c];
  return Tensor::make_op_result(
      {num_rows, m}, std::move(out), {src},
      [src, index, m](detail::TensorImpl& self) {
        if (!src.requires_grad()) return;
        const auto& sg = self.grad_as<T>();
        auto& g = detail::grad_of<T>(*src.impl());
        for (std::size_t r = 0; r < index.size(); ++r)
          for (std::int64_t c = 0; c < m; ++c)
            g[r * m + c] += sg[index[r] * m + c];
      });
}

template <typename T>
Tensor scatter_add_bias_impl(const Tensor& src,
                             const std::vector<std::int64_t>& index,
                             std::int64_t num_rows, const Tensor& bias) {
  const std::int64_t m = src.dim(1);
  const auto& sv = src.data_as<T>();
  const T* bv = bias.data_as<T>().data();
  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(num_rows * m));
  fwd::scatter_add_bias_fwd(sv.data(), index.data(),
                            static_cast<std::int64_t>(index.size()), num_rows,
                            m, bv, out.data());
  return Tensor::make_op_result(
      {num_rows, m}, std::move(out), {src, bias},
      [src, bias, index, num_rows, m](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        if (src.requires_grad()) {
          auto& g = detail::grad_of<T>(*src.impl());
          for (std::size_t r = 0; r < index.size(); ++r)
            for (std::int64_t c = 0; c < m; ++c)
              g[r * m + c] += sg[index[r] * m + c];
        }
        if (bias.requires_grad())
          kern::col_sum_add(sg.data(), detail::grad_of<T>(*bias.impl()).data(),
                            num_rows, m);
      });
}

template <typename T>
Tensor segment_softmax_impl(const Tensor& scores,
                            const std::vector<std::int64_t>& segment,
                            std::int64_t num_segments) {
  const std::int64_t e = scores.dim(0), h = scores.dim(1);
  const auto& sv = scores.data_as<T>();

  // Shared forward (fwd_kernels.h — also the frozen inference path).  The
  // max pass and exp run at the storage width T (max is exact in either
  // width, and exp of an f32 score only moves the result within storage
  // rounding — std::exp(float) is ~2x cheaper); the normaliser seg_sum is
  // pooled f64 regardless of dtype (policy: softmax normalisers accumulate
  // in double).  Only `out` escapes into the tape at the tensor's width.
  std::vector<T> seg_max =
      detail::new_buffer_t<T>(static_cast<std::size_t>(num_segments * h));
  std::vector<T> out = detail::new_buffer_t<T>(sv.size());
  std::vector<double> seg_sum =
      detail::new_zeroed(static_cast<std::size_t>(num_segments * h));
  fwd::segment_softmax_fwd(sv.data(), segment.data(), out.data(),
                           seg_max.data(), seg_sum.data(), e, h,
                           num_segments);
  detail::pool_of<T>().release(std::move(seg_max));
  detail::buffer_pool().release(std::move(seg_sum));

  return Tensor::make_op_result(
      {e, h}, std::move(out), {scores},
      [scores, segment, e, h, num_segments](detail::TensorImpl& self) {
        if (!scores.requires_grad()) return;
        std::vector<double> seg_dot =
            detail::new_zeroed(static_cast<std::size_t>(num_segments * h));
        bwd::segment_softmax_bwd(self.data_as<T>().data(),
                                 self.grad_as<T>().data(), segment.data(),
                                 seg_dot.data(),
                                 detail::grad_of<T>(*scores.impl()).data(), e,
                                 h);
        detail::buffer_pool().release(std::move(seg_dot));
      });
}

/// What a gat_conv node keeps for its backward: the edge lists with the
/// self-loops, x·W, the projected edge rows (e_all rows, the self-loop tail
/// zero), the raw attention logits and alpha.  The buffers go back to the
/// pool of the thread that drops the node.
template <typename T>
struct GatSaved {
  std::vector<std::int64_t> s, d;
  std::vector<T> xw, ea, scores, alpha;
  GatSaved() = default;
  GatSaved(const GatSaved&) = delete;
  GatSaved& operator=(const GatSaved&) = delete;
  ~GatSaved() {
    auto& pool = detail::pool_of<T>();
    for (auto* v : {&xw, &ea, &scores, &alpha}) pool.release(std::move(*v));
  }
};

/// g[index[r], :] += src[r, :] (a gather_rows backward).
template <typename T>
void scatter_into(const T* src, const std::vector<std::int64_t>& index,
                  std::int64_t m, T* g) {
  for (std::size_t r = 0; r < index.size(); ++r)
    for (std::int64_t c = 0; c < m; ++c) g[index[r] * m + c] += src[r * m + c];
}

template <typename T>
Tensor gat_conv_impl(const Tensor& x, const std::vector<std::int64_t>& src,
                     const std::vector<std::int64_t>& dst,
                     const Tensor& edge_attr, const GatParams& p,
                     std::int64_t heads, double negative_slope) {
  const std::int64_t n = x.dim(0), hf = p.w.dim(1);
  const auto e_in = static_cast<std::int64_t>(src.size());
  const std::int64_t e_all = e_in + n;
  const bool edges = p.w_e.defined();
  const auto sz = [](std::int64_t v) { return static_cast<std::size_t>(v); };

  auto st = std::make_shared<GatSaved<T>>();
  st->s.reserve(sz(e_all));
  st->d.reserve(sz(e_all));
  st->s.assign(src.begin(), src.end());
  st->d.assign(dst.begin(), dst.end());
  for (std::int64_t i = 0; i < n; ++i) {
    st->s.push_back(i);
    st->d.push_back(i);
  }
  st->xw = detail::new_buffer_t<T>(sz(n * hf));
  st->scores = detail::new_buffer_t<T>(sz(e_all * heads));
  st->alpha = detail::new_buffer_t<T>(sz(e_all * heads));
  Tensor ea_in;  // edge attributes at the layer width
  if (edges) {
    ea_in = cast(edge_attr, dtype_of_v<T>);
    st->ea = detail::new_buffer_t<T>(sz(e_all * hf));
    std::fill(st->ea.begin() + e_in * hf, st->ea.end(), T(0));
  }
  std::vector<T> scratch = detail::new_buffer_t<T>(
      sz(fwd::gat_scratch_size(n, e_all, heads)));
  std::vector<double> seg_sum = detail::new_buffer(sz(n * heads));
  std::vector<T> out = detail::new_buffer_t<T>(sz(n * hf));

  const T slope = static_cast<T>(negative_slope);
  const fwd::GatLayer<T> layer{
      p.w.data_as<T>().data(),
      p.a_src.data_as<T>().data(),
      p.a_dst.data_as<T>().data(),
      edges ? p.w_e.data_as<T>().data() : nullptr,
      edges ? p.a_edge.data_as<T>().data() : nullptr,
      p.bias.data_as<T>().data(),
      x.dim(1),
      hf,
      heads,
      edges ? p.w_e.dim(0) : 0,
      slope};
  fwd::gat_layer_fwd(layer, x.data_as<T>().data(),
                     edges ? ea_in.data_as<T>().data() : nullptr,
                     st->s.data(), st->d.data(), n, e_in,
                     {st->xw.data(), st->ea.data(), st->scores.data(),
                      st->alpha.data(), scratch.data(), seg_sum.data()},
                     out.data());
  detail::pool_of<T>().release(std::move(scratch));
  detail::buffer_pool().release(std::move(seg_sum));

  std::vector<Tensor> parents = {x, p.w, p.a_src, p.a_dst};
  if (edges) {
    parents.push_back(p.w_e);
    parents.push_back(p.a_edge);
  }
  parents.push_back(p.bias);
  return Tensor::make_op_result(
      {n, hf}, std::move(out), std::move(parents),
      [x, p, ea_in, st, n, e_in, hf, heads, slope,
       edges](detail::TensorImpl& self) {
        // The backward of the op chain in tests/gat_reference.h, step by
        // step in the order the tape ran it, each gradient accumulated into
        // a zeroed buffer as the tape did (`0 + v` is v except that it maps
        // -0.0 to +0.0, so the zeroes are kept).
        const std::int64_t e_all = e_in + n, eh = e_all * heads;
        const std::vector<std::int64_t>& s = st->s;
        const std::vector<std::int64_t>& d = st->d;
        const T* go = self.grad_as<T>().data();
        auto& pool = detail::pool_of<T>();
        const auto buffer = [&](std::int64_t count) {
          return pool.acquire(static_cast<std::size_t>(count));
        };
        const auto zeroed = [&](std::int64_t count) {
          return pool.acquire_zeroed(static_cast<std::size_t>(count));
        };
        // Each buffer goes back to the pool as soon as it is dead, so the
        // next acquire of its size class reuses memory that is still cached.
        const auto drop = [&](std::vector<T>& v) {
          pool.release(std::move(v));
        };

        // scatter_add_bias: message r reads its destination's gradient.
        std::vector<T> g_msg = buffer(e_all * hf);
        for (std::int64_t r = 0; r < e_all; ++r)
          for (std::int64_t c = 0; c < hf; ++c)
            g_msg[r * hf + c] = T(0) + go[d[r] * hf + c];
        if (p.bias.requires_grad())
          kern::col_sum_add(go, detail::grad_of<T>(*p.bias.impl()).data(), n,
                            hf);

        // heads_scale(payload, alpha); payload = hs (+ ea), hs = xw[s].
        std::vector<T> payload = buffer(e_all * hf);
        for (std::int64_t r = 0; r < e_all; ++r) {
          const T* row = st->xw.data() + s[r] * hf;
          T* prow = payload.data() + r * hf;
          if (edges) {
            const T* erow = st->ea.data() + r * hf;
            for (std::int64_t c = 0; c < hf; ++c) prow[c] = row[c] + erow[c];
          } else {
            std::copy_n(row, hf, prow);
          }
        }
        std::vector<T> g_pay = zeroed(e_all * hf);
        std::vector<T> g_alpha = zeroed(eh);
        bwd::heads_scale_bwd(g_msg.data(), st->alpha.data(), payload.data(),
                             g_pay.data(), g_alpha.data(), e_all, hf, heads);
        drop(g_msg);
        drop(payload);

        // segment_softmax, then leaky_relu over the raw logits.
        std::vector<T> g_act = zeroed(eh);
        std::vector<double> seg_dot =
            detail::new_zeroed(static_cast<std::size_t>(n * heads));
        bwd::segment_softmax_bwd(st->alpha.data(), g_alpha.data(), d.data(),
                                 seg_dot.data(), g_act.data(), e_all, heads);
        detail::buffer_pool().release(std::move(seg_dot));
        drop(g_alpha);
        std::vector<T> g_t = zeroed(eh);
        bwd::leaky_relu_bwd(g_act.data(), st->scores.data(), slope,
                            g_t.data(), eh);
        drop(g_act);
        // The logit adds hand every term 0 + g (twice is the same as once).
        for (auto& v : g_t) v = T(0) + v;
        const auto grad_or_null = [](const Tensor& t) {
          return t.requires_grad() ? detail::grad_of<T>(*t.impl()).data()
                                   : nullptr;
        };

        // heads_dot(ea, a_edge).
        std::vector<T> g_ea;
        if (edges) {
          g_ea = zeroed(e_all * hf);
          bwd::heads_dot_bwd(g_t.data(), p.a_edge.data_as<T>().data(),
                             st->ea.data(), nullptr, g_ea.data(),
                             grad_or_null(p.a_edge), e_all, hf, heads);
        }

        // heads_dot(hd, a_dst) over hd = xw[d], then gather_rows(xw, d).
        std::vector<T> g_hd = zeroed(e_all * hf);
        bwd::heads_dot_bwd(g_t.data(), p.a_dst.data_as<T>().data(),
                           st->xw.data(), d.data(), g_hd.data(),
                           grad_or_null(p.a_dst), e_all, hf, heads);
        std::vector<T> g_xw = zeroed(n * hf);
        scatter_into(g_hd.data(), d, hf, g_xw.data());
        drop(g_hd);

        // heads_dot(hs, a_src) over hs = xw[s].  Without edge attributes the
        // payload is hs itself, so its heads_scale gradient is already in
        // g_hs.
        std::vector<T> g_hs = edges ? zeroed(e_all * hf) : std::move(g_pay);
        bwd::heads_dot_bwd(g_t.data(), p.a_src.data_as<T>().data(),
                           st->xw.data(), s.data(), g_hs.data(),
                           grad_or_null(p.a_src), e_all, hf, heads);
        drop(g_t);

        if (edges) {
          // add(hs, ea), then concat_rows (real rows get 0 + g), then
          // matmul(edge_attr, W_e).  Self-loop rows of g_ea feed nothing.
          for (std::size_t i = 0; i < g_hs.size(); ++i) g_hs[i] += g_pay[i];
          if (p.w_e.requires_grad()) {
            for (std::int64_t i = 0; i < e_in * hf; ++i)
              g_ea[i] = T(0) + (g_ea[i] + g_pay[i]);
            kern::mm_atb_add(ea_in.data_as<T>().data(), g_ea.data(),
                             detail::grad_of<T>(*p.w_e.impl()).data(), e_in,
                             p.w_e.dim(0), hf);
          }
          drop(g_pay);
          drop(g_ea);
        }

        // gather_rows(xw, s), then matmul(x, W).
        scatter_into(g_hs.data(), s, hf, g_xw.data());
        drop(g_hs);
        if (x.requires_grad())
          kern::mm_abt_add(g_xw.data(), p.w.data_as<T>().data(),
                           detail::grad_of<T>(*x.impl()).data(), n, x.dim(1),
                           hf);
        if (p.w.requires_grad())
          kern::mm_atb_add(x.data_as<T>().data(), g_xw.data(),
                           detail::grad_of<T>(*p.w.impl()).data(), n, x.dim(1),
                           hf);
        drop(g_xw);
      });
}

}  // namespace

Tensor scatter_add_rows(const Tensor& src,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows) {
  check(src.rank() == 2, "scatter_add_rows: src must be rank-2");
  check(static_cast<std::int64_t>(index.size()) == src.dim(0),
        "scatter_add_rows: index length must equal src rows");
  for (auto i : index)
    check(i >= 0 && i < num_rows, "scatter_add_rows: index out of range");
  return AG_DISPATCH(src.dtype(), scatter_add_rows_impl, src, index, num_rows);
}

Tensor scatter_add_bias(const Tensor& src,
                        const std::vector<std::int64_t>& index,
                        std::int64_t num_rows, const Tensor& bias) {
  check(src.rank() == 2, "scatter_add_bias: src must be rank-2");
  check(static_cast<std::int64_t>(index.size()) == src.dim(0),
        "scatter_add_bias: index length must equal src rows");
  check(bias.numel() == src.dim(1),
        "scatter_add_bias: bias length must equal columns");
  check(src.dtype() == bias.dtype(), "scatter_add_bias: dtype mismatch");
  for (auto i : index)
    check(i >= 0 && i < num_rows, "scatter_add_bias: index out of range");
  return AG_DISPATCH(src.dtype(), scatter_add_bias_impl, src, index, num_rows,
                     bias);
}

Tensor segment_softmax(const Tensor& scores,
                       const std::vector<std::int64_t>& segment,
                       std::int64_t num_segments) {
  check(scores.rank() == 2, "segment_softmax: scores must be rank-2");
  check(static_cast<std::int64_t>(segment.size()) == scores.dim(0),
        "segment_softmax: segment length must equal score rows");
  for (auto s : segment)
    check(s >= 0 && s < num_segments, "segment_softmax: segment out of range");
  return AG_DISPATCH(scores.dtype(), segment_softmax_impl, scores, segment,
                     num_segments);
}

Tensor segment_sum(const Tensor& src, const std::vector<std::int64_t>& segment,
                   std::int64_t num_segments) {
  return scatter_add_rows(src, segment, num_segments);
}

Tensor gat_conv(const Tensor& x, const std::vector<std::int64_t>& src,
                const std::vector<std::int64_t>& dst, const Tensor& edge_attr,
                const GatParams& p, std::int64_t heads, double negative_slope) {
  check(x.rank() == 2 && p.w.rank() == 2, "gat_conv: x and W must be rank-2");
  const std::int64_t n = x.dim(0), hf = p.w.dim(1);
  check(x.dim(1) == p.w.dim(0), "gat_conv: x width must equal W rows");
  check(heads > 0 && hf % heads == 0,
        "gat_conv: columns not divisible by heads");
  check(p.a_src.numel() == hf && p.a_dst.numel() == hf &&
            p.bias.numel() == hf,
        "gat_conv: a_src, a_dst and bias need heads*F entries");
  const Dtype dt = x.dtype();
  check(p.w.dtype() == dt && p.a_src.dtype() == dt && p.a_dst.dtype() == dt &&
            p.bias.dtype() == dt,
        "gat_conv: parameter dtype mismatch");
  check(src.size() == dst.size(), "gat_conv: edge array size mismatch");
  for (std::size_t i = 0; i < src.size(); ++i)
    check(src[i] >= 0 && src[i] < n && dst[i] >= 0 && dst[i] < n,
          "gat_conv: edge index out of range");
  check(p.w_e.defined() == p.a_edge.defined(),
        "gat_conv: W_e and a_edge come together");
  if (p.w_e.defined()) {
    check(p.w_e.rank() == 2 && p.w_e.dim(1) == hf && p.a_edge.numel() == hf,
          "gat_conv: edge parameter shape mismatch");
    check(p.w_e.dtype() == dt && p.a_edge.dtype() == dt,
          "gat_conv: parameter dtype mismatch");
    check(edge_attr.defined() && edge_attr.rank() == 2 &&
              edge_attr.dim(0) == static_cast<std::int64_t>(src.size()) &&
              edge_attr.dim(1) == p.w_e.dim(0),
          "gat_conv: edge attribute shape mismatch");
    check(!edge_attr.requires_grad(),
          "gat_conv: edge attributes must not require grad");
  }
  return AG_DISPATCH(dt, gat_conv_impl, x, src, dst, edge_attr, p, heads,
                     negative_slope);
}

#undef AG_DISPATCH

}  // namespace amdgcnn::ag::ops
