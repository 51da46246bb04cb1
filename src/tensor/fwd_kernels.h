// Forward-only kernels shared by the autograd ops (ops.cpp, conv_ops.cpp,
// segment_ops.cpp) and the frozen inference engine (src/infer).
//
// The inference engine's contract is BIT-IDENTICAL logits to the training
// forward pass.  That only holds if both paths execute the same floating-
// point operations in the same order AND the compiler emits the same code
// for them — a re-implementation that merely mirrors the loop structure can
// still diverge when the optimizer contracts a mul+add into an FMA in one
// translation unit but not the other.  Factoring the forward loop bodies
// into one set of inline templates removes that risk: every caller
// instantiates the same function from the same source under the same flags.
//
// Only the order- or contraction-sensitive forwards live here (dot-product
// reductions, softmax normalisers, conv taps, the SortPooling comparator,
// the multi-step f32 tanh), plus one whole layer, the edge-attribute GAT
// layer, whose every operation the trainer and the frozen engine share.
// Single-FP-op-per-element forwards (add, relu, scaling) are exact by
// construction in any code shape and stay inline at their call sites.
//
// All kernels are raw-pointer, caller-allocated: autograd callers hand
// pooled vectors, the inference engine hands arena blocks.  None of them
// touch the tape, the buffer pool, or any global state.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <type_traits>

#include "tensor/kernels.h"

namespace amdgcnn::ag::fwd {

/// out[n,m] = bias (row broadcast) + a[n,k] · w[k,m].  The fused-linear
/// forward (addmm / linear_relu / linear_tanh before their activations).
template <typename T>
inline void linear_fwd(const T* __restrict__ a, const T* __restrict__ w,
                       const T* __restrict__ bias, T* __restrict__ out,
                       std::int64_t n, std::int64_t k, std::int64_t m) {
  for (std::int64_t i = 0; i < n; ++i) std::copy_n(bias, m, out + i * m);
  kern::mm_add(a, w, out, n, k, m);
}

/// out[e,heads] = per-head dot of x[e,hf] rows against the parameter row
/// a[hf].  Lane-split f64 accumulation (dtype policy: attention logits that
/// feed a softmax accumulate in double for either storage width; the fixed
/// lane order keeps results bit-deterministic).
template <typename T>
inline void heads_dot_fwd(const T* __restrict__ x, const T* __restrict__ a,
                          T* __restrict__ out, std::int64_t e,
                          std::int64_t hf, std::int64_t heads) {
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e; ++r) {
    const T* xrow = x + r * hf;
    for (std::int64_t h = 0; h < heads; ++h) {
      constexpr int kLanes = 8;
      double lanes[kLanes] = {};
      const T* arow = a + h * f;
      const T* hx = xrow + h * f;
      std::int64_t c = 0;
      for (; c + kLanes <= f; c += kLanes)
        for (int l = 0; l < kLanes; ++l)
          lanes[l] += static_cast<double>(hx[c + l]) *
                      static_cast<double>(arow[c + l]);
      double acc = 0.0;
      for (int l = 0; l < kLanes; ++l) acc += lanes[l];
      for (; c < f; ++c)
        acc += static_cast<double>(hx[c]) * static_cast<double>(arow[c]);
      out[r * heads + h] = static_cast<T>(acc);
    }
  }
}

/// out[e,hf] = x[e,hf] with each head block scaled by alpha[e,heads].
template <typename T>
inline void heads_scale_fwd(const T* __restrict__ x,
                            const T* __restrict__ alpha, T* __restrict__ out,
                            std::int64_t e, std::int64_t hf,
                            std::int64_t heads) {
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t h = 0; h < heads; ++h) {
      const T s = alpha[r * heads + h];
      const std::int64_t base = r * hf + h * f;
      for (std::int64_t c = 0; c < f; ++c) out[base + c] = x[base + c] * s;
    }
}

/// Segment-softmax forward: out[e,h] = softmax of scores[e,h] within each
/// destination segment.  `seg_max` is caller scratch of num_segments*h T
/// (overwritten), `seg_sum` caller scratch of num_segments*h doubles (must
/// be zeroed).  Max pass and exp run at storage width; the normaliser
/// accumulates in f64 (dtype policy, DESIGN.md §2.3).
template <typename T>
inline void segment_softmax_fwd(const T* __restrict__ sv,
                                const std::int64_t* __restrict__ segment,
                                T* __restrict__ out, T* __restrict__ seg_max,
                                double* __restrict__ seg_sum, std::int64_t e,
                                std::int64_t h, std::int64_t num_segments) {
  std::fill(seg_max, seg_max + num_segments * h,
            -std::numeric_limits<T>::infinity());
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      seg_max[segment[r] * h + c] =
          std::max(seg_max[segment[r] * h + c], sv[r * h + c]);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c) {
      const T ex = std::exp(sv[r * h + c] - seg_max[segment[r] * h + c]);
      out[r * h + c] = ex;
      seg_sum[segment[r] * h + c] += static_cast<double>(ex);
    }
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      out[r * h + c] = static_cast<T>(static_cast<double>(out[r * h + c]) /
                                      seg_sum[segment[r] * h + c]);
}

/// out[num_rows,m] = bias (row broadcast) + scatter-add of src[e,m] rows by
/// `index`.  Fixed edge order — deterministic for either dtype.
template <typename T>
inline void scatter_add_bias_fwd(const T* __restrict__ src,
                                 const std::int64_t* __restrict__ index,
                                 std::int64_t e, std::int64_t num_rows,
                                 std::int64_t m, const T* __restrict__ bias,
                                 T* __restrict__ out) {
  for (std::int64_t r = 0; r < num_rows; ++r)
    std::copy_n(bias, m, out + r * m);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < m; ++c)
      out[index[r] * m + c] += src[r * m + c];
}

// ---- Edge-attribute GAT layer (paper §III-C) --------------------------------

/// Weights and widths of one GAT layer as raw row-major pointers.  w_e and
/// a_edge are null when edge_dim == 0.
template <typename T>
struct GatLayer {
  const T* w;       // [in, hf]
  const T* a_src;   // [hf]
  const T* a_dst;   // [hf]
  const T* w_e;     // [edge_dim, hf]
  const T* a_edge;  // [hf]
  const T* bias;    // [hf]
  std::int64_t in, hf, heads, edge_dim;
  T slope;  // LeakyReLU negative slope of the attention logits
};

/// Caller-allocated buffers of gat_layer_fwd for n nodes, e_in real edges
/// and e_all = e_in + n edges with the self-loops.  xw, ea, scores and alpha
/// are the values the training backward reads; the rest is scratch.
template <typename T>
struct GatBuffers {
  T* xw;            // [n, hf]        x·W
  T* ea;            // [e_in, hf]     edge_attr·W_e (unused when edge_dim 0)
  T* scores;        // [e_all, heads] attention logits before the LeakyReLU
  T* alpha;         // [e_all, heads] attention weights
  T* scratch;       // gat_scratch_size(...) elements
  double* seg_sum;  // [n, heads]
};

/// Elements of GatBuffers::scratch: per-node dots [2n, heads], activated
/// logits [e_all, heads], segment maxima [n, heads], messages [e_all, hf].
inline std::int64_t gat_scratch_size(std::int64_t n, std::int64_t e_all,
                                     std::int64_t hf, std::int64_t heads) {
  return 3 * n * heads + e_all * (heads + hf);
}

/// Attention logits of every edge (self-loops included):
///   scores[r] = <xw[s[r]], a_src> + <xw[d[r]], a_dst> (+ <ea[r], a_edge>).
/// It equals the per-edge dots over gathered rows of the tape formulation
/// (tests/gat_reference.h) bit for bit:
///   * heads_dot_fwd's result for a row depends only on that row's values,
///     so per-NODE dots gathered as scalars equal per-EDGE dots over
///     gathered rows;
///   * the adds run in the same per-element order: (src + dst), then + edge;
///   * the self-loop rows of the edge projection are exact zeros, and a dot
///     over a zero row is exactly +0.0 (the f64 lanes stay +0.0), so the
///     edge dots run over the e_in real rows and the self-loop tail adds a
///     literal +0.0, which still normalises a -0.0 sum to +0.0 as the tape's
///     add does.
/// `nd` is scratch of 2n*heads; `s3` scratch of e_all*heads.
template <typename T>
inline void gat_scores_fwd(const GatLayer<T>& L, const T* __restrict__ xw,
                           const T* __restrict__ ea,
                           const std::int64_t* __restrict__ s,
                           const std::int64_t* __restrict__ d,
                           std::int64_t n, std::int64_t e_in,
                           T* __restrict__ scores, T* __restrict__ nd,
                           T* __restrict__ s3) {
  const std::int64_t heads = L.heads, e_all = e_in + n;
  T* nd_src = nd;
  T* nd_dst = nd + n * heads;
  heads_dot_fwd(xw, L.a_src, nd_src, n, L.hf, heads);
  heads_dot_fwd(xw, L.a_dst, nd_dst, n, L.hf, heads);
  for (std::int64_t r = 0; r < e_all; ++r)
    for (std::int64_t h = 0; h < heads; ++h)
      scores[r * heads + h] =
          nd_src[s[r] * heads + h] + nd_dst[d[r] * heads + h];
  if (L.edge_dim > 0) {
    heads_dot_fwd(ea, L.a_edge, s3, e_in, L.hf, heads);
    std::fill(s3 + e_in * heads, s3 + e_all * heads, T(0));
    for (std::int64_t i = 0; i < e_all * heads; ++i)
      scores[i] = scores[i] + s3[i];
  }
}

/// Scaled messages msg[r] = alpha[r] (per head) * payload[r], with payload
/// xw[s[r]] + ea[r] (xw[s[r]] + 0 on self-loops) or xw[s[r]] without edge
/// attributes.  The tape formulation materialises the gather, the payload
/// add and the heads_scale product as three arrays; here each element runs
/// the same single add and then the same single multiply.  (a + b) * s has
/// no contractible mul-add pair, so both roundings survive any FMA policy.
/// The scatter stays a separate pass (scatter_add_bias_fwd): fused, its
/// `out += msg` would contract with this multiply into one rounding.
template <typename T>
inline void gat_messages_fwd(const T* __restrict__ xw,
                             const T* __restrict__ ea,
                             const T* __restrict__ alpha,
                             const std::int64_t* __restrict__ s,
                             std::int64_t e_in, std::int64_t e_all,
                             std::int64_t hf, std::int64_t heads,
                             T* __restrict__ msg) {
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e_all; ++r) {
    const T* row = xw + s[r] * hf;
    const T* erow = (ea != nullptr && r < e_in) ? ea + r * hf : nullptr;
    for (std::int64_t h = 0; h < heads; ++h) {
      const T sc = alpha[r * heads + h];
      const std::int64_t base = h * f;
      T* mrow = msg + r * hf + base;
      if (ea != nullptr) {
        if (erow != nullptr)
          for (std::int64_t c = 0; c < f; ++c)
            mrow[c] = (row[base + c] + erow[base + c]) * sc;
        else
          for (std::int64_t c = 0; c < f; ++c)
            mrow[c] = (row[base + c] + T(0)) * sc;
      } else {
        for (std::int64_t c = 0; c < f; ++c) mrow[c] = row[base + c] * sc;
      }
    }
  }
}

/// One GAT layer, pre-activation: out[n, hf] = bias + sum over the incoming
/// edges of each node of alpha * payload, with self-loops appended to the
/// edge list.  s and d hold e_all = e_in + n entries, the self-loop (i, i)
/// at e_in + i; eattr is [e_in, edge_dim] at width T.  The trainer
/// (ops::gat_conv) calls it with pooled buffers and keeps xw, ea, scores
/// and alpha for its backward; the frozen forward calls it with arena
/// buffers.  One instantiation serves both, so the frozen logits equal the
/// training forward by construction.
template <typename T>
inline void gat_layer_fwd(const GatLayer<T>& L, const T* __restrict__ x,
                          const T* __restrict__ eattr,
                          const std::int64_t* __restrict__ s,
                          const std::int64_t* __restrict__ d, std::int64_t n,
                          std::int64_t e_in, const GatBuffers<T>& b,
                          T* __restrict__ out) {
  const std::int64_t hf = L.hf, heads = L.heads, e_all = e_in + n;
  T* nd = b.scratch;                       // [2n, heads]
  T* act = nd + 2 * n * heads;             // [e_all, heads]
  T* seg_max = act + e_all * heads;        // [n, heads]
  T* msg = seg_max + n * heads;            // [e_all, hf]

  // x·W and edge_attr·W_e: zeroed accumulator + mm_add, exactly ops::matmul.
  std::fill(b.xw, b.xw + n * hf, T(0));
  kern::mm_add(x, L.w, b.xw, n, L.in, hf);
  const T* ea = nullptr;
  if (L.edge_dim > 0) {
    std::fill(b.ea, b.ea + e_in * hf, T(0));
    kern::mm_add(eattr, L.w_e, b.ea, e_in, L.edge_dim, hf);
    ea = b.ea;
  }

  gat_scores_fwd(L, b.xw, ea, s, d, n, e_in, b.scores, nd, act);
  for (std::int64_t i = 0; i < e_all * heads; ++i)
    act[i] = b.scores[i] > T(0) ? b.scores[i] : L.slope * b.scores[i];
  std::fill(b.seg_sum, b.seg_sum + n * heads, 0.0);
  segment_softmax_fwd(act, d, b.alpha, seg_max, b.seg_sum, e_all, heads, n);

  gat_messages_fwd(b.xw, ea, b.alpha, s, e_in, e_all, hf, heads, msg);
  scatter_add_bias_fwd(msg, d, e_all, n, hf, L.bias, out);
}

/// SortPooling row selection: fill perm[0..n) with the indices of d[n,c]
/// ordered by the DGCNN comparator (descending last column, then descending
/// earlier columns, finally ascending index — a strict total order, so the
/// kept set and its order are unique).  Only the first min(n,k) entries are
/// mutually ordered (nth_element + sort of the kept prefix); returns that
/// count.  The caller copies the surviving rows.
template <typename T>
inline std::int64_t sort_perm_topk(const T* d, std::int64_t n, std::int64_t c,
                                   std::int64_t k, std::int64_t* perm) {
  std::iota(perm, perm + n, std::int64_t{0});
  const auto row_before = [&](std::int64_t a, std::int64_t b) {
    for (std::int64_t col = c - 1; col >= 0; --col) {
      const T va = d[a * c + col], vb = d[b * c + col];
      if (va != vb) return va > vb;
    }
    return a < b;
  };
  const std::int64_t keep = std::min(n, k);
  if (keep < n) std::nth_element(perm, perm + keep, perm + n, row_before);
  std::sort(perm, perm + keep, row_before);
  return keep;
}

/// 1-D convolution forward over a [cin, len] signal with weight
/// [cout, cin*kernel] and optional bias [cout] (nullptr = no bias).  Two
/// fixed-order layouts (see conv_ops.cpp for the rationale): stride == 1
/// vectorises across output positions, strided splits each dot product into
/// kLanes independent accumulators.
template <typename T>
inline void conv1d_fwd(const T* __restrict__ xd, const T* __restrict__ wd,
                       const T* __restrict__ bv, T* __restrict__ out,
                       std::int64_t cin, std::int64_t len, std::int64_t cout,
                       std::int64_t kernel, std::int64_t stride) {
  const std::int64_t lout = (len - kernel) / stride + 1;
  if (stride == 1) {
    // Short output rows (every model shape: lout = conv_out_len) are held
    // in registers across the whole (ic, t) accumulation instead of being
    // re-loaded/re-stored per tap; each orow[j] sees the same
    // bias-then-`+= wv·x` sequence in the same order either way.
    constexpr std::int64_t kMaxTile = 32;
    if (lout <= kMaxTile) {
      for (std::int64_t oc = 0; oc < cout; ++oc) {
        T acc[kMaxTile];
        const T b0 = bv != nullptr ? bv[oc] : T(0);
        for (std::int64_t j = 0; j < lout; ++j) acc[j] = b0;
        const T* wrow = wd + oc * cin * kernel;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const T* xrow = xd + ic * len;
          const T* wk = wrow + ic * kernel;
          for (std::int64_t t = 0; t < kernel; ++t) {
            const T wv = wk[t];
            const T* __restrict__ xs = xrow + t;
            for (std::int64_t j = 0; j < lout; ++j) acc[j] += wv * xs[j];
          }
        }
        T* orow = out + oc * lout;
        for (std::int64_t j = 0; j < lout; ++j) orow[j] = acc[j];
      }
    } else {
      for (std::int64_t oc = 0; oc < cout; ++oc) {
        T* __restrict__ orow = out + oc * lout;
        const T b0 = bv != nullptr ? bv[oc] : T(0);
        for (std::int64_t j = 0; j < lout; ++j) orow[j] = b0;
        const T* wrow = wd + oc * cin * kernel;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const T* xrow = xd + ic * len;
          const T* wk = wrow + ic * kernel;
          for (std::int64_t t = 0; t < kernel; ++t) {
            const T wv = wk[t];
            const T* __restrict__ xs = xrow + t;
            for (std::int64_t j = 0; j < lout; ++j) orow[j] += wv * xs[j];
          }
        }
      }
    }
  } else {
    constexpr int kLanes = 64 / sizeof(T);
    // Blocks of 4 output positions share each streamed weight row: one
    // independent lane array per position (a lane array is a single
    // 64-byte vector), so the four dot products interleave without
    // touching any one product's fixed lane/accumulation order, and the
    // four dependency chains cover the FMA latency a single chain leaves
    // idle.
    constexpr std::int64_t JB = 4;
    for (std::int64_t oc = 0; oc < cout; ++oc) {
      const T* wrow = wd + oc * cin * kernel;
      const T b0 = bv != nullptr ? bv[oc] : T(0);
      std::int64_t j = 0;
      for (; j + JB <= lout; j += JB) {
        T acc[JB];
        for (std::int64_t q = 0; q < JB; ++q) acc[q] = b0;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const T* xrow = xd + ic * len + j * stride;
          const T* wk = wrow + ic * kernel;
          T lanes[JB][kLanes] = {};
          std::int64_t t = 0;
          for (; t + kLanes <= kernel; t += kLanes)
            for (std::int64_t q = 0; q < JB; ++q)
              for (int l = 0; l < kLanes; ++l)
                lanes[q][l] += xrow[q * stride + t + l] * wk[t + l];
          for (std::int64_t q = 0; q < JB; ++q)
            for (int l = 0; l < kLanes; ++l) acc[q] += lanes[q][l];
          for (; t < kernel; ++t)
            for (std::int64_t q = 0; q < JB; ++q)
              acc[q] += xrow[q * stride + t] * wk[t];
        }
        for (std::int64_t q = 0; q < JB; ++q) out[oc * lout + j + q] = acc[q];
      }
      for (; j < lout; ++j) {
        T acc = b0;
        const std::int64_t base = j * stride;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const T* xrow = xd + ic * len + base;
          const T* wk = wrow + ic * kernel;
          T lanes[kLanes] = {};
          std::int64_t t = 0;
          for (; t + kLanes <= kernel; t += kLanes)
            for (int l = 0; l < kLanes; ++l)
              lanes[l] += xrow[t + l] * wk[t + l];
          for (int l = 0; l < kLanes; ++l) acc += lanes[l];
          for (; t < kernel; ++t) acc += xrow[t] * wk[t];
        }
        out[oc * lout + j] = acc;
      }
    }
  }
}

/// Max-pool forward over a [c, len] signal; writes the pooled values and the
/// winning input offsets (`argmax`, length c*lout — the training backward
/// routes gradients through them; inference hands scratch).  Comparisons are
/// exact in either width.
template <typename T>
inline void max_pool1d_fwd(const T* __restrict__ xd, T* __restrict__ out,
                           std::int64_t* __restrict__ argmax, std::int64_t c,
                           std::int64_t len, std::int64_t size,
                           std::int64_t stride) {
  const std::int64_t lout = (len - size) / stride + 1;
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t j = 0; j < lout; ++j) {
      std::int64_t best = j * stride;
      for (std::int64_t t = 1; t < size; ++t)
        if (xd[ch * len + j * stride + t] > xd[ch * len + best])
          best = j * stride + t;
      out[ch * lout + j] = xd[ch * len + best];
      argmax[ch * lout + j] = best;
    }
}

namespace detail {

/// (float)std::tanh((double)x) bit for bit, for every one of the 2^32 f32
/// inputs, as a branch-free f64 evaluation that gcc vectorizes:
///   * |x| is clamped to 10 on the bit pattern: tanh rounds to 1.0f from
///     ~9.01 on, and inf/NaN patterns clamp too (NaN is restored below);
///   * em1 = expm1(-2|x|) by a Cody–Waite reduction -2|x| = k·ln2 + r,
///     |r| <= ln2/2, with expm1(r) = r + r²·q(r) for a degree-9 q (the
///     Chebyshev economization of its Taylor series on |r| <= 0.3467).  The
///     leading r term keeps full relative precision near 0, so tiny and
///     subnormal inputs come out exact;
///   * tanh|x| = -em1 / (2 + em1), rounded once to f32;
///   * the sign is ORed back in, and NaN inputs pass through quieted, as the
///     f64 round trip quiets them.
/// Every select is an integer operation: under gcc's default
/// -ftrapping-math a float min/fmin clamp, copysign or a float `?:` turns
/// into control flow that keeps the loop scalar.
/// bench_tanh_exhaustive checks all 2^32 inputs.  It has passed with GCC 12.2
/// on x86-64 both with -march=native on AVX-512, where the Horner steps are
/// contracted into FMAs, and without -march, where every step rounds
/// separately.  Another compiler or target needs a new sweep (DESIGN.md §2.4).
inline float tanh_f32(float x) {
  const auto u = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t mag = u & 0x7fffffffu;
  constexpr std::uint32_t kTen = 0x41200000u;  // 10.0f
  const double ax =
      static_cast<double>(std::bit_cast<float>(mag < kTen ? mag : kTen));
  const double y = -2.0 * ax;
  // k = round(y / ln2) through the 1.5·2^52 shifter: the sum's low mantissa
  // bits hold k, so 2^k is built in the exponent field without a conversion.
  constexpr double kShift = 0x1.8p52;
  const double ks = y * 0x1.71547652b82fep0 + kShift;
  const double kd = ks - kShift;
  const double r = (y - kd * 0x1.62e42feep-1) - kd * 0x1.a39ef35793c76p-33;
  double q = 0x1.af4e09f575337p-26;
  q = q * r + 0x1.28919d85e600cp-22;
  q = q * r + 0x1.71de0221ee58cp-19;
  q = q * r + 0x1.a019b8f8c56ffp-16;
  q = q * r + 0x1.a01a01abecf31p-13;
  q = q * r + 0x1.6c16c17891214p-10;
  q = q * r + 0x1.11111111100d2p-7;
  q = q * r + 0x1.5555555553d55p-5;
  q = q * r + 0x1.5555555555557p-3;
  q = q * r + 0x1.0000000000001p-1;
  const double p = r + r * r * q;  // expm1(r)
  const std::uint64_t k =
      std::bit_cast<std::uint64_t>(ks) - std::bit_cast<std::uint64_t>(kShift);
  const double scale = std::bit_cast<double>((k + 1023) << 52);  // 2^k, k <= 0
  const double em1 = scale * p + (scale - 1.0);
  const auto t = std::bit_cast<std::uint32_t>(
      static_cast<float>(-em1 / (2.0 + em1)));
  // `& 0x7fffffff`: x = +0 gives em1 = +0 and a -0 quotient.
  const std::uint32_t out = (t & 0x7fffffffu) | (u & 0x80000000u);
  const std::uint32_t nan = 0u - static_cast<std::uint32_t>(mag > 0x7f800000u);
  return std::bit_cast<float>((out & ~nan) | ((u | 0x00400000u) & nan));
}

}  // namespace detail

/// x[0..n) = tanh(x) in place: the activation of every message-passing layer,
/// run by the trainer (ops::linear_tanh, ops::tanh_act) and the frozen
/// forward alike.  f64 calls std::tanh; f32 runs detail::tanh_f32, which
/// returns exactly (float)std::tanh((double)x) at ~13x the speed of libm.
template <typename T>
inline void tanh_inplace(T* __restrict__ x, std::int64_t n) {
  if constexpr (std::is_same_v<T, float>) {
    for (std::int64_t i = 0; i < n; ++i) x[i] = detail::tanh_f32(x[i]);
  } else {
    for (std::int64_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
  }
}

// ---- Relaxed-numerics kernels (quantized inference only, DESIGN.md §2.7) --
//
// The exact kernels above are pinned bit-for-bit to the training forward.
// The quantized frozen forward (FrozenModel with a quant::Scheme) carries a
// WEAKER contract — deterministic per mode across worker counts, AUC within
// noise of f32 — which frees it to trade ulps for throughput: polynomial
// exp/tanh instead of exact ones, f32 accumulation lanes instead of f64, and
// reciprocal-multiply normalisation.  Every function here is a pure scalar
// f32 map in a fixed order, so the per-mode determinism contract holds
// trivially.  NOT used by any exact path.

/// Cephes-style expf: n = round(x·log2e), two-part Cody–Waite ln2
/// reduction, degree-6 Horner polynomial on [-ln2/2, ln2/2], 2^n built
/// directly in the exponent field.  Relative error ~2e-7 over the clamped
/// range; monotone saturation to 0 / FLT_MAX-scale at the ends.
inline float fast_exp(float x) {
  x = std::min(x, 88.0f);
  x = std::max(x, -87.0f);
  // Round-to-nearest via the 2^23 magic constant instead of std::floor —
  // gcc refuses to vectorize the libm floor call (errno), and this is the
  // one statement that kept whole-row exp loops scalar (~10x).  Any
  // nearest-int choice of fx works: r compensates exactly.
  const float fx = (x * 1.44269504088896341f + 12582912.0f) - 12582912.0f;
  const auto n = static_cast<std::int32_t>(fx);
  float r = x - fx * 0.693359375f;
  r -= fx * -2.12194440e-4f;
  float y = 1.9875691500e-4f;
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * r * r + r + 1.0f;
  // bit_cast, not memcpy: gcc vectorizes the former in row loops.
  const auto bits = static_cast<std::uint32_t>(n + 127) << 23;
  return y * std::bit_cast<float>(bits);
}

/// tanh as a clamped odd/even rational (13/6 Padé-style fit, the classic
/// single-precision coefficients).  Branch-free — clamp via min/max, two
/// Horner chains, one divide — so a loop over rows vectorizes; the
/// fast_exp formulation 1 - 2/(e^{2x}+1) does not (its exponent-field
/// bit-build defeats the vectorizer) and measured ~8x slower per element.
/// Relative error ~1e-7 inside the clamp range; |x| >= 7.9 saturates to
/// ±1 to within float rounding.
inline float fast_tanh(float x) {
  x = std::min(x, 7.90531110763549805f);
  x = std::max(x, -7.90531110763549805f);
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p *= x;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return p / q;
}

/// heads_dot with f32 lane accumulation (the exact kernel uses f64 lanes).
inline void heads_dot_relaxed(const float* __restrict__ x,
                              const float* __restrict__ a,
                              float* __restrict__ out, std::int64_t e,
                              std::int64_t hf, std::int64_t heads) {
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e; ++r) {
    const float* xrow = x + r * hf;
    for (std::int64_t h = 0; h < heads; ++h) {
      constexpr int kLanes = 8;
      float lanes[kLanes] = {};
      const float* arow = a + h * f;
      const float* hx = xrow + h * f;
      std::int64_t c = 0;
      for (; c + kLanes <= f; c += kLanes)
        for (int l = 0; l < kLanes; ++l) lanes[l] += hx[c + l] * arow[c + l];
      float acc = 0.0f;
      for (int l = 0; l < kLanes; ++l) acc += lanes[l];
      for (; c < f; ++c) acc += hx[c] * arow[c];
      out[r * heads + h] = acc;
    }
  }
}

/// Segment softmax with fast_exp, f32 segment sums and reciprocal-multiply
/// normalisation.  `seg_sum` is f32 caller scratch (zeroed here); it is
/// overwritten with the reciprocals during the normalise pass.  The
/// max-subtract (a gather) and the exp are separate passes so the exp runs
/// over a contiguous array and vectorizes — fused, the segment gather
/// forces it scalar (~4x the cost at typical subgraph sizes).
inline void segment_softmax_relaxed(const float* __restrict__ sv,
                                    const std::int64_t* __restrict__ segment,
                                    float* __restrict__ out,
                                    float* __restrict__ seg_max,
                                    float* __restrict__ seg_sum,
                                    std::int64_t e, std::int64_t h,
                                    std::int64_t num_segments) {
  std::fill(seg_max, seg_max + num_segments * h,
            -std::numeric_limits<float>::infinity());
  std::fill(seg_sum, seg_sum + num_segments * h, 0.0f);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      seg_max[segment[r] * h + c] =
          std::max(seg_max[segment[r] * h + c], sv[r * h + c]);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      out[r * h + c] = sv[r * h + c] - seg_max[segment[r] * h + c];
  for (std::int64_t i = 0; i < e * h; ++i) out[i] = fast_exp(out[i]);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      seg_sum[segment[r] * h + c] += out[r * h + c];
  // Empty segments keep sum 0 -> inf reciprocal, but no edge reads them.
  for (std::int64_t i = 0; i < num_segments * h; ++i)
    seg_sum[i] = 1.0f / seg_sum[i];
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      out[r * h + c] *= seg_sum[segment[r] * h + c];
}

/// out[i,j] = dot(a_i, b_j) for row-major a (m x k) and b (n x k): both
/// operands are walked along contiguous rows, so narrow outputs (n < a
/// register tile) stay fully vectorized where mm_add's column-tiled loop
/// would fall to its scalar remainder.  f32 lane accumulation, fixed order.
inline void dot_rows_relaxed(const float* __restrict__ a,
                             const float* __restrict__ b,
                             float* __restrict__ out, std::int64_t m,
                             std::int64_t n, std::int64_t k) {
  // b-row outer / a-row inner: each b row streams through once while the
  // (smaller) a matrix stays cache-resident — the other nesting re-streams
  // all of b per a row and falls off L1 once a+b exceed it (measured ~6x
  // at the conv1 shape).  Two lane arrays per dot break the single-FMA
  // dependency chain.
  constexpr int kLanes = 8;
  for (std::int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float lanes0[kLanes] = {};
      float lanes1[kLanes] = {};
      std::int64_t c = 0;
      for (; c + 2 * kLanes <= k; c += 2 * kLanes) {
        for (int l = 0; l < kLanes; ++l)
          lanes0[l] += arow[c + l] * brow[c + l];
        for (int l = 0; l < kLanes; ++l)
          lanes1[l] += arow[c + kLanes + l] * brow[c + kLanes + l];
      }
      for (; c + kLanes <= k; c += kLanes)
        for (int l = 0; l < kLanes; ++l) lanes0[l] += arow[c + l] * brow[c + l];
      float acc = 0.0f;
      for (int l = 0; l < kLanes; ++l) acc += lanes0[l] + lanes1[l];
      for (; c < k; ++c) acc += arow[c] * brow[c];
      out[i * n + j] = acc;
    }
  }
}

/// out[m] = bias[m] + a[k] · w[k,m] as k rank-1 updates: each step
/// broadcasts a[kk] and FMAs a contiguous weight row, so the loop
/// vectorizes over m regardless of how small the single "batch" row is
/// (mm_add's 4-row tile degenerates at n == 1).  f32 accumulation.
inline void vecmat_relaxed(const float* __restrict__ a,
                           const float* __restrict__ w,
                           const float* __restrict__ bias,
                           float* __restrict__ out, std::int64_t k,
                           std::int64_t m) {
  for (std::int64_t j = 0; j < m; ++j) out[j] = bias[j];
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float av = a[kk];
    const float* wrow = w + kk * m;
    for (std::int64_t j = 0; j < m; ++j) out[j] += av * wrow[j];
  }
}

/// Row-wise softmax forward (f64 max/normaliser per the dtype policy).
template <typename T>
inline void softmax_rows_fwd(const T* __restrict__ av, T* __restrict__ out,
                             std::int64_t n, std::int64_t m) {
  for (std::int64_t r = 0; r < n; ++r) {
    double mx = -std::numeric_limits<double>::infinity();
    for (std::int64_t c = 0; c < m; ++c)
      mx = std::max(mx, static_cast<double>(av[r * m + c]));
    double z = 0.0;
    for (std::int64_t c = 0; c < m; ++c) {
      const double e = std::exp(static_cast<double>(av[r * m + c]) - mx);
      out[r * m + c] = static_cast<T>(e);
      z += e;
    }
    for (std::int64_t c = 0; c < m; ++c)
      out[r * m + c] = static_cast<T>(static_cast<double>(out[r * m + c]) / z);
  }
}

}  // namespace amdgcnn::ag::fwd
