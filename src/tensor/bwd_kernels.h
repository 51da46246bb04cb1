// Backward loops shared by the per-op autograd functions (ops.cpp,
// segment_ops.cpp) and the fused GAT layer (ops::gat_conv).
//
// The fused layer must produce the same gradient bits as the chain of ops it
// replaces (tests/gat_reference.h).  A loop that multiplies and accumulates
// (`g += a * b`) may be contracted into an FMA, and a re-implementation that
// only mirrors the loop can be contracted differently; so, as fwd_kernels.h
// does for the forwards, the multiply-accumulate backward loops live here
// once and both paths instantiate them.  Pure-add accumulations
// (`g += v`) are exact in any code shape and stay at their call sites.
//
// Every kernel accumulates into its gradient argument (autograd's `+=`
// contract) and reads the upstream gradient `go` row by row in a fixed
// order.  Gradient buffers never alias data buffers, hence __restrict__.
#pragma once

#include <cstdint>

namespace amdgcnn::ag::bwd {

/// heads_dot backward (out[e, h] = <x[e, h-block], a[h-block]>), both
/// gradients in one pass over the rows:
///   gx[e, hf] += go[e, h] * a[h-block]                 (gx may be null)
///   ga[hf]    += go[e, h] * x[row(e), h-block], e ascending (ga may be null)
/// where row(e) = rows[e], or e when rows is null: the fused GAT layer reads
/// gathered rows of x·W in place instead of materialising the gather.
template <typename T>
inline void heads_dot_bwd(const T* __restrict__ go, const T* __restrict__ a,
                          const T* __restrict__ x,
                          const std::int64_t* __restrict__ rows,
                          T* __restrict__ gx, T* __restrict__ ga,
                          std::int64_t e, std::int64_t hf,
                          std::int64_t heads) {
  // The per-head feature width f is small (1..32): with row pointers
  // hoisted and __restrict__, each head is one or two vector ops.
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e; ++r) {
    const T* srow = go + r * heads;
    const T* xrow = x + (rows != nullptr ? rows[r] : r) * hf;
    for (std::int64_t h = 0; h < heads; ++h) {
      const T g0 = srow[h];
      if (gx != nullptr) {
        T* __restrict__ g = gx + r * hf + h * f;
        const T* __restrict__ av = a + h * f;
        for (std::int64_t c = 0; c < f; ++c) g[c] += g0 * av[c];
      }
      if (ga != nullptr) {
        T* __restrict__ g = ga + h * f;
        const T* __restrict__ xv = xrow + h * f;
        for (std::int64_t c = 0; c < f; ++c) g[c] += g0 * xv[c];
      }
    }
  }
}

/// heads_scale backward (out[e, hf] = x[e, hf] * alpha[e, h]), both
/// gradients in one pass over the rows:
///   gx[e, hf]    += go[e, hf] * alpha[e, h]              (gx may be null)
///   galpha[e, h] += <go, x> over the head's block, a lane-split f64
///                   reduction as in fwd::heads_dot_fwd (galpha may be null)
template <typename T>
inline void heads_scale_bwd(const T* __restrict__ go,
                            const T* __restrict__ alpha,
                            const T* __restrict__ x, T* __restrict__ gx,
                            T* __restrict__ galpha, std::int64_t e,
                            std::int64_t hf, std::int64_t heads) {
  const std::int64_t f = hf / heads;
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t h = 0; h < heads; ++h) {
      const T* srow = go + r * hf + h * f;
      if (gx != nullptr) {
        const T s = alpha[r * heads + h];
        T* __restrict__ g = gx + r * hf + h * f;
        for (std::int64_t c = 0; c < f; ++c) g[c] += srow[c] * s;
      }
      if (galpha != nullptr) {
        constexpr int kLanes = 8;
        double lanes[kLanes] = {};
        const T* xrow = x + r * hf + h * f;
        std::int64_t c = 0;
        for (; c + kLanes <= f; c += kLanes)
          for (int l = 0; l < kLanes; ++l)
            lanes[l] += static_cast<double>(srow[c + l]) *
                        static_cast<double>(xrow[c + l]);
        double acc = 0.0;
        for (int l = 0; l < kLanes; ++l) acc += lanes[l];
        for (; c < f; ++c)
          acc += static_cast<double>(srow[c]) * static_cast<double>(xrow[c]);
        galpha[r * heads + h] += static_cast<T>(acc);
      }
    }
}

/// Segment-softmax backward: gs[e, h] += alpha * (go - sum_seg(alpha * go)).
/// `seg_dot` is zeroed caller scratch of num_segments*h doubles (the dot
/// accumulates in f64, DESIGN.md §2.3).
template <typename T>
inline void segment_softmax_bwd(const T* alpha, const T* go,
                                const std::int64_t* segment, double* seg_dot,
                                T* gs, std::int64_t e, std::int64_t h) {
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      seg_dot[segment[r] * h + c] += static_cast<double>(alpha[r * h + c]) *
                                     static_cast<double>(go[r * h + c]);
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; ++c)
      gs[r * h + c] += static_cast<T>(
          static_cast<double>(alpha[r * h + c]) *
          (static_cast<double>(go[r * h + c]) - seg_dot[segment[r] * h + c]));
}

/// LeakyReLU backward: gx[i] += go[i] * (x[i] > 0 ? 1 : slope), x the input.
template <typename T>
inline void leaky_relu_bwd(const T* go, const T* x, T slope, T* gx,
                           std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    gx[i] += go[i] * (x[i] > T(0) ? T(1) : slope);
}

}  // namespace amdgcnn::ag::bwd
