// Scalar reference of the read-out convolution forward (fwd::conv1d_fwd)
// with every rounding step written out.  The kernel vectorizes over output
// channels (strided) or positions (stride 1); this oracle walks one output
// at a time, so a bit-for-bit match checks that the vector kernel keeps each
// output's own sequence of roundings:
//   * stride 1: the bias, then one fused multiply-add per tap, (ic, t)
//     ascending;
//   * strided: per input channel, kLanes = 64 / sizeof(T) lane sums, each a
//     fused chain from +0 over the lane-wide steps of the kernel, added into
//     the running sum in lane order (zero lanes too: they turn a -0 sum into
//     +0), then the kernel % kLanes tail taps.  At the positions below
//     lout - lout % 4 every tail tap rounds its product before the add.  At
//     the remaining positions the tail runs in whole groups of
//     kTailGroup = 32 / sizeof(T) taps with rounded products, and its last
//     tail % kTailGroup taps are fused.
// "Fused" means one rounding where the build has FMA instructions
// (__FMA__, e.g. -march=native on x86-64) and a rounded product plus a
// rounded add where it does not (the sanitizer tree has no -march).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace amdgcnn::testing {

namespace conv_ref_detail {

/// a*b rounded to T.  The volatile store keeps the compiler from contracting
/// the product into a following add.
template <typename T>
inline T rounded_product(T a, T b) {
  volatile T p = a * b;
  return p;
}

/// c + a*b with the product rounded first.
template <typename T>
inline T mul_then_add(T a, T b, T c) {
  return c + rounded_product(a, b);
}

/// c + a*b rounded once where the build has FMA, twice where it does not.
template <typename T>
inline T fused(T a, T b, T c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return mul_then_add(a, b, c);
#endif
}

}  // namespace conv_ref_detail

/// out[cout, lout] for x [cin, len], w [cout, cin*kernel] and bias [cout]
/// (nullptr = no bias); lout = (len - kernel) / stride + 1.
template <typename T>
std::vector<T> conv1d_reference(const T* x, const T* w, const T* bias,
                                std::int64_t cin, std::int64_t len,
                                std::int64_t cout, std::int64_t kernel,
                                std::int64_t stride) {
  using conv_ref_detail::fused;
  using conv_ref_detail::mul_then_add;
  const std::int64_t lout = (len - kernel) / stride + 1;
  std::vector<T> out(static_cast<std::size_t>(cout * lout));
  constexpr std::int64_t kLanes = 64 / sizeof(T);
  constexpr std::int64_t kTailGroup = 32 / sizeof(T);
  const std::int64_t blocked = lout - lout % 4;
  const std::int64_t tail = kernel % kLanes;
  for (std::int64_t oc = 0; oc < cout; ++oc)
    for (std::int64_t j = 0; j < lout; ++j) {
      T acc = bias != nullptr ? bias[oc] : T(0);
      for (std::int64_t ic = 0; ic < cin; ++ic) {
        const T* xs = x + ic * len + j * stride;
        const T* wk = w + (oc * cin + ic) * kernel;
        if (stride == 1) {
          for (std::int64_t t = 0; t < kernel; ++t)
            acc = fused(wk[t], xs[t], acc);
          continue;
        }
        T lanes[kLanes] = {};
        std::int64_t t = 0;
        for (; t + kLanes <= kernel; t += kLanes)
          for (std::int64_t l = 0; l < kLanes; ++l)
            lanes[l] = fused(xs[t + l], wk[t + l], lanes[l]);
        for (std::int64_t l = 0; l < kLanes; ++l) acc = acc + lanes[l];
        const std::int64_t rounded_taps =
            j < blocked ? tail : tail - tail % kTailGroup;
        for (std::int64_t q = 0; q < tail; ++q, ++t)
          acc = q < rounded_taps ? mul_then_add(xs[t], wk[t], acc)
                                 : fused(xs[t], wk[t], acc);
      }
      out[static_cast<std::size_t>(oc * lout + j)] = acc;
    }
  return out;
}

}  // namespace amdgcnn::testing
