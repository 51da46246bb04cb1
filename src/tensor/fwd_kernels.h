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
// Same source and flags are not enough on their own: every caller must also
// compile a kernel the same way, and GCC shapes a loop's contraction and
// reduction after the sizes it can see.  The scalar conv loops that
// preceded conv1d_fwd, compiled in a standalone file with the serve model's
// shapes as literals, rounded 3437 of 5120 conv2 outputs differently from
// the library's ops::conv1d.  So the call sites live in library translation
// units and pass runtime shapes, kernels are measured and verified through
// them, and a kernel pins each step it needs fused or unfused instead of
// leaving it to the loop vectorizer: `a * b + c` on whole GNU vectors for
// a fused step (one FMA wherever the target has FMA),
// __builtin_assoc_barrier around a product that must round first, explicit
// std::fma where a step must fuse even without FMA instructions
// (DESIGN.md §2.4).  Both pins need GNU vector types: in a plain loop GCC 12
// contracted `o + __builtin_assoc_barrier(p * s)` into an FMA once it
// vectorized the loop, and vectorized a scalar chain `acc = a * b + acc`
// as an in-order reduction whose products rounded apart from the adds.
//
// Only the order- or contraction-sensitive forwards live here (dot-product
// reductions, softmax normalisers, conv taps, the SortPooling comparator,
// the multi-step f32 tanh and exp), plus one whole layer, the
// edge-attribute GAT layer, whose every operation the trainer and the
// frozen engine share.  The GAT passes run whole head rows and feature rows
// as GNU vectors; tests/gat_reference.h and tests/conv_reference.h write
// each output's rounding out as scalar loops.
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
#include <utility>

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

namespace detail {

/// Unaligned loads and stores of GNU vectors.
template <typename V, typename T>
inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename T, typename V>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// out (a GNU vector of f64) = as many elements at p, widened to f64.
/// Written as one braced list, which GCC 12 compiles to one widening load
/// (vcvtps2pd from memory for 4 floats); __builtin_convertvector of a
/// loaded vector converts in halves and reassembles them.
template <typename D, typename T>
inline void widen(D& out, const T* p) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    out = D{static_cast<double>(p[I])...};
  }(std::make_index_sequence<sizeof(D) / sizeof(double)>{});
}

/// Transposes the 4x4 block whose rows are v0..v3.
template <typename V>
inline void transpose4(V& v0, V& v1, V& v2, V& v3) {
  const V t0 = __builtin_shufflevector(v0, v1, 0, 4, 2, 6);
  const V t1 = __builtin_shufflevector(v0, v1, 1, 5, 3, 7);
  const V t2 = __builtin_shufflevector(v2, v3, 0, 4, 2, 6);
  const V t3 = __builtin_shufflevector(v2, v3, 1, 5, 3, 7);
  v0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  v1 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  v2 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  v3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

/// heads_dot_fwd against NA parameter rows a[k], into out[k].
template <typename T, int NA>
inline void heads_dots(const T* __restrict__ x, const T* const* a,
                       T* const* out, std::int64_t e, std::int64_t hf,
                       std::int64_t heads) {
  using D4 = kern::Vec<double, 4>;
  const std::int64_t f = hf / heads, steps = f / 8, total = e * heads;
  const std::int64_t paired = f - f % 2;  // tail steps in whole pairs
  std::int64_t h = 0;                     // head of the group's next pair
  for (std::int64_t o = 0; o < total; o += 4) {
    const T* xq[4];
    std::int64_t aq[4];  // offset of each pair's head in a parameter row
    for (std::int64_t q = 0; q < 4; ++q) {
      xq[q] = x + std::min(o + q, total - 1) * f;
      aq[q] = h * f;
      if (o + q + 1 < total && ++h == heads) h = 0;
    }
    D4 acc[NA] = {};
    if (steps > 0) {
      D4 lo[NA][4] = {}, hi[NA][4] = {};
      for (std::int64_t st = 0; st < steps * 8; st += 8)
        for (int q = 0; q < 4; ++q) {
          D4 x0, x1;
          widen(x0, xq[q] + st);
          widen(x1, xq[q] + st + 4);
          for (int k = 0; k < NA; ++k) {
            D4 a0, a1;
            widen(a0, a[k] + aq[q] + st);
            widen(a1, a[k] + aq[q] + st + 4);
            lo[k][q] = x0 * a0 + lo[k][q];
            hi[k][q] = x1 * a1 + hi[k][q];
          }
        }
      for (int k = 0; k < NA; ++k) {
        transpose4(lo[k][0], lo[k][1], lo[k][2], lo[k][3]);
        transpose4(hi[k][0], hi[k][1], hi[k][2], hi[k][3]);
        for (int l = 0; l < 4; ++l) acc[k] = acc[k] + lo[k][l];
        for (int l = 0; l < 4; ++l) acc[k] = acc[k] + hi[k][l];
      }
    }
    for (std::int64_t c = steps * 8; c < f; ++c) {
      const D4 xv = {static_cast<double>(xq[0][c]),
                     static_cast<double>(xq[1][c]),
                     static_cast<double>(xq[2][c]),
                     static_cast<double>(xq[3][c])};
      for (int k = 0; k < NA; ++k) {
        const T* ak = a[k] + c;
        const D4 av = {static_cast<double>(ak[aq[0]]),
                       static_cast<double>(ak[aq[1]]),
                       static_cast<double>(ak[aq[2]]),
                       static_cast<double>(ak[aq[3]])};
        if (c < paired)
          acc[k] = acc[k] + __builtin_assoc_barrier(xv * av);
        else
          acc[k] = xv * av + acc[k];
      }
    }
    for (int k = 0; k < NA; ++k) {
      const auto res = __builtin_convertvector(acc[k], kern::Vec<T, 4>);
      if (o + 4 <= total) {
        store(out[k] + o, res);
      } else {
        for (std::int64_t q = 0; o + q < total; ++q) out[k][o + q] = res[q];
      }
    }
  }
}

}  // namespace detail

/// out[e,heads] = per-head dot of x[e,hf] rows against the parameter row
/// a[hf], accumulated in f64 for either storage width (dtype policy:
/// attention logits that feed a softmax accumulate in double).  Each output
/// keeps one sequence of roundings (tests/gat_reference.h writes it out):
///   * 8 lane sums, each a fused chain from +0 over the head's whole
///     8-feature steps, feature 8s + l into lane l;
///   * +0.0 plus the lane sums in lane order;
///   * one step per remaining feature, in order: the tail's whole pairs of
///     steps round their products before the add, and the last step of an
///     odd tail is fused;
///   * one rounding to T.
/// At f32 every f64 product is exact, so a fused and an unfused step agree;
/// at f64 a fused step is one FMA where the target has FMA and a rounded
/// product plus a rounded add where it does not.  The tail rule is how
/// GCC 12 compiled the scalar loop this kernel replaced (the tail became an
/// in-order reduction two products at a time, with a fused scalar step for
/// an odd last feature); it is kept so that f64 bytes did not move, and it
/// is pinned here with __builtin_assoc_barrier and whole-vector
/// `a * b + c`.
/// The outputs run in groups of 4 consecutive (row, head) pairs, whatever
/// rows they fall in (pair o reads x[o*f, (o+1)*f), as hf = heads*f).  Each
/// pair's lane sums are two f64 vectors along its features, lanes 0-3 and
/// 4-7; the group's are transposed so that the lane-order sums and the tail
/// steps run on one vector per step over the 4 pairs, and the group's
/// results are stored together.  A short last group repeats its last pair
/// and drops the copies.
template <typename T>
inline void heads_dot_fwd(const T* __restrict__ x, const T* __restrict__ a,
                          T* __restrict__ out, std::int64_t e,
                          std::int64_t hf, std::int64_t heads) {
  const T* rows[1] = {a};
  T* outs[1] = {out};
  detail::heads_dots<T, 1>(x, rows, outs, e, hf, heads);
}

/// heads_dot_fwd of the same x rows against two parameter rows, out1 with
/// a1 and out2 with a2, each output with heads_dot_fwd's bytes; x is read
/// and widened once for both (the GAT layer's per-node source and
/// destination dots).
template <typename T>
inline void heads_dot2_fwd(const T* __restrict__ x, const T* __restrict__ a1,
                           const T* __restrict__ a2, T* __restrict__ out1,
                           T* __restrict__ out2, std::int64_t e,
                           std::int64_t hf, std::int64_t heads) {
  const T* rows[2] = {a1, a2};
  T* outs[2] = {out1, out2};
  detail::heads_dots<T, 2>(x, rows, outs, e, hf, heads);
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

// ---- Exact element-wise tanh and exp ----------------------------------------

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

/// 2^(i/32) as f64 bit patterns, minus i << 47 (glibc's __exp2f_data.tab):
/// adding k << 47 for k = 32q + i yields 2^(k/32).
alignas(64) inline constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// std::exp(float) bit for bit, for every one of the 2^32 f32 inputs, as a
/// branch-free replica of glibc 2.36 expf (sysdeps/ieee754/flt-32/e_expf.c)
/// in its x86-64 FMA build, the one FMA hosts run:
///   * z = x·32/ln2 is split into k = round(z), through the 1.5·2^52
///     shifter, and r = z - k, each one FMA on the unrounded product;
///   * 2^(k/32) = kExp2Table[k % 32] with k >> 5 added to the exponent;
///   * exp(x) = 2^(k/32) · (1 + c2·r + (c0·r + c1)·r²) in f64, rounded once
///     to f32;
///   * x > 0x1.62e42ep6 (+inf included) gives +inf, x < -0x1.9fe368p6 (-inf
///     included) gives +0, and NaN comes back quieted, as x + x returns it.
///     These selects are integer operations, so the loop stays branch-free.
/// Every multiply-add is an explicit std::fma.  libm's result depends on
/// them being fused, and a build without FMA instructions (no -march) would
/// otherwise round them twice: a version that left them to contraction
/// differed from libm at 2 inputs there (0x4202422f, 0xc27c65d9).
/// bench_tanh_exhaustive checks all 2^32 inputs against the libm it runs
/// with, under -march=native and without.  Another libm (another glibc, or a
/// host without FMA, whose glibc picks its non-FMA expf) needs a new sweep;
/// the sweep fails loudly on any mismatch.
inline float exp_f32(float x) {
  const auto u = std::bit_cast<std::uint32_t>(x);
  // One compare each (a `&&` of two keeps gcc from vectorizing): as signed
  // integers the positive patterns above 0x1.62e42ep6 are exactly those
  // greater than its pattern, and as unsigned the negative patterns below
  // -0x1.9fe368p6 those greater than its pattern.
  const std::uint32_t over = 0u - static_cast<std::uint32_t>(
                                      static_cast<std::int32_t>(u) > 0x42b17217);
  const std::uint32_t under = 0u - static_cast<std::uint32_t>(u > 0xc2cff1b4u);
  const std::uint32_t nan =
      0u - static_cast<std::uint32_t>((u & 0x7fffffffu) > 0x7f800000u);
  const std::uint32_t special = over | under | nan;
  // Special inputs run the polynomial on +0 and are replaced below.
  const double xd = static_cast<double>(std::bit_cast<float>(u & ~special));
  constexpr double kShift = 0x1.8p52;
  constexpr double kInvLn2N = 0x1.71547652b82fep0 * 32;
  const double ks = std::fma(kInvLn2N, xd, kShift);
  const double kd = ks - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const std::uint64_t k = std::bit_cast<std::uint64_t>(ks);
  const double s = std::bit_cast<double>(kExp2Table[k % 32] + (k << 47));
  const double z = std::fma(0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0), r,
                            0x1.ebfce50fac4f3p-3 / (32.0 * 32.0));
  const double r2 = r * r;
  double y = std::fma(0x1.62e42ff0c52d6p-1 / 32.0, r, 1.0);
  y = std::fma(z, r2, y);
  const auto e = std::bit_cast<std::uint32_t>(static_cast<float>(y * s));
  return std::bit_cast<float>((e & ~special) | (over & 0x7f800000u) |
                              (nan & (u | 0x00400000u)));
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

/// x[0..n) = exp(x) in place: the attention softmax's exponential, run by
/// the trainer (ops::segment_softmax, ops::gat_conv) and the frozen forward
/// alike.  f64 calls std::exp; f32 runs detail::exp_f32, which returns
/// exactly std::exp(float) and vectorizes.
template <typename T>
inline void exp_inplace(T* __restrict__ x, std::int64_t n) {
  if constexpr (std::is_same_v<T, float>) {
    for (std::int64_t i = 0; i < n; ++i) x[i] = detail::exp_f32(x[i]);
  } else {
    for (std::int64_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
  }
}

namespace detail {

/// Calls fn(std::integral_constant<int, W>{}) with W the largest power of
/// two that divides n, at most W's default kern::kLanes<T> (64 bytes): the
/// vector width of a pass over rows of n elements (head rows, one head's
/// features) in which no vector straddles two rows or two heads, so no pass
/// has a remainder.
template <typename T, int W = kern::kLanes<T>, typename Fn>
inline void with_row_width(std::int64_t n, Fn&& fn) {
  if constexpr (W == 1) {
    fn(std::integral_constant<int, 1>{});
  } else {
    if (n % W == 0)
      fn(std::integral_constant<int, W>{});
    else
      with_row_width<T, W / 2>(n, fn);
  }
}

/// Segment maxima (std::max in edge order, so the first of equal values
/// wins) and the max-subtracted scores: segment_softmax_fwd's passes before
/// its exp, over head rows in vectors of W.
template <typename T, int W>
inline void segment_softmax_shift(const T* __restrict__ sv,
                                  const std::int64_t* __restrict__ segment,
                                  T* __restrict__ out, T* __restrict__ seg_max,
                                  std::int64_t e, std::int64_t h) {
  using V = kern::Vec<T, W>;
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; c += W) {
      T* mp = seg_max + segment[r] * h + c;
      V m, v;
      load(m, mp);
      load(v, sv + r * h + c);
      store(mp, V(m < v ? v : m));
    }
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; c += W) {
      V m, v;
      load(m, seg_max + segment[r] * h + c);
      load(v, sv + r * h + c);
      store(out + r * h + c, V(v - m));
    }
}

/// The f64 segment sums in edge order and the quotients rounded to T:
/// segment_softmax_fwd's passes after its exp, in vectors of W.
template <typename T, int W>
inline void segment_softmax_normalise(const std::int64_t* __restrict__ segment,
                                      T* __restrict__ out,
                                      double* __restrict__ seg_sum,
                                      std::int64_t e, std::int64_t h) {
  using D = kern::Vec<double, W>;
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; c += W) {
      double* sp = seg_sum + segment[r] * h + c;
      D sum, v;
      load(sum, sp);
      widen(v, out + r * h + c);
      store(sp, D(sum + v));
    }
  for (std::int64_t r = 0; r < e; ++r)
    for (std::int64_t c = 0; c < h; c += W) {
      D sum, v;
      load(sum, seg_sum + segment[r] * h + c);
      widen(v, out + r * h + c);
      store(out + r * h + c, __builtin_convertvector(v / sum, kern::Vec<T, W>));
    }
}

}  // namespace detail

/// Segment-softmax forward: out[e,h] = softmax of scores[e,h] within each
/// destination segment.  `seg_max` is caller scratch of num_segments*h T
/// (overwritten), `seg_sum` caller scratch of num_segments*h doubles (must
/// be zeroed).  Per element, in edge order: the segment maximum at storage
/// width (std::max, so the first of equal values wins), the max-subtracted
/// score, its exp at storage width, the f64 segment sum, and the f64
/// quotient rounded once to T (dtype policy, DESIGN.md §2.3).  Each pass
/// runs over whole head rows as GNU vectors (detail::with_row_width); the
/// exp runs as one exp_inplace pass over the contiguous max-subtracted
/// scores, so at f32 it vectorizes and each element gets the bytes of one
/// std::exp.
template <typename T>
inline void segment_softmax_fwd(const T* __restrict__ sv,
                                const std::int64_t* __restrict__ segment,
                                T* __restrict__ out, T* __restrict__ seg_max,
                                double* __restrict__ seg_sum, std::int64_t e,
                                std::int64_t h, std::int64_t num_segments) {
  std::fill(seg_max, seg_max + num_segments * h,
            -std::numeric_limits<T>::infinity());
  detail::with_row_width<T>(h, [&](auto width) {
    detail::segment_softmax_shift<T, decltype(width)::value>(sv, segment, out,
                                                             seg_max, e, h);
  });
  exp_inplace(out, e * h);
  detail::with_row_width<T>(h, [&](auto width) {
    detail::segment_softmax_normalise<T, decltype(width)::value>(
        segment, out, seg_sum, e, h);
  });
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

/// Elements of GatBuffers::scratch: per-node dots [2n, heads], segment
/// maxima [n, heads], activated logits [e_all, heads] and edge dots
/// [e_in, heads], e_in = e_all - n.
inline std::int64_t gat_scratch_size(std::int64_t n, std::int64_t e_all,
                                     std::int64_t heads) {
  return 2 * (n + e_all) * heads;
}

namespace detail {

/// What an edge row of the GAT layer adds to its source node's row: the
/// attention logit's edge term and the message's payload.  Real edges with
/// attributes add their projected attributes; the self-loops of a layer
/// with attributes add an exact +0 (their projected rows are zero in the
/// tape formulation, and + +0 turns a -0 into +0); without attributes
/// nothing is added.
enum class EdgeTerm { kNone, kRow, kZero };

/// Attention logits of edges [r0, r1) on head rows in vectors of W:
///   scores[r] = nd_src[s[r]] + nd_dst[d[r]] (+ ed[r] or + 0, per Term),
///   act[r]    = scores[r] > 0 ? scores[r] : slope * scores[r].
/// The same per-element operations as the tape formulation's gathered
/// per-edge dots (tests/gat_reference.h): a dot's result depends only on its
/// row's values, so per-node dots gathered as values equal per-edge dots
/// over gathered rows, and the adds run in the same order.
template <typename T, int W, EdgeTerm Term>
inline void gat_logits(const T* __restrict__ nd_src,
                       const T* __restrict__ nd_dst, const T* __restrict__ ed,
                       const std::int64_t* __restrict__ s,
                       const std::int64_t* __restrict__ d, std::int64_t r0,
                       std::int64_t r1, std::int64_t heads, T slope,
                       T* __restrict__ scores, T* __restrict__ act) {
  using V = kern::Vec<T, W>;
  for (std::int64_t r = r0; r < r1; ++r)
    for (std::int64_t c = 0; c < heads; c += W) {
      V u, v;
      load(u, nd_src + s[r] * heads + c);
      load(v, nd_dst + d[r] * heads + c);
      V sc = u + v;
      if constexpr (Term == EdgeTerm::kRow) {
        V q;
        load(q, ed + r * heads + c);
        sc = sc + q;
      } else if constexpr (Term == EdgeTerm::kZero) {
        sc = sc + V{};
      }
      store(scores + r * heads + c, sc);
      store(act + r * heads + c, V(sc > V{} ? sc : slope * sc));
    }
}

/// out[d[r]] += (xw[s[r]] + edge term) * alpha[r] (per head) for edges
/// [r0, r1) in edge order, on each head's features in vectors of W.  Each
/// element takes the payload add, a product rounded on its own and the add
/// into the output, as the tape formulation's heads_scale and scatter did.
/// The barrier is what keeps the product rounded: `o + p * s` would
/// contract into one FMA.  It holds on GNU vector types; in a plain loop
/// GCC 12 dropped it once it vectorized the loop and contracted the
/// product into the add.  W is at most 16 bytes: on wider vectors GCC 12
/// rebuilds the barrier's result element by element (8-16 shuffles per
/// vector).
template <typename T, int W, EdgeTerm Term>
inline void gat_aggregate(const T* __restrict__ xw, const T* __restrict__ ea,
                          const T* __restrict__ alpha,
                          const std::int64_t* __restrict__ s,
                          const std::int64_t* __restrict__ d, std::int64_t r0,
                          std::int64_t r1, std::int64_t hf,
                          std::int64_t heads, T* __restrict__ out) {
  using V = kern::Vec<T, W>;
  const std::int64_t f = hf / heads;
  for (std::int64_t r = r0; r < r1; ++r) {
    const T* xr = xw + s[r] * hf;
    T* orow = out + d[r] * hf;
    for (std::int64_t h = 0; h < heads; ++h) {
      const T sc = alpha[r * heads + h];
      for (std::int64_t c = h * f; c < (h + 1) * f; c += W) {
        V o, p;
        load(o, orow + c);
        load(p, xr + c);
        if constexpr (Term == EdgeTerm::kRow) {
          V q;
          load(q, ea + r * hf + c);
          p = p + q;
        } else if constexpr (Term == EdgeTerm::kZero) {
          p = p + V{};
        }
        store(orow + c, V(o + __builtin_assoc_barrier(p * sc)));
      }
    }
  }
}

}  // namespace detail

/// Attention logits and their LeakyReLU for the e_all edges (self-loops
/// from e_in on): scores = nd_src[s] + nd_dst[d], plus ed[r] on real edges
/// and +0 on self-loops when the layer has edge attributes (ed non-null,
/// [e_in, heads]); act = LeakyReLU(scores).  Head rows in vectors of the
/// largest power of two dividing heads (detail::with_row_width).
template <typename T>
inline void gat_logits_fwd(const T* __restrict__ nd_src,
                           const T* __restrict__ nd_dst,
                           const T* __restrict__ ed,
                           const std::int64_t* __restrict__ s,
                           const std::int64_t* __restrict__ d,
                           std::int64_t e_in, std::int64_t e_all,
                           std::int64_t heads, T slope,
                           T* __restrict__ scores, T* __restrict__ act) {
  using detail::EdgeTerm;
  detail::with_row_width<T>(heads, [&](auto width) {
    constexpr int W = decltype(width)::value;
    if (ed != nullptr) {
      detail::gat_logits<T, W, EdgeTerm::kRow>(nd_src, nd_dst, ed, s, d, 0,
                                               e_in, heads, slope, scores,
                                               act);
      detail::gat_logits<T, W, EdgeTerm::kZero>(nd_src, nd_dst, ed, s, d,
                                                e_in, e_all, heads, slope,
                                                scores, act);
    } else {
      detail::gat_logits<T, W, EdgeTerm::kNone>(nd_src, nd_dst, ed, s, d, 0,
                                                e_all, heads, slope, scores,
                                                act);
    }
  });
}

/// out[n, hf] = bias, then for every edge in order out[d] += (xw[s] + ea[r]
/// on real edges, + 0 on self-loops, nothing when ea is null) * alpha per
/// head: the message and the scatter in one pass, each head's features in
/// vectors of the largest power of two dividing them, at most 16 bytes.
template <typename T>
inline void gat_aggregate_fwd(const T* __restrict__ xw,
                              const T* __restrict__ ea,
                              const T* __restrict__ alpha,
                              const std::int64_t* __restrict__ s,
                              const std::int64_t* __restrict__ d,
                              std::int64_t n, std::int64_t e_in,
                              std::int64_t hf, std::int64_t heads,
                              const T* __restrict__ bias,
                              T* __restrict__ out) {
  using detail::EdgeTerm;
  const std::int64_t e_all = e_in + n;
  for (std::int64_t i = 0; i < n; ++i) std::copy_n(bias, hf, out + i * hf);
  constexpr int kMaxWidth = 16 / static_cast<int>(sizeof(T));
  detail::with_row_width<T, kMaxWidth>(hf / heads, [&](auto width) {
    constexpr int W = decltype(width)::value;
    if (ea != nullptr) {
      detail::gat_aggregate<T, W, EdgeTerm::kRow>(xw, ea, alpha, s, d, 0,
                                                  e_in, hf, heads, out);
      detail::gat_aggregate<T, W, EdgeTerm::kZero>(xw, ea, alpha, s, d, e_in,
                                                   e_all, hf, heads, out);
    } else {
      detail::gat_aggregate<T, W, EdgeTerm::kNone>(xw, ea, alpha, s, d, 0,
                                                   e_all, hf, heads, out);
    }
  });
}

/// One GAT layer, pre-activation: out[n, hf] = bias + sum over the incoming
/// edges of each node of alpha * payload, with self-loops appended to the
/// edge list.  s and d hold e_all = e_in + n entries, the self-loop (i, i)
/// at e_in + i; eattr is [e_in, edge_dim] at width T.  The trainer
/// (ops::gat_conv) calls it with pooled buffers and keeps xw, ea, scores
/// and alpha for its backward; the frozen forward calls it with arena
/// buffers.  One instantiation serves both, so the frozen logits equal the
/// training forward by construction.  The passes:
///   * x·W and edge_attr·W_e: zeroed accumulator + kern::mm_add, exactly
///     ops::matmul;
///   * per-node dots with a_src and a_dst (heads_dot2_fwd), per-edge dots
///     with a_edge (heads_dot_fwd);
///   * logits and LeakyReLU (gat_logits_fwd), then the segment softmax
///     (segment_softmax_fwd), on head rows;
///   * bias, then message and scatter in one pass (gat_aggregate_fwd).
/// Each pass's vector width is the largest power of two dividing its row
/// (heads, or one head's features), at most 64 bytes, so the 1-head,
/// 1-feature last layer runs the same code on 1-element vectors.
template <typename T>
inline void gat_layer_fwd(const GatLayer<T>& L, const T* __restrict__ x,
                          const T* __restrict__ eattr,
                          const std::int64_t* __restrict__ s,
                          const std::int64_t* __restrict__ d, std::int64_t n,
                          std::int64_t e_in, const GatBuffers<T>& b,
                          T* __restrict__ out) {
  const std::int64_t hf = L.hf, heads = L.heads, e_all = e_in + n;
  T* nd_src = b.scratch;             // [n, heads]
  T* nd_dst = nd_src + n * heads;    // [n, heads]
  T* seg_max = nd_dst + n * heads;   // [n, heads]
  T* act = seg_max + n * heads;      // [e_all, heads]
  T* ed = nullptr;                   // [e_in, heads] with edge attributes
  const T* ea = nullptr;

  std::fill(b.xw, b.xw + n * hf, T(0));
  kern::mm_add(x, L.w, b.xw, n, L.in, hf);
  heads_dot2_fwd(b.xw, L.a_src, L.a_dst, nd_src, nd_dst, n, hf, heads);
  if (L.edge_dim > 0) {
    std::fill(b.ea, b.ea + e_in * hf, T(0));
    kern::mm_add(eattr, L.w_e, b.ea, e_in, L.edge_dim, hf);
    ea = b.ea;
    ed = act + e_all * heads;
    heads_dot_fwd(ea, L.a_edge, ed, e_in, hf, heads);
  }
  gat_logits_fwd(nd_src, nd_dst, ed, s, d, e_in, e_all, heads, L.slope,
                 b.scores, act);
  std::fill(b.seg_sum, b.seg_sum + n * heads, 0.0);
  segment_softmax_fwd(act, d, b.alpha, seg_max, b.seg_sum, e_all, heads, n);
  gat_aggregate_fwd(b.xw, ea, b.alpha, s, d, n, e_in, hf, heads, L.bias, out);
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

namespace detail {

/// Output positions per vector of the stride-1 conv (the strided conv holds
/// kern::kLanes<T> output channels per vector).
inline constexpr std::int64_t kConvPositions = 8;

}  // namespace detail

/// Elements of conv1d_fwd's caller scratch: a zero-padded copy of the input
/// for stride 1, the weight transposed to channel-minor order otherwise.
template <typename T>
inline std::int64_t conv1d_scratch_size(std::int64_t cin, std::int64_t len,
                                        std::int64_t cout, std::int64_t kernel,
                                        std::int64_t stride) {
  if (stride == 1) {
    constexpr std::int64_t kPos = detail::kConvPositions;
    const std::int64_t lout = len - kernel + 1;
    return cin * ((lout + kPos - 1) / kPos * kPos + kernel - 1);
  }
  constexpr std::int64_t kLanes = kern::kLanes<T>;
  return (cout + kLanes - 1) / kLanes * kLanes * cin * kernel;
}

/// 1-D convolution forward over a [cin, len] signal with weight
/// [cout, cin*kernel] and optional bias [cout] (nullptr = no bias) into
/// out [cout, lout], lout = (len - kernel) / stride + 1.  `scratch` holds
/// conv1d_scratch_size<T>(...) elements.  The vectors run across outputs,
/// never within one output's sum, so every output keeps its own fixed
/// sequence of roundings (tests/conv_reference.h writes it out per output):
///   * stride 1 (the second read-out conv): the bias, then one multiply-add
///     per tap, (ic, t) ascending.  Eight output channels at a time, each a
///     vector of kConvPositions consecutive positions; the input is copied
///     into zero-padded rows so the last block's loads stay in bounds.
///   * strided (the first read-out conv, kernel = stride = embedding width):
///     per input channel, kLanes = 64 / sizeof(T) lane sums, each a
///     multiply-add chain from +0 over the lane-wide steps of the kernel,
///     added into the running sum in lane order, then the kernel % kLanes
///     tail taps.  Vectors hold kLanes output channels, read from the weight
///     transposed into scratch (the trainer's weights change every step, so
///     the transpose runs on every call).
/// A multiply-add is written `a * b + c` on whole vectors.  GCC contracts
/// it into one FMA where the target has FMA (-ffp-contract=fast is its
/// default for C++) and rounds twice where it does not, as in the sanitizer
/// tree, which has no -march.  The strided tail pins where it rounds its
/// products first, through __builtin_assoc_barrier (GCC 12 or later): at
/// every position below lout - lout % 4, and at the last lout % 4 positions
/// for its leading whole groups of 32 / sizeof(T) taps; the remaining taps
/// fuse.  That position rule is how GCC 12 compiled the scalar loops this
/// kernel replaced (4-position blocks; a 32-byte in-order reduction of the
/// tail), kept so trained weights and logits did not move.  Unifying it
/// changes bytes (DESIGN.md §2.4).
template <typename T>
inline void conv1d_fwd(const T* __restrict__ xd, const T* __restrict__ wd,
                       const T* __restrict__ bv, T* __restrict__ out,
                       std::int64_t cin, std::int64_t len, std::int64_t cout,
                       std::int64_t kernel, std::int64_t stride,
                       T* __restrict__ scratch) {
  const std::int64_t lout = (len - kernel) / stride + 1;
  if (stride == 1) {
    constexpr std::int64_t kPos = detail::kConvPositions;
    constexpr int kChan = 8;
    using V = kern::Vec<T, kPos>;
    const std::int64_t plen = (lout + kPos - 1) / kPos * kPos + kernel - 1;
    for (std::int64_t ic = 0; ic < cin; ++ic) {
      T* row = scratch + ic * plen;
      std::copy_n(xd + ic * len, len, row);
      std::fill(row + len, row + plen, T(0));
    }
    for (std::int64_t oc0 = 0; oc0 < cout; oc0 += kChan) {
      // Channels past cout repeat the last one; their sums are dropped.
      const T* wrow[kChan];
      T bias[kChan];
      for (int c = 0; c < kChan; ++c) {
        const std::int64_t oc = std::min<std::int64_t>(oc0 + c, cout - 1);
        wrow[c] = wd + oc * cin * kernel;
        bias[c] = bv != nullptr ? bv[oc] : T(0);
      }
      for (std::int64_t j0 = 0; j0 < lout; j0 += kPos) {
        V acc[kChan];
        for (int c = 0; c < kChan; ++c)
          for (std::int64_t p = 0; p < kPos; ++p) acc[c][p] = bias[c];
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const T* xs = scratch + ic * plen + j0;
          for (std::int64_t t = 0; t < kernel; ++t) {
            V xv;
            std::memcpy(&xv, xs + t, sizeof xv);
            for (int c = 0; c < kChan; ++c)
              acc[c] = wrow[c][ic * kernel + t] * xv + acc[c];
          }
        }
        const std::int64_t np = std::min(kPos, lout - j0);
        for (int c = 0; c < kChan && oc0 + c < cout; ++c)
          for (std::int64_t p = 0; p < np; ++p)
            out[(oc0 + c) * lout + j0 + p] = acc[c][p];
      }
    }
    return;
  }

  constexpr std::int64_t kLanes = kern::kLanes<T>;
  constexpr std::int64_t kTailGroup = 32 / sizeof(T);
  using V = kern::Vec<T, kLanes>;
  const std::int64_t blocks = (cout + kLanes - 1) / kLanes;
  const std::int64_t taps = cin * kernel;
  // scratch[(b * taps + i) * kLanes + c] = w[b * kLanes + c][i], zero for
  // the channels past cout.
  for (std::int64_t b = 0; b < blocks; ++b) {
    T* dst = scratch + b * taps * kLanes;
    const std::int64_t nc = std::min(kLanes, cout - b * kLanes);
    if (nc < kLanes) std::fill(dst, dst + taps * kLanes, T(0));
    for (std::int64_t c = 0; c < nc; ++c) {
      const T* src = wd + (b * kLanes + c) * taps;
      for (std::int64_t i = 0; i < taps; ++i) dst[i * kLanes + c] = src[i];
    }
  }
  const std::int64_t steps = kernel / kLanes, tail = kernel % kLanes;
  const std::int64_t blocked = lout - lout % 4;
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t nc = std::min(kLanes, cout - b * kLanes);
    V bias = {};
    if (bv != nullptr)
      for (std::int64_t c = 0; c < nc; ++c) bias[c] = bv[b * kLanes + c];
    const T* wb = scratch + b * taps * kLanes;
    for (std::int64_t j = 0; j < lout; ++j) {
      const std::int64_t rounded =
          j < blocked ? tail : tail - tail % kTailGroup;
      V acc = bias;
      for (std::int64_t ic = 0; ic < cin; ++ic) {
        const T* xs = xd + ic * len + j * stride;
        const T* wk = wb + ic * kernel * kLanes;
        V lanes[kLanes] = {};
        V wv;
        for (std::int64_t s = 0; s < steps; ++s)
          for (std::int64_t l = 0; l < kLanes; ++l) {
            const std::int64_t t = s * kLanes + l;
            std::memcpy(&wv, wk + t * kLanes, sizeof wv);
            lanes[l] = xs[t] * wv + lanes[l];
          }
        for (std::int64_t l = 0; l < kLanes; ++l) acc = acc + lanes[l];
        std::int64_t t = steps * kLanes;
        for (const std::int64_t end = t + rounded; t < end; ++t) {
          std::memcpy(&wv, wk + t * kLanes, sizeof wv);
          acc = acc + __builtin_assoc_barrier(xs[t] * wv);
        }
        for (; t < kernel; ++t) {
          std::memcpy(&wv, wk + t * kLanes, sizeof wv);
          acc = xs[t] * wv + acc;
        }
      }
      for (std::int64_t c = 0; c < nc; ++c)
        out[(b * kLanes + c) * lout + j] = acc[c];
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
