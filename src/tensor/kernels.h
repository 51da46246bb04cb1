// Register-blocked dense kernels shared by the forward and backward passes
// of matmul-family ops (ops.cpp).
//
// All kernels ACCUMULATE into the output (C += ...), matching autograd's
// gradient-accumulation contract; forward passes hand them a zeroed buffer.
// Using the same three kernels for Y = A·B, dA = G·Bᵀ and dB = Aᵀ·G gives
// forward and backward identical cache behaviour and an input-independent
// FLOP count — there is deliberately no zero-skipping (a sparsity
// short-circuit makes throughput depend on whether the features are DRNL
// one-hots or dense embeddings, and turns 0·inf into a silent skip).
//
// Blocking factors target the model's shapes (tens of rows, 16..128
// columns): 4 rows of A/C share one streamed row of B (mm_add, mm_atb_add);
// mm_abt_add transposes B into a scratch first (one L1-sized block at a time
// when G has fewer than 4 rows) so its
// accumulation runs over unit-stride rows too, instead of horizontal dot
// products (an FP reduction is a serial dependency chain the compiler may
// not reassociate, so the dot-product form never vectorises).  The
// unit-stride inner loops vectorise under -O3 -march=native.
//
// Kernels are templated on the scalar type (float or double) and accumulate
// at native width: a matmul is bandwidth-bound at these shapes, so f32
// keeps sgemm-style f32 accumulators — the dtype policy reserves f64
// accumulation for the order-sensitive reductions (sum/softmax/loss), not
// the register-blocked dot products.
//
// All pointer arguments are __restrict__: every caller hands distinct
// buffers (outputs are freshly pooled or are gradient buffers, which never
// alias data buffers), and without the qualifier the compiler must assume
// the `C += v * B[j]` stores could feed back into B, which blocks
// vectorisation of the inner loops entirely (~2x on f64, ~4x on f32 at the
// model's shapes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace amdgcnn::ag::kern {

/// C[n,m] += A[n,k] · B[k,m]   (row-major, unit-stride inner loop over m).
///
/// Register-tiled: full-width column tiles keep a 4×JT block of C in
/// registers across the whole k loop, so C is loaded/stored once per tile
/// instead of once per k step (the dominant traffic of the streaming form).
/// Each C[i,j] is still a single accumulator updated by the same
/// `acc += a·b` expression for k ascending, so every element's rounding
/// sequence — FMA-contracted or not, the expression shape is unchanged — is
/// bitwise identical to the streaming form; tile width and loop nesting only
/// regroup independent accumulator chains.
template <typename T>
inline void mm_add(const T* __restrict__ A, const T* __restrict__ B,
                   T* __restrict__ C, std::int64_t n, std::int64_t k,
                   std::int64_t m) {
  constexpr std::int64_t JT = 128 / static_cast<std::int64_t>(sizeof(T));
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const T* a0 = A + (i + 0) * k;
    const T* a1 = A + (i + 1) * k;
    const T* a2 = A + (i + 2) * k;
    const T* a3 = A + (i + 3) * k;
    T* c0 = C + (i + 0) * m;
    T* c1 = C + (i + 1) * m;
    T* c2 = C + (i + 2) * m;
    T* c3 = C + (i + 3) * m;
    std::int64_t j = 0;
    for (; j + JT <= m; j += JT) {
      T t0[JT], t1[JT], t2[JT], t3[JT];
      for (std::int64_t x = 0; x < JT; ++x) {
        t0[x] = c0[j + x];
        t1[x] = c1[j + x];
        t2[x] = c2[j + x];
        t3[x] = c3[j + x];
      }
      for (std::int64_t p = 0; p < k; ++p) {
        const T* b = B + p * m + j;
        const T v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        for (std::int64_t x = 0; x < JT; ++x) {
          const T bx = b[x];
          t0[x] += v0 * bx;
          t1[x] += v1 * bx;
          t2[x] += v2 * bx;
          t3[x] += v3 * bx;
        }
      }
      for (std::int64_t x = 0; x < JT; ++x) {
        c0[j + x] = t0[x];
        c1[j + x] = t1[x];
        c2[j + x] = t2[x];
        c3[j + x] = t3[x];
      }
    }
    // Column tail: the streaming form — per (i,j) the same ascending-k
    // accumulator chain, so mixing the forms stays bit-exact.
    if (j < m) {
      for (std::int64_t p = 0; p < k; ++p) {
        const T* b = B + p * m;
        const T v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        for (std::int64_t jj = j; jj < m; ++jj) {
          const T bj = b[jj];
          c0[jj] += v0 * bj;
          c1[jj] += v1 * bj;
          c2[jj] += v2 * bj;
          c3[jj] += v3 * bj;
        }
      }
    }
  }
  // Row tail (also the whole of a [1,k]·[k,m] product, e.g. the dense
  // head): same register tiling, one row at a time.
  for (; i < n; ++i) {
    const T* a = A + i * k;
    T* c = C + i * m;
    std::int64_t j = 0;
    for (; j + JT <= m; j += JT) {
      T t0[JT];
      for (std::int64_t x = 0; x < JT; ++x) t0[x] = c[j + x];
      for (std::int64_t p = 0; p < k; ++p) {
        const T* b = B + p * m + j;
        const T v = a[p];
        for (std::int64_t x = 0; x < JT; ++x) t0[x] += v * b[x];
      }
      for (std::int64_t x = 0; x < JT; ++x) c[j + x] = t0[x];
    }
    if (j < m) {
      for (std::int64_t p = 0; p < k; ++p) {
        const T* b = B + p * m;
        const T v = a[p];
        for (std::int64_t jj = j; jj < m; ++jj) c[jj] += v * b[jj];
      }
    }
  }
}

/// Thread-local transpose scratch of at least n elements for mm_abt_add.
/// thread_local keeps it safe under the parallel trainer without touching
/// the tensor buffer pool from a header; it only grows, so alternating
/// shapes never re-zero it.
template <typename T>
inline T* abt_scratch(std::int64_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < static_cast<std::size_t>(n))
    buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

/// mm_abt_add for n < 4 rows — every [1,k] dense-head backward.  A whole
/// transpose costs more than the product here (at [1,256]·[256,128] it
/// writes 32768 elements at a stride of k), so B is transposed one block of
/// Bt rows at a time, sized to stay in L1, and each block is used at once.
/// Every element gets the same updates as on the 4-row path — d[p] +=
/// v·bt[p] for ascending j, the accumulator kept in dA's memory — so a row
/// gets the same bits as it would padded to 4 rows.  (The same sum with the
/// accumulator in a local variable gives different bits under -O3
/// -march=native, which would change training bytes.)
template <typename T>
inline void mm_abt_add_rows(const T* __restrict__ G, const T* __restrict__ B,
                            T* __restrict__ dA, std::int64_t n,
                            std::int64_t k, std::int64_t m) {
  if (n == 0 || k == 0) return;
  constexpr std::int64_t kBlockBytes = 16 * 1024;
  const std::int64_t jb = std::max<std::int64_t>(
      1, std::min<std::int64_t>(m, kBlockBytes / (k * std::int64_t{sizeof(T)})));
  // The transpose fills one cache line of a Bt row per (j, W rows of B):
  // with W a constant it compiles to one strided gather and one contiguous
  // store, about 1.5x faster than a runtime-width inner loop.
  constexpr std::int64_t W = 64 / static_cast<std::int64_t>(sizeof(T));
  T* __restrict__ Bt = abt_scratch<T>(jb * k);
  for (std::int64_t j0 = 0; j0 < m; j0 += jb) {
    const std::int64_t nj = std::min(jb, m - j0);
    std::int64_t p0 = 0;
    for (; p0 + W <= k; p0 += W)
      for (std::int64_t j = 0; j < nj; ++j)
        for (std::int64_t x = 0; x < W; ++x)
          Bt[j * k + p0 + x] = B[(p0 + x) * m + j0 + j];
    for (std::int64_t p = p0; p < k; ++p)
      for (std::int64_t j = 0; j < nj; ++j) Bt[j * k + p] = B[p * m + j0 + j];
    for (std::int64_t i = 0; i < n; ++i) {
      const T* g = G + i * m + j0;
      T* d = dA + i * k;
      for (std::int64_t j = 0; j < nj; ++j) {
        const T* bt = Bt + j * k;
        const T v = g[j];
        for (std::int64_t p = 0; p < k; ++p) d[p] += v * bt[p];
      }
    }
  }
}

/// dA[n,k] += G[n,m] · Bᵀ  with B stored as [k,m].  B is transposed into a
/// thread-local scratch ([m,k]: 4 KB for a [32,32] GNN weight at f32) so
/// the accumulation becomes the same unit-stride outer-product loop as
/// mm_add: dA[i,:] += G[i,j] · Bt[j,:].  The dot-product formulation this
/// replaces could not vectorise (serial FP reduction chains) and dominated
/// the backward pass.  Fewer than 4 rows take mm_abt_add_rows: there the
/// whole scratch would be written for one use of each element (128 KB at
/// f32, 256 KB at f64 for the [256,128] dense-head weight).
template <typename T>
inline void mm_abt_add(const T* __restrict__ G, const T* __restrict__ B,
                       T* __restrict__ dA, std::int64_t n, std::int64_t k,
                       std::int64_t m) {
  if (n < 4) {
    mm_abt_add_rows(G, B, dA, n, k, m);
    return;
  }
  T* __restrict__ Bt = abt_scratch<T>(k * m);
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < m; ++j) Bt[j * k + p] = B[p * m + j];
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const T* g0 = G + (i + 0) * m;
    const T* g1 = G + (i + 1) * m;
    const T* g2 = G + (i + 2) * m;
    const T* g3 = G + (i + 3) * m;
    T* d0 = dA + (i + 0) * k;
    T* d1 = dA + (i + 1) * k;
    T* d2 = dA + (i + 2) * k;
    T* d3 = dA + (i + 3) * k;
    for (std::int64_t j = 0; j < m; ++j) {
      const T* bt = Bt + j * k;
      const T v0 = g0[j], v1 = g1[j], v2 = g2[j], v3 = g3[j];
      for (std::int64_t p = 0; p < k; ++p) {
        const T btp = bt[p];
        d0[p] += v0 * btp;
        d1[p] += v1 * btp;
        d2[p] += v2 * btp;
        d3[p] += v3 * btp;
      }
    }
  }
  for (; i < n; ++i) {
    const T* g = G + i * m;
    T* d = dA + i * k;
    for (std::int64_t j = 0; j < m; ++j) {
      const T* bt = Bt + j * k;
      const T v = g[j];
      for (std::int64_t p = 0; p < k; ++p) d[p] += v * bt[p];
    }
  }
}

/// dB[k,m] += Aᵀ · G  with A stored as [n,k], G as [n,m]  (4 samples of A/G
/// combine per pass over the dB rows).
template <typename T>
inline void mm_atb_add(const T* __restrict__ A, const T* __restrict__ G,
                       T* __restrict__ dB, std::int64_t n, std::int64_t k,
                       std::int64_t m) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const T* a0 = A + (i + 0) * k;
    const T* a1 = A + (i + 1) * k;
    const T* a2 = A + (i + 2) * k;
    const T* a3 = A + (i + 3) * k;
    const T* g0 = G + (i + 0) * m;
    const T* g1 = G + (i + 1) * m;
    const T* g2 = G + (i + 2) * m;
    const T* g3 = G + (i + 3) * m;
    for (std::int64_t p = 0; p < k; ++p) {
      T* b = dB + p * m;
      const T v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      for (std::int64_t j = 0; j < m; ++j)
        b[j] += v0 * g0[j] + v1 * g1[j] + v2 * g2[j] + v3 * g3[j];
    }
  }
  for (; i < n; ++i) {
    const T* a = A + i * k;
    const T* g = G + i * m;
    for (std::int64_t p = 0; p < k; ++p) {
      T* b = dB + p * m;
      const T v = a[p];
      for (std::int64_t j = 0; j < m; ++j) b[j] += v * g[j];
    }
  }
}

/// out[m] += column sums of G[n,m]  (bias gradient).
template <typename T>
inline void col_sum_add(const T* __restrict__ G, T* __restrict__ out,
                        std::int64_t n, std::int64_t m) {
  for (std::int64_t i = 0; i < n; ++i) {
    const T* g = G + i * m;
    for (std::int64_t j = 0; j < m; ++j) out[j] += g[j];
  }
}

}  // namespace amdgcnn::ag::kern
