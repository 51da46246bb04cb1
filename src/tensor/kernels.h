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
// columns).  mm_add holds its C tiles in GNU vector accumulators (4 rows × 2
// vectors of 64 bytes, one row × up to 8 vectors for the dense head) across
// the whole reduction, each step a whole-vector `a * b + c`, so the forward
// projections neither spill their tile nor leave contraction to the loop
// vectorizer.  mm_atb_add streams rows of B past 4 rows of A/G; mm_abt_add
// transposes B into a scratch first (one L1-sized block at a time when G
// has fewer than 4 rows) so its accumulation runs over unit-stride rows
// too, instead of horizontal dot products (an FP reduction is a serial
// dependency chain the compiler may not reassociate, so the dot-product
// form never vectorises).  Their unit-stride inner loops vectorise under
// -O3 -march=native.
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
#include <cstring>
#include <vector>

namespace amdgcnn::ag::kern {

/// GNU vector of N elements of T.  Plain element-wise arithmetic on it maps
/// onto the target's SIMD registers without intrinsics or runtime dispatch;
/// without SIMD support for a width GCC splits it into narrower operations.
/// Vectors are loaded and stored with memcpy (unaligned) and never passed
/// or returned by value, which would depend on the target's vector ABI.
template <typename T, int N>
using Vec [[gnu::vector_size(N * sizeof(T))]] = T;

/// Elements of T in one 64-byte vector.
template <typename T>
inline constexpr int kLanes = 64 / static_cast<int>(sizeof(T));

namespace detail {

/// C[R, NV*L] += A[R, k] · B[k, NV*L] on one register tile (L = kLanes<T>,
/// A, B and C at the tile's origin, row strides k and m): the R*NV vector
/// accumulators stay in registers across the whole k loop, so C is loaded
/// and stored once per tile.  Every element runs one chain
/// `acc = a * b + acc` for p ascending, written on whole vectors, which GCC
/// contracts into one FMA per step wherever the target has FMA.
template <typename T, int R, int NV>
inline void mm_tile(const T* __restrict__ A, const T* __restrict__ B,
                    T* __restrict__ C, std::int64_t k, std::int64_t m) {
  constexpr int L = kLanes<T>;
  using V = Vec<T, L>;
  V acc[R][NV];
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < NV; ++v)
      std::memcpy(&acc[r][v], C + r * m + v * L, sizeof(V));
  for (std::int64_t p = 0; p < k; ++p) {
    V b[NV];
    for (int v = 0; v < NV; ++v)
      std::memcpy(&b[v], B + p * m + v * L, sizeof(V));
    for (int r = 0; r < R; ++r) {
      const T a = A[r * k + p];
      for (int v = 0; v < NV; ++v) acc[r][v] = a * b[v] + acc[r][v];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < NV; ++v)
      std::memcpy(C + r * m + v * L, &acc[r][v], sizeof(V));
}

/// Columns [j0, m) of C[n,m] += A[n,k] · B[k,m], fewer than one vector wide
/// (the whole of a 1-column product such as the last GAT layer's).  One
/// column at a time, eight of its rows per vector, A's column gathered
/// element by element; rows past n repeat row n - 1 and their sums are
/// dropped.  The same chain per element as mm_tile.  The accumulators must
/// be GNU vectors: as a scalar array, GCC vectorized the p loop as an
/// in-order reduction, computing the products as a vector apart from the
/// adds, so the steps were no longer fused.
template <typename T>
inline void mm_narrow(const T* __restrict__ A, const T* __restrict__ B,
                      T* __restrict__ C, std::int64_t n, std::int64_t k,
                      std::int64_t m, std::int64_t j0) {
  constexpr int R = 8;
  using V = Vec<T, R>;
  for (std::int64_t j = j0; j < m; ++j)
    for (std::int64_t i0 = 0; i0 < n; i0 += R) {
      const T* a[R];
      T c[R];
      for (int q = 0; q < R; ++q) {
        const std::int64_t i = std::min<std::int64_t>(i0 + q, n - 1);
        a[q] = A + i * k;
        c[q] = C[i * m + j];
      }
      V acc;
      std::memcpy(&acc, c, sizeof acc);
      for (std::int64_t p = 0; p < k; ++p) {
        V av;
        for (int q = 0; q < R; ++q) av[q] = a[q][p];
        acc = av * B[p * m + j] + acc;
      }
      const std::int64_t rows = std::min<std::int64_t>(R, n - i0);
      for (std::int64_t q = 0; q < rows; ++q) C[(i0 + q) * m + j] = acc[q];
    }
}

}  // namespace detail

/// C[n,m] += A[n,k] · B[k,m]   (row-major).
///
/// Register-tiled on GNU vectors of kLanes<T> elements (64 bytes): blocks
/// of 4 rows × 2 vectors, then 4 × 1; leftover rows (all of a [1,k]·[k,m]
/// dense-head product) take 1 × 8, 4, 2 and 1 vectors; the columns past the
/// last whole vector run mm_narrow.  Every element C[i,j] is one
/// accumulator chain `acc = A[i,p] * B[p,j] + acc`, p ascending, from C's
/// value: one fused multiply-add per step where the target has FMA, a
/// rounded product and a rounded add where it does not (the sanitizer tree
/// has no -march).  Tile shapes only regroup independent chains, so every
/// path gives the same bits (tests/matmul_reference.h writes the chain out;
/// MatmulOracle.* compares every element).
template <typename T>
inline void mm_add(const T* __restrict__ A, const T* __restrict__ B,
                   T* __restrict__ C, std::int64_t n, std::int64_t k,
                   std::int64_t m) {
  constexpr std::int64_t L = kLanes<T>;
  const std::int64_t mv = m - m % L;  // columns in whole vectors
  const std::int64_t n4 = n - n % 4;  // rows in whole 4-row blocks
  for (std::int64_t i = 0; i < n4; i += 4) {
    const T* a = A + i * k;
    T* c = C + i * m;
    std::int64_t j = 0;
    for (; j + 2 * L <= mv; j += 2 * L)
      detail::mm_tile<T, 4, 2>(a, B + j, c + j, k, m);
    if (j < mv) detail::mm_tile<T, 4, 1>(a, B + j, c + j, k, m);
  }
  for (std::int64_t i = n4; i < n; ++i) {
    const T* a = A + i * k;
    T* c = C + i * m;
    std::int64_t j = 0;
    for (; j + 8 * L <= mv; j += 8 * L)
      detail::mm_tile<T, 1, 8>(a, B + j, c + j, k, m);
    if (j + 4 * L <= mv) {
      detail::mm_tile<T, 1, 4>(a, B + j, c + j, k, m);
      j += 4 * L;
    }
    if (j + 2 * L <= mv) {
      detail::mm_tile<T, 1, 2>(a, B + j, c + j, k, m);
      j += 2 * L;
    }
    if (j < mv) detail::mm_tile<T, 1, 1>(a, B + j, c + j, k, m);
  }
  if (mv < m && n > 0) detail::mm_narrow(A, B, C, n, k, m, mv);
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
