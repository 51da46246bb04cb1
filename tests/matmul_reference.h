// Scalar reference of the dense product kern::mm_add, C[n,m] += A[n,k] ·
// B[k,m], with its rounding written out: every element is one accumulator
// chain from C's value, acc = fused(A[i,p], B[p,j], acc) for p ascending.
// The kernel holds register tiles of such chains as GNU vectors; this
// oracle walks one element at a time, so a bit-for-bit match checks that
// no tile shape regroups or re-rounds a chain.  "Fused" is as in
// tests/conv_reference.h: one rounding where the build has FMA
// instructions, a rounded product and a rounded add where it does not.
#pragma once

#include <cstdint>

#include "conv_reference.h"

namespace amdgcnn::testing {

template <typename T>
void mm_add_reference(const T* A, const T* B, T* C, std::int64_t n,
                      std::int64_t k, std::int64_t m) {
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < m; ++j) {
      T acc = C[i * m + j];
      for (std::int64_t p = 0; p < k; ++p)
        acc = conv_ref_detail::fused(A[i * k + p], B[p * m + j], acc);
      C[i * m + j] = acc;
    }
}

}  // namespace amdgcnn::testing
