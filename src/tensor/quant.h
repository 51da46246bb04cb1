// Quantized weight storage for the frozen inference path (DESIGN.md §2.7).
//
// Two schemes on top of the dtype engine:
//   * kF16 — bit-cast IEEE half storage, table decode (tensor/half.h).
//   * kQ8  — block-quantized int8: 32 consecutive row-major elements share
//     one f32 scale = amax/127; q = round(x·127/amax) ∈ [-127, 127] and
//     dequant = q·scale, so the per-element error is bounded by scale/2.
//     -128 is never produced, which the checkpoint loader uses as a
//     fail-closed garbage detector.
//
// Quantization is a FROZEN-MODEL storage codec: training stays f32/f64, and
// the frozen forward decodes each weight tensor to f32 arena scratch right
// before its stage runs (resident weights stay quantized; the arena holds
// one stage's decoded weights at a time inside a mark/rewind scope), then
// runs the exact f32 kernels.  Both decodes are exact, so a quantized
// model's logits equal, bit for bit, the exact f32 forward of a model whose
// parameters are the decoded values.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/half.h"
#include "tensor/tensor.h"

namespace amdgcnn::ag::quant {

/// Frozen-weight quantization scheme.  kNone keeps the trained f32/f64
/// weights (bit-identical to training).
enum class Scheme : std::uint8_t { kNone = 0, kF16 = 1, kQ8 = 2 };

inline constexpr const char* scheme_name(Scheme s) {
  return s == Scheme::kNone ? "none" : (s == Scheme::kF16 ? "f16" : "q8");
}

/// Elements per q8 block (one f32 scale each).  32 matches the ggml-family
/// block formats and divides every layer width in the model zoo; tails
/// shorter than a block simply quantize as a short block.
inline constexpr std::int64_t kQ8Block = 32;

/// Number of q8 blocks covering n elements.
inline constexpr std::int64_t q8_num_blocks(std::int64_t n) {
  return (n + kQ8Block - 1) / kQ8Block;
}

/// Quantize n f32 values into int8 blocks; `scales` receives
/// q8_num_blocks(n) entries, `q` receives n values in [-127, 127].
/// An all-zero (or all-subnormal-flushed) block gets scale 0 and zeros.
void q8_quantize(const float* x, std::int64_t n, std::int8_t* q,
                 float* scales);

/// dst[i] = q[i] * scales[i / 32]; exact f32 products (q·scale never
/// rounds: the scale's significand gains at most 7 bits).
void q8_dequantize(const std::int8_t* q, const float* scales, float* dst,
                   std::int64_t n);

/// One frozen weight tensor in quantized storage.  Exactly one payload is
/// active, selected by `mode`; decode() expands it into caller storage.
struct QuantizedTensor {
  Scheme mode = Scheme::kNone;
  std::int64_t n = 0;            // element count
  std::vector<f16_t> h;          // kF16 payload
  std::vector<std::int8_t> q;    // kQ8 payload
  std::vector<float> scales;     // kQ8 per-block scales

  /// Payload bytes resident in memory (what the shrink gate measures).
  std::size_t resident_bytes() const {
    return h.size() * sizeof(f16_t) + q.size() * sizeof(std::int8_t) +
           scales.size() * sizeof(float);
  }

  /// Decode the full tensor to f32 into dst[n].
  void decode(float* dst) const;
};

/// Quantize a tensor's values under `scheme` (f64 tensors are narrowed to
/// f32 first — the same cast the f32 training path applies at init).
QuantizedTensor quantize_tensor(const Tensor& t, Scheme scheme);

}  // namespace amdgcnn::ag::quant
