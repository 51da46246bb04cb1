// Dense differentiable operations on ag::Tensor.
//
// Every op returns a new tensor wired into the tape; backward passes compute
// exact gradients (verified against central differences in
// tests/test_tensor_grad.cpp).  Index/selection arguments (row indices,
// segment ids) are plain integer vectors — they are not differentiated.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace amdgcnn::ag::ops {

// ---- Elementwise arithmetic -------------------------------------------------

/// a + b, identical shapes.
Tensor add(const Tensor& a, const Tensor& b);
/// a - b, identical shapes.
Tensor sub(const Tensor& a, const Tensor& b);
/// Hadamard product, identical shapes.
Tensor mul(const Tensor& a, const Tensor& b);
/// a + s (scalar broadcast).
Tensor add_scalar(const Tensor& a, double s);
/// a * s (scalar broadcast).
Tensor mul_scalar(const Tensor& a, double s);
/// [n, m] + [m] row-vector broadcast (bias add).
Tensor add_rowvec(const Tensor& a, const Tensor& bias);

// ---- Linear algebra ---------------------------------------------------------

/// [n, k] x [k, m] -> [n, m].
Tensor matmul(const Tensor& a, const Tensor& b);
/// Fused linear layer: a[n, k] · w[k, m] + bias[m] (row broadcast).
/// One kernel and one tape node instead of matmul + add_rowvec.
Tensor addmm(const Tensor& a, const Tensor& w, const Tensor& bias);
/// relu(addmm(a, w, bias)) fused into a single tape node; the backward pass
/// masks the upstream gradient in-place before the shared matmul backward.
Tensor linear_relu(const Tensor& a, const Tensor& w, const Tensor& bias);
/// tanh(addmm(a, w, bias)) fused into a single tape node.
Tensor linear_tanh(const Tensor& a, const Tensor& w, const Tensor& bias);
/// [n, m] -> [m, n].
Tensor transpose(const Tensor& a);

// ---- Shape manipulation -----------------------------------------------------

/// View with a new shape of equal numel (data copied; gradient flows).
Tensor reshape(const Tensor& a, Shape new_shape);
/// Concatenate rank-2 tensors along columns (same row count).
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Concatenate rank-2 tensors along rows (same column count).
Tensor concat_rows(const std::vector<Tensor>& parts);
/// Rows [start, start+len) of a rank-2 tensor.
Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len);
/// out[i, :] = a[index[i], :]; duplicate indices allowed (grads accumulate).
Tensor gather_rows(const Tensor& a, const std::vector<std::int64_t>& index);
/// out[i, :] = a[i, :] * scale[i] with a constant (non-learned) scale vector.
Tensor scale_rows(const Tensor& a, const std::vector<double>& scale);

// ---- Activations ------------------------------------------------------------

Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, double negative_slope = 0.2);
Tensor tanh_act(const Tensor& a);
Tensor sigmoid(const Tensor& a);

// ---- Reductions / losses ------------------------------------------------------

/// Sum of all elements -> scalar [1].
Tensor sum(const Tensor& a);
/// Mean of all elements -> scalar [1].
Tensor mean(const Tensor& a);
/// Row-wise softmax of a rank-2 tensor (numerically stabilised).
Tensor softmax_rows(const Tensor& a);
/// Row-wise log-softmax of a rank-2 tensor.
Tensor log_softmax_rows(const Tensor& a);
/// Mean negative log-likelihood of log-probabilities at the target classes.
/// `logp` is [n, C]; `targets` holds n class ids in [0, C).
Tensor nll_loss(const Tensor& logp, const std::vector<std::int64_t>& targets);
/// Softmax cross-entropy from raw logits (mean over rows).
Tensor cross_entropy(const Tensor& logits,
                     const std::vector<std::int64_t>& targets);

// ---- Regularisation -----------------------------------------------------------

/// Inverted dropout: in training mode zeroes entries w.p. p and scales the
/// rest by 1/(1-p); identity in eval mode.
Tensor dropout(const Tensor& a, double p, bool training, util::Rng& rng);

// ---- Multi-head attention helpers --------------------------------------------
// Building blocks of the per-op GAT chain (tests/gat_reference.h).  GATConv
// itself runs the fused ops::gat_conv (segment_ops.h), whose backward shares
// their loops (bwd_kernels.h).

/// Per-head dot product against a parameter vector.
/// x: [E, H*F], a: [1, H*F] -> out[e, h] = sum_f x[e, h*F+f] * a[0, h*F+f].
Tensor heads_dot(const Tensor& x, const Tensor& a, std::int64_t heads);
/// Per-head row scaling. x: [E, H*F], alpha: [E, H]
/// -> out[e, h*F+f] = x[e, h*F+f] * alpha[e, h].
Tensor heads_scale(const Tensor& x, const Tensor& alpha, std::int64_t heads);

// ---- Dtype conversion ---------------------------------------------------------

/// Differentiable precision change.  Returns `a` unchanged (same tape node)
/// when the dtype already matches; otherwise the forward narrows/widens the
/// values and the backward casts the gradient back.  Bridges f64 dataset
/// tensors into f32 models and vice versa.
Tensor cast(const Tensor& a, Dtype dtype);

}  // namespace amdgcnn::ag::ops
