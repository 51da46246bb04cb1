// Dtype-generic implementations of the dense differentiable ops.
//
// Every op is written once as a `template <typename T>` implementation over
// the tensor's scalar type and dispatched per call on the input dtype
// (AG_DISPATCH).  The dtype policy (DESIGN.md §2.3): storage, matmul kernels
// and elementwise math run at the tensor's native width; the order-sensitive
// accumulations — sum/mean, softmax and log-softmax normalisers, nll_loss,
// heads_dot products — run in f64 for both dtypes so f32 training keeps the
// same numerical contract (and the same bit-determinism guarantees) as f64.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/bwd_kernels.h"
#include "tensor/fwd_kernels.h"
#include "tensor/kernels.h"

namespace amdgcnn::ag::ops {

namespace {

/// Expands to the f32 or f64 instantiation of `fn` based on `dt`.
#define AG_DISPATCH(dt, fn, ...) \
  ((dt) == Dtype::f32 ? fn<float>(__VA_ARGS__) : fn<double>(__VA_ARGS__))

/// True when gradient must be accumulated into `t` during backward.
bool wants_grad(const Tensor& t) { return t.requires_grad(); }

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape())
    fail(std::string(op) + ": shape mismatch " + shape_str(a.shape()) +
         " vs " + shape_str(b.shape()));
}

void check_same_dtype(const Tensor& a, const Tensor& b, const char* op) {
  if (a.dtype() != b.dtype())
    fail(std::string(op) + ": dtype mismatch " +
         std::string(dtype_name(a.dtype())) + " vs " + dtype_name(b.dtype()) +
         " (insert ops::cast)");
}

void check_rank2(const Tensor& a, const char* op) {
  if (a.rank() != 2)
    fail(std::string(op) + ": expected rank-2 tensor, got " +
         shape_str(a.shape()));
}

void check_linear_shapes(const Tensor& a, const Tensor& w, const Tensor& bias,
                         const char* op) {
  check_rank2(a, op);
  check_rank2(w, op);
  check_same_dtype(a, w, op);
  check_same_dtype(a, bias, op);
  if (a.dim(1) != w.dim(0))
    fail(std::string(op) + ": inner dimensions differ, " +
         shape_str(a.shape()) + " x " + shape_str(w.shape()));
  if (bias.numel() != w.dim(1))
    fail(std::string(op) + ": bias length " + std::to_string(bias.numel()) +
         " vs columns " + std::to_string(w.dim(1)));
}

/// Forward of the fused linear family: out = a·w + bias (row broadcast).
/// The math lives in fwd::linear_fwd so the frozen inference path runs the
/// exact same instantiation (fwd_kernels.h).
template <typename T>
std::vector<T> linear_forward(const Tensor& a, const Tensor& w,
                              const Tensor& bias) {
  const std::int64_t n = a.dim(0), k = a.dim(1), m = w.dim(1);
  std::vector<T> out = detail::new_buffer_t<T>(static_cast<std::size_t>(n * m));
  fwd::linear_fwd(a.data_as<T>().data(), w.data_as<T>().data(),
                  bias.data_as<T>().data(), out.data(), n, k, m);
  return out;
}

/// Backward of the fused linear family given the post-activation gradient
/// `gz` (already masked/scaled by the activation derivative).
template <typename T>
void linear_backward(const Tensor& a, const Tensor& w, const Tensor& bias,
                     const T* gz, std::int64_t n, std::int64_t k,
                     std::int64_t m) {
  if (wants_grad(a))
    kern::mm_abt_add(gz, w.data_as<T>().data(),
                     detail::grad_of<T>(*a.impl()).data(), n, k, m);
  if (wants_grad(w))
    kern::mm_atb_add(a.data_as<T>().data(), gz,
                     detail::grad_of<T>(*w.impl()).data(), n, k, m);
  if (wants_grad(bias))
    kern::col_sum_add(gz, detail::grad_of<T>(*bias.impl()).data(), n, m);
}

// ---- Elementwise arithmetic -------------------------------------------------

template <typename T>
Tensor add_impl(const Tensor& a, const Tensor& b) {
  const auto& av = a.data_as<T>();
  const auto& bv = b.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] + bv[i];
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a, b}, [a, b](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        if (wants_grad(a)) {
          auto& ga = detail::grad_of<T>(*a.impl());
          for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i];
        }
        if (wants_grad(b)) {
          auto& gb = detail::grad_of<T>(*b.impl());
          for (std::size_t i = 0; i < sg.size(); ++i) gb[i] += sg[i];
        }
      });
}

template <typename T>
Tensor sub_impl(const Tensor& a, const Tensor& b) {
  const auto& av = a.data_as<T>();
  const auto& bv = b.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] - bv[i];
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a, b}, [a, b](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        if (wants_grad(a)) {
          auto& ga = detail::grad_of<T>(*a.impl());
          for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i];
        }
        if (wants_grad(b)) {
          auto& gb = detail::grad_of<T>(*b.impl());
          for (std::size_t i = 0; i < sg.size(); ++i) gb[i] -= sg[i];
        }
      });
}

template <typename T>
Tensor mul_impl(const Tensor& a, const Tensor& b) {
  const auto& av = a.data_as<T>();
  const auto& bv = b.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] * bv[i];
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a, b}, [a, b](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        if (wants_grad(a)) {
          auto& ga = detail::grad_of<T>(*a.impl());
          const auto& bd = b.data_as<T>();
          for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i] * bd[i];
        }
        if (wants_grad(b)) {
          auto& gb = detail::grad_of<T>(*b.impl());
          const auto& ad = a.data_as<T>();
          for (std::size_t i = 0; i < sg.size(); ++i) gb[i] += sg[i] * ad[i];
        }
      });
}

template <typename T>
Tensor add_scalar_impl(const Tensor& a, double s) {
  const auto& av = a.data_as<T>();
  const T sv = static_cast<T>(s);
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] + sv;
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i];
      });
}

template <typename T>
Tensor mul_scalar_impl(const Tensor& a, double s) {
  const auto& av = a.data_as<T>();
  const T sv = static_cast<T>(s);
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = av[i] * sv;
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a, sv](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i] * sv;
      });
}

template <typename T>
Tensor add_rowvec_impl(const Tensor& a, const Tensor& bias) {
  const std::int64_t n = a.dim(0), m = a.dim(1);
  const auto& av = a.data_as<T>();
  const auto& bv = bias.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::int64_t r = 0; r < n; ++r)
    for (std::int64_t c = 0; c < m; ++c) out[r * m + c] = av[r * m + c] + bv[c];
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a, bias},
      [a, bias, n, m](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        if (wants_grad(a)) {
          auto& ga = detail::grad_of<T>(*a.impl());
          for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i];
        }
        if (wants_grad(bias))
          kern::col_sum_add(sg.data(), detail::grad_of<T>(*bias.impl()).data(),
                            n, m);
      });
}

// ---- Linear algebra ---------------------------------------------------------

template <typename T>
Tensor matmul_impl(const Tensor& a, const Tensor& b) {
  const std::int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  std::vector<T> out = detail::new_zeroed_t<T>(static_cast<std::size_t>(n * m));
  kern::mm_add(a.data_as<T>().data(), b.data_as<T>().data(), out.data(), n, k,
               m);
  return Tensor::make_op_result(
      {n, m}, std::move(out), {a, b},
      [a, b, n, k, m](detail::TensorImpl& self) {
        // dA = dOut · Bᵀ; dB = Aᵀ · dOut — same blocked kernels as forward.
        const auto& sg = self.grad_as<T>();
        if (wants_grad(a))
          kern::mm_abt_add(sg.data(), b.data_as<T>().data(),
                           detail::grad_of<T>(*a.impl()).data(), n, k, m);
        if (wants_grad(b))
          kern::mm_atb_add(a.data_as<T>().data(), sg.data(),
                           detail::grad_of<T>(*b.impl()).data(), n, k, m);
      });
}

template <typename T>
Tensor addmm_impl(const Tensor& a, const Tensor& w, const Tensor& bias) {
  const std::int64_t n = a.dim(0), k = a.dim(1), m = w.dim(1);
  return Tensor::make_op_result(
      {n, m}, linear_forward<T>(a, w, bias), {a, w, bias},
      [a, w, bias, n, k, m](detail::TensorImpl& self) {
        linear_backward<T>(a, w, bias, self.grad_as<T>().data(), n, k, m);
      });
}

template <typename T>
Tensor linear_relu_impl(const Tensor& a, const Tensor& w, const Tensor& bias) {
  const std::int64_t n = a.dim(0), k = a.dim(1), m = w.dim(1);
  std::vector<T> out = linear_forward<T>(a, w, bias);
  for (auto& v : out) v = v > T(0) ? v : T(0);
  return Tensor::make_op_result(
      {n, m}, std::move(out), {a, w, bias},
      [a, w, bias, n, k, m](detail::TensorImpl& self) {
        // Mask the upstream gradient by the activation before the shared
        // matmul backward; the temporary comes from (and returns to) the pool.
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        std::vector<T> gz = detail::new_buffer_t<T>(sg.size());
        for (std::size_t i = 0; i < gz.size(); ++i)
          gz[i] = sd[i] > T(0) ? sg[i] : T(0);
        linear_backward<T>(a, w, bias, gz.data(), n, k, m);
        detail::pool_of<T>().release(std::move(gz));
      });
}

template <typename T>
Tensor linear_tanh_impl(const Tensor& a, const Tensor& w, const Tensor& bias) {
  const std::int64_t n = a.dim(0), k = a.dim(1), m = w.dim(1);
  std::vector<T> out = linear_forward<T>(a, w, bias);
  fwd::tanh_inplace(out.data(), static_cast<std::int64_t>(out.size()));
  return Tensor::make_op_result(
      {n, m}, std::move(out), {a, w, bias},
      [a, w, bias, n, k, m](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        std::vector<T> gz = detail::new_buffer_t<T>(sg.size());
        for (std::size_t i = 0; i < gz.size(); ++i) {
          const T y = sd[i];
          gz[i] = sg[i] * (T(1) - y * y);
        }
        linear_backward<T>(a, w, bias, gz.data(), n, k, m);
        detail::pool_of<T>().release(std::move(gz));
      });
}

template <typename T>
Tensor transpose_impl(const Tensor& a) {
  const std::int64_t n = a.dim(0), m = a.dim(1);
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::int64_t r = 0; r < n; ++r)
    for (std::int64_t c = 0; c < m; ++c) out[c * n + r] = av[r * m + c];
  return Tensor::make_op_result(
      {m, n}, std::move(out), {a}, [a, n, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::int64_t r = 0; r < n; ++r)
          for (std::int64_t c = 0; c < m; ++c)
            ga[r * m + c] += sg[c * n + r];
      });
}

// ---- Shape manipulation -----------------------------------------------------

template <typename T>
Tensor reshape_impl(const Tensor& a, Shape new_shape) {
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  std::copy(av.begin(), av.end(), out.begin());
  return Tensor::make_op_result(
      std::move(new_shape), std::move(out), {a},
      [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i) ga[i] += sg[i];
      });
}

template <typename T>
Tensor concat_cols_impl(const std::vector<Tensor>& parts) {
  const std::int64_t n = parts[0].dim(0);
  std::int64_t total_cols = 0;
  for (const auto& p : parts) total_cols += p.dim(1);
  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(n * total_cols));
  std::int64_t col_off = 0;
  for (const auto& p : parts) {
    const std::int64_t m = p.dim(1);
    const auto& pd = p.data_as<T>();
    for (std::int64_t r = 0; r < n; ++r)
      for (std::int64_t c = 0; c < m; ++c)
        out[r * total_cols + col_off + c] = pd[r * m + c];
    col_off += m;
  }
  auto parts_copy = parts;
  return Tensor::make_op_result(
      {n, total_cols}, std::move(out), parts,
      [parts_copy, n, total_cols](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        std::int64_t off = 0;
        for (const auto& p : parts_copy) {
          const std::int64_t m = p.dim(1);
          if (wants_grad(p)) {
            auto& gp = detail::grad_of<T>(*p.impl());
            for (std::int64_t r = 0; r < n; ++r)
              for (std::int64_t c = 0; c < m; ++c)
                gp[r * m + c] += sg[r * total_cols + off + c];
          }
          off += m;
        }
      });
}

template <typename T>
Tensor concat_rows_impl(const std::vector<Tensor>& parts) {
  const std::int64_t m = parts[0].dim(1);
  std::int64_t total_rows = 0;
  for (const auto& p : parts) total_rows += p.dim(0);
  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(total_rows * m));
  std::size_t off = 0;
  for (const auto& p : parts) {
    const auto& pd = p.data_as<T>();
    std::copy(pd.begin(), pd.end(), out.begin() + off);
    off += pd.size();
  }
  auto parts_copy = parts;
  return Tensor::make_op_result(
      {total_rows, m}, std::move(out), parts,
      [parts_copy](detail::TensorImpl& self) {
        const auto& sg = self.grad_as<T>();
        std::size_t off = 0;
        for (const auto& p : parts_copy) {
          const std::size_t sz = p.data_as<T>().size();
          if (wants_grad(p)) {
            auto& gp = detail::grad_of<T>(*p.impl());
            for (std::size_t i = 0; i < sz; ++i) gp[i] += sg[off + i];
          }
          off += sz;
        }
      });
}

template <typename T>
Tensor slice_rows_impl(const Tensor& a, std::int64_t start, std::int64_t len) {
  const std::int64_t m = a.dim(1);
  std::vector<T> out = detail::new_buffer_t<T>(static_cast<std::size_t>(len * m));
  std::copy_n(a.data_as<T>().begin() + start * m, len * m, out.begin());
  return Tensor::make_op_result(
      {len, m}, std::move(out), {a},
      [a, start, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i)
          ga[static_cast<std::size_t>(start * m) + i] += sg[i];
      });
}

template <typename T>
Tensor gather_rows_impl(const Tensor& a,
                        const std::vector<std::int64_t>& index) {
  const std::int64_t m = a.dim(1);
  const auto e = static_cast<std::int64_t>(index.size());
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(static_cast<std::size_t>(e * m));
  for (std::int64_t r = 0; r < e; ++r)
    std::copy_n(av.begin() + index[r] * m, m, out.begin() + r * m);
  return Tensor::make_op_result(
      {e, m}, std::move(out), {a},
      [a, index, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t r = 0; r < index.size(); ++r)
          for (std::int64_t c = 0; c < m; ++c)
            ga[index[r] * m + c] += sg[r * m + c];
      });
}

template <typename T>
Tensor scale_rows_impl(const Tensor& a, const std::vector<double>& scale) {
  const std::int64_t n = a.dim(0), m = a.dim(1);
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::int64_t r = 0; r < n; ++r) {
    const T s = static_cast<T>(scale[r]);
    for (std::int64_t c = 0; c < m; ++c) out[r * m + c] = av[r * m + c] * s;
  }
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a},
      [a, scale, n, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::int64_t r = 0; r < n; ++r) {
          const T s = static_cast<T>(scale[r]);
          for (std::int64_t c = 0; c < m; ++c)
            ga[r * m + c] += sg[r * m + c] * s;
        }
      });
}

// ---- Activations ------------------------------------------------------------

template <typename T>
Tensor relu_impl(const Tensor& a) {
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = av[i] > T(0) ? av[i] : T(0);
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        const auto& ad = a.data_as<T>();
        for (std::size_t i = 0; i < sg.size(); ++i)
          if (ad[i] > T(0)) ga[i] += sg[i];
      });
}

template <typename T>
Tensor leaky_relu_impl(const Tensor& a, double negative_slope) {
  const auto& av = a.data_as<T>();
  const T slope = static_cast<T>(negative_slope);
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = av[i] > T(0) ? av[i] : slope * av[i];
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a},
      [a, slope](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        bwd::leaky_relu_bwd(sg.data(), a.data_as<T>().data(), slope,
                            detail::grad_of<T>(*a.impl()).data(),
                            static_cast<std::int64_t>(sg.size()));
      });
}

template <typename T>
Tensor tanh_act_impl(const Tensor& a) {
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  std::copy(av.begin(), av.end(), out.begin());
  fwd::tanh_inplace(out.data(), static_cast<std::int64_t>(out.size()));
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i) {
          const T y = sd[i];
          ga[i] += sg[i] * (T(1) - y * y);
        }
      });
}

template <typename T>
Tensor sigmoid_impl(const Tensor& a) {
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = T(1) / (T(1) + std::exp(-av[i]));
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i) {
          const T y = sd[i];
          ga[i] += sg[i] * y * (T(1) - y);
        }
      });
}

// ---- Reductions / losses ----------------------------------------------------

template <typename T>
Tensor sum_impl(const Tensor& a) {
  // f64 accumulation regardless of storage dtype (dtype policy).
  double total = 0.0;
  for (T v : a.data_as<T>()) total += static_cast<double>(v);
  std::vector<T> out(1, static_cast<T>(total));
  return Tensor::make_op_result(
      {1}, std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const T g = self.grad_as<T>()[0];
        auto& ga = detail::grad_of<T>(*a.impl());
        for (auto& gv : ga) gv += g;
      });
}

template <typename T>
Tensor mean_impl(const Tensor& a) {
  double total = 0.0;
  for (T v : a.data_as<T>()) total += static_cast<double>(v);
  const double inv = 1.0 / static_cast<double>(a.numel());
  std::vector<T> out(1, static_cast<T>(total * inv));
  return Tensor::make_op_result(
      {1}, std::move(out), {a}, [a, inv](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const T g = static_cast<T>(self.grad_as<T>()[0] * inv);
        auto& ga = detail::grad_of<T>(*a.impl());
        for (auto& gv : ga) gv += g;
      });
}

template <typename T>
Tensor softmax_rows_impl(const Tensor& a) {
  const std::int64_t n = a.dim(0), m = a.dim(1);
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  // Shared forward (f64 normaliser per the dtype policy) — fwd_kernels.h.
  fwd::softmax_rows_fwd(av.data(), out.data(), n, m);
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a, n, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::int64_t r = 0; r < n; ++r) {
          double dot = 0.0;
          for (std::int64_t c = 0; c < m; ++c)
            dot += static_cast<double>(sg[r * m + c]) *
                   static_cast<double>(sd[r * m + c]);
          for (std::int64_t c = 0; c < m; ++c)
            ga[r * m + c] += static_cast<T>(
                static_cast<double>(sd[r * m + c]) *
                (static_cast<double>(sg[r * m + c]) - dot));
        }
      });
}

template <typename T>
Tensor log_softmax_rows_impl(const Tensor& a) {
  const std::int64_t n = a.dim(0), m = a.dim(1);
  const auto& av = a.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::int64_t r = 0; r < n; ++r) {
    double mx = -std::numeric_limits<double>::infinity();
    for (std::int64_t c = 0; c < m; ++c)
      mx = std::max(mx, static_cast<double>(av[r * m + c]));
    double z = 0.0;
    for (std::int64_t c = 0; c < m; ++c)
      z += std::exp(static_cast<double>(av[r * m + c]) - mx);
    const double logz = mx + std::log(z);
    for (std::int64_t c = 0; c < m; ++c)
      out[r * m + c] = static_cast<T>(static_cast<double>(av[r * m + c]) - logz);
  }
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a, n, m](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        const auto& sd = self.data_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::int64_t r = 0; r < n; ++r) {
          double gsum = 0.0;
          for (std::int64_t c = 0; c < m; ++c)
            gsum += static_cast<double>(sg[r * m + c]);
          for (std::int64_t c = 0; c < m; ++c)
            ga[r * m + c] += static_cast<T>(
                static_cast<double>(sg[r * m + c]) -
                std::exp(static_cast<double>(sd[r * m + c])) * gsum);
        }
      });
}

template <typename T>
Tensor nll_loss_impl(const Tensor& logp,
                     const std::vector<std::int64_t>& targets) {
  const std::int64_t n = logp.dim(0), m = logp.dim(1);
  double loss = 0.0;
  const auto& lp = logp.data_as<T>();
  for (std::int64_t r = 0; r < n; ++r) {
    check(targets[r] >= 0 && targets[r] < m,
          "nll_loss: target class out of range");
    loss -= static_cast<double>(lp[r * m + targets[r]]);
  }
  const double inv = 1.0 / static_cast<double>(n);
  std::vector<T> out(1, static_cast<T>(loss * inv));
  return Tensor::make_op_result(
      {1}, std::move(out), {logp},
      [logp, targets, m, inv](detail::TensorImpl& self) {
        if (!wants_grad(logp)) return;
        const T g = static_cast<T>(self.grad_as<T>()[0] * inv);
        auto& ga = detail::grad_of<T>(*logp.impl());
        for (std::size_t r = 0; r < targets.size(); ++r)
          ga[r * m + targets[r]] -= g;
      });
}

// ---- Regularisation ---------------------------------------------------------

template <typename T>
Tensor dropout_impl(const Tensor& a, double p, util::Rng& rng) {
  const double keep = 1.0 - p;
  const auto& av = a.data_as<T>();
  auto mask = std::make_shared<std::vector<T>>(av.size());
  std::vector<T> out = detail::new_buffer_t<T>(av.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    (*mask)[i] = rng.bernoulli(keep) ? static_cast<T>(1.0 / keep) : T(0);
    out[i] = av[i] * (*mask)[i];
  }
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a, mask](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<T>();
        auto& ga = detail::grad_of<T>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i)
          ga[i] += sg[i] * (*mask)[i];
      });
}

// ---- Multi-head attention helpers -------------------------------------------

template <typename T>
Tensor heads_dot_impl(const Tensor& x, const Tensor& a, std::int64_t heads) {
  const std::int64_t e = x.dim(0), hf = x.dim(1);
  const auto& xd = x.data_as<T>();
  const auto& ad = a.data_as<T>();
  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(e * heads));
  // Shared lane-split f64 forward (fwd_kernels.h) — the frozen inference
  // path runs the same instantiation, which is what makes its logits
  // bit-identical to training.
  fwd::heads_dot_fwd(xd.data(), ad.data(), out.data(), e, hf, heads);
  return Tensor::make_op_result(
      {e, heads}, std::move(out), {x, a},
      [x, a, e, heads, hf](detail::TensorImpl& self) {
        bwd::heads_dot_bwd(
            self.grad_as<T>().data(), a.data_as<T>().data(),
            x.data_as<T>().data(), nullptr,
            wants_grad(x) ? detail::grad_of<T>(*x.impl()).data() : nullptr,
            wants_grad(a) ? detail::grad_of<T>(*a.impl()).data() : nullptr, e,
            hf, heads);
      });
}

template <typename T>
Tensor heads_scale_impl(const Tensor& x, const Tensor& alpha,
                        std::int64_t heads) {
  const std::int64_t e = x.dim(0), hf = x.dim(1);
  const auto& xd = x.data_as<T>();
  const auto& al = alpha.data_as<T>();
  std::vector<T> out = detail::new_buffer_t<T>(xd.size());
  fwd::heads_scale_fwd(xd.data(), al.data(), out.data(), e, hf, heads);
  return Tensor::make_op_result(
      x.shape(), std::move(out), {x, alpha},
      [x, alpha, e, heads, hf](detail::TensorImpl& self) {
        bwd::heads_scale_bwd(
            self.grad_as<T>().data(), alpha.data_as<T>().data(),
            x.data_as<T>().data(),
            wants_grad(x) ? detail::grad_of<T>(*x.impl()).data() : nullptr,
            wants_grad(alpha) ? detail::grad_of<T>(*alpha.impl()).data()
                              : nullptr,
            e, hf, heads);
      });
}

}  // namespace

// ---- Public dispatchers -----------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  check_same_dtype(a, b, "add");
  return AG_DISPATCH(a.dtype(), add_impl, a, b);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  check_same_dtype(a, b, "sub");
  return AG_DISPATCH(a.dtype(), sub_impl, a, b);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  check_same_dtype(a, b, "mul");
  return AG_DISPATCH(a.dtype(), mul_impl, a, b);
}

Tensor add_scalar(const Tensor& a, double s) {
  return AG_DISPATCH(a.dtype(), add_scalar_impl, a, s);
}

Tensor mul_scalar(const Tensor& a, double s) {
  return AG_DISPATCH(a.dtype(), mul_scalar_impl, a, s);
}

Tensor add_rowvec(const Tensor& a, const Tensor& bias) {
  check_rank2(a, "add_rowvec");
  check_same_dtype(a, bias, "add_rowvec");
  if (bias.numel() != a.dim(1))
    fail("add_rowvec: bias length " + std::to_string(bias.numel()) +
         " vs columns " + std::to_string(a.dim(1)));
  return AG_DISPATCH(a.dtype(), add_rowvec_impl, a, bias);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  check_same_dtype(a, b, "matmul");
  if (a.dim(1) != b.dim(0))
    fail("matmul: inner dimensions differ, " + shape_str(a.shape()) + " x " +
         shape_str(b.shape()));
  return AG_DISPATCH(a.dtype(), matmul_impl, a, b);
}

Tensor addmm(const Tensor& a, const Tensor& w, const Tensor& bias) {
  check_linear_shapes(a, w, bias, "addmm");
  return AG_DISPATCH(a.dtype(), addmm_impl, a, w, bias);
}

Tensor linear_relu(const Tensor& a, const Tensor& w, const Tensor& bias) {
  check_linear_shapes(a, w, bias, "linear_relu");
  return AG_DISPATCH(a.dtype(), linear_relu_impl, a, w, bias);
}

Tensor linear_tanh(const Tensor& a, const Tensor& w, const Tensor& bias) {
  check_linear_shapes(a, w, bias, "linear_tanh");
  return AG_DISPATCH(a.dtype(), linear_tanh_impl, a, w, bias);
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  return AG_DISPATCH(a.dtype(), transpose_impl, a);
}

Tensor reshape(const Tensor& a, Shape new_shape) {
  if (ag::numel(new_shape) != a.numel())
    fail("reshape: numel mismatch " + shape_str(a.shape()) + " -> " +
         shape_str(new_shape));
  return AG_DISPATCH(a.dtype(), reshape_impl, a, std::move(new_shape));
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat_cols: no inputs");
  const std::int64_t n = parts[0].dim(0);
  for (const auto& p : parts) {
    check_rank2(p, "concat_cols");
    check(p.dim(0) == n, "concat_cols: row count mismatch");
    check_same_dtype(parts[0], p, "concat_cols");
  }
  return AG_DISPATCH(parts[0].dtype(), concat_cols_impl, parts);
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat_rows: no inputs");
  const std::int64_t m = parts[0].dim(1);
  for (const auto& p : parts) {
    check_rank2(p, "concat_rows");
    check(p.dim(1) == m, "concat_rows: column count mismatch");
    check_same_dtype(parts[0], p, "concat_rows");
  }
  return AG_DISPATCH(parts[0].dtype(), concat_rows_impl, parts);
}

Tensor slice_rows(const Tensor& a, std::int64_t start, std::int64_t len) {
  check_rank2(a, "slice_rows");
  check(start >= 0 && len >= 0 && start + len <= a.dim(0),
        "slice_rows: range out of bounds");
  return AG_DISPATCH(a.dtype(), slice_rows_impl, a, start, len);
}

Tensor gather_rows(const Tensor& a, const std::vector<std::int64_t>& index) {
  check_rank2(a, "gather_rows");
  const std::int64_t n = a.dim(0);
  for (auto i : index)
    check(i >= 0 && i < n, "gather_rows: index out of bounds");
  return AG_DISPATCH(a.dtype(), gather_rows_impl, a, index);
}

Tensor scale_rows(const Tensor& a, const std::vector<double>& scale) {
  check_rank2(a, "scale_rows");
  check(static_cast<std::int64_t>(scale.size()) == a.dim(0),
        "scale_rows: scale length mismatch");
  return AG_DISPATCH(a.dtype(), scale_rows_impl, a, scale);
}

Tensor relu(const Tensor& a) { return AG_DISPATCH(a.dtype(), relu_impl, a); }

Tensor leaky_relu(const Tensor& a, double negative_slope) {
  return AG_DISPATCH(a.dtype(), leaky_relu_impl, a, negative_slope);
}

Tensor tanh_act(const Tensor& a) {
  return AG_DISPATCH(a.dtype(), tanh_act_impl, a);
}

Tensor sigmoid(const Tensor& a) {
  return AG_DISPATCH(a.dtype(), sigmoid_impl, a);
}

Tensor sum(const Tensor& a) { return AG_DISPATCH(a.dtype(), sum_impl, a); }

Tensor mean(const Tensor& a) {
  check(a.numel() > 0, "mean of empty tensor");
  return AG_DISPATCH(a.dtype(), mean_impl, a);
}

Tensor softmax_rows(const Tensor& a) {
  check_rank2(a, "softmax_rows");
  check(a.dim(1) > 0, "softmax_rows: zero columns");
  return AG_DISPATCH(a.dtype(), softmax_rows_impl, a);
}

Tensor log_softmax_rows(const Tensor& a) {
  check_rank2(a, "log_softmax_rows");
  check(a.dim(1) > 0, "log_softmax_rows: zero columns");
  return AG_DISPATCH(a.dtype(), log_softmax_rows_impl, a);
}

Tensor nll_loss(const Tensor& logp, const std::vector<std::int64_t>& targets) {
  check_rank2(logp, "nll_loss");
  check(static_cast<std::int64_t>(targets.size()) == logp.dim(0),
        "nll_loss: target count mismatch");
  return AG_DISPATCH(logp.dtype(), nll_loss_impl, logp, targets);
}

Tensor cross_entropy(const Tensor& logits,
                     const std::vector<std::int64_t>& targets) {
  return nll_loss(log_softmax_rows(logits), targets);
}

Tensor dropout(const Tensor& a, double p, bool training, util::Rng& rng) {
  check(p >= 0.0 && p < 1.0, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0) {
    // Identity pass-through that still participates in the tape.
    return mul_scalar(a, 1.0);
  }
  return AG_DISPATCH(a.dtype(), dropout_impl, a, p, rng);
}

Tensor heads_dot(const Tensor& x, const Tensor& a, std::int64_t heads) {
  check_rank2(x, "heads_dot");
  check_same_dtype(x, a, "heads_dot");
  check(heads > 0 && x.dim(1) % heads == 0,
        "heads_dot: columns not divisible by heads");
  check(a.numel() == x.dim(1), "heads_dot: parameter length mismatch");
  return AG_DISPATCH(x.dtype(), heads_dot_impl, x, a, heads);
}

Tensor heads_scale(const Tensor& x, const Tensor& alpha, std::int64_t heads) {
  check_rank2(x, "heads_scale");
  check_rank2(alpha, "heads_scale");
  check_same_dtype(x, alpha, "heads_scale");
  check(heads > 0 && x.dim(1) % heads == 0,
        "heads_scale: columns not divisible by heads");
  check(alpha.dim(0) == x.dim(0) && alpha.dim(1) == heads,
        "heads_scale: alpha shape mismatch");
  return AG_DISPATCH(x.dtype(), heads_scale_impl, x, alpha, heads);
}

// ---- Dtype conversion -------------------------------------------------------

Tensor cast(const Tensor& a, Dtype dtype) {
  check(a.defined(), "cast: undefined tensor");
  if (a.dtype() == dtype) return a;  // no-op: share the same node
  if (dtype == Dtype::f32) {
    const auto& av = a.data_as<double>();
    std::vector<float> out = detail::new_buffer_t<float>(av.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = static_cast<float>(av[i]);
    return Tensor::make_op_result(
        a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
          if (!wants_grad(a)) return;
          const auto& sg = self.grad_as<float>();
          auto& ga = detail::grad_of<double>(*a.impl());
          for (std::size_t i = 0; i < sg.size(); ++i)
            ga[i] += static_cast<double>(sg[i]);
        });
  }
  const auto& av = a.data_as<float>();
  std::vector<double> out = detail::new_buffer(av.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(av[i]);
  return Tensor::make_op_result(
      a.shape(), std::move(out), {a}, [a](detail::TensorImpl& self) {
        if (!wants_grad(a)) return;
        const auto& sg = self.grad_as<double>();
        auto& ga = detail::grad_of<float>(*a.impl());
        for (std::size_t i = 0; i < sg.size(); ++i)
          ga[i] += static_cast<float>(sg[i]);
      });
}

#undef AG_DISPATCH

}  // namespace amdgcnn::ag::ops
