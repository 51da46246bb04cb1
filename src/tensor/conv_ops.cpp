// Dtype-generic SortPooling / 1-D convolution / max-pooling ops.  Each op is
// implemented once over the scalar type T and dispatched on the input dtype;
// the conv accumulator runs at native width (matmul-family, bandwidth-bound),
// while comparisons (sort order, pooling argmax) are exact in either width.
#include "tensor/conv_ops.h"

#include <algorithm>
#include <numeric>

#include "tensor/fwd_kernels.h"

namespace amdgcnn::ag::ops {

namespace {

#define AG_DISPATCH(dt, fn, ...) \
  ((dt) == Dtype::f32 ? fn<float>(__VA_ARGS__) : fn<double>(__VA_ARGS__))

template <typename T>
Tensor sort_pool_impl(const Tensor& x, std::int64_t k) {
  const std::int64_t n = x.dim(0), c = x.dim(1);

  // Row selection lives in fwd::sort_perm_topk (fwd_kernels.h, shared with
  // the frozen inference path): descending last column, then descending
  // earlier columns, finally ascending original index — a strict total
  // order, so the top-k row SET is unique and nth_element + partial sort of
  // the kept prefix selects exactly the rows a full sort would, in the same
  // order, at O(n + k log k) instead of O(n log n).
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  const auto& d = x.data_as<T>();
  const std::int64_t keep = fwd::sort_perm_topk(d.data(), n, c, k, perm.data());
  std::vector<T> out = detail::new_zeroed_t<T>(static_cast<std::size_t>(k * c));
  for (std::int64_t r = 0; r < keep; ++r)
    std::copy_n(d.begin() + perm[r] * c, c, out.begin() + r * c);

  std::vector<std::int64_t> sel(perm.begin(), perm.begin() + keep);
  return Tensor::make_op_result(
      {k, c}, std::move(out), {x},
      [x, sel, c](detail::TensorImpl& self) {
        if (!x.requires_grad()) return;
        const auto& sg = self.grad_as<T>();
        auto& g = detail::grad_of<T>(*x.impl());
        for (std::size_t r = 0; r < sel.size(); ++r)
          for (std::int64_t col = 0; col < c; ++col)
            g[sel[r] * c + col] += sg[r * c + col];
      });
}

template <typename T>
Tensor conv1d_impl(const Tensor& x, const Tensor& weight, const Tensor& bias,
                   std::int64_t kernel, std::int64_t stride) {
  const std::int64_t cin = x.dim(0), len = x.dim(1);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t lout = (len - kernel) / stride + 1;
  const bool has_bias = bias.defined();

  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(cout * lout));
  const auto& xd = x.data_as<T>();
  const auto& wd = weight.data_as<T>();
  const T* bv = has_bias ? bias.data_as<T>().data() : nullptr;
  // Shared forward (fwd_kernels.h — the frozen inference path runs the same
  // instantiation): vectors across output positions (stride 1) or output
  // channels (strided), each output's sum in a fixed order.
  std::vector<T> scratch = detail::new_buffer_t<T>(static_cast<std::size_t>(
      fwd::conv1d_scratch_size<T>(cin, len, cout, kernel, stride)));
  fwd::conv1d_fwd(xd.data(), wd.data(), bv, out.data(), cin, len, cout,
                  kernel, stride, scratch.data());
  detail::pool_of<T>().release(std::move(scratch));

  std::vector<Tensor> parents = {x, weight};
  if (has_bias) parents.push_back(bias);
  return Tensor::make_op_result(
      {cout, lout}, std::move(out), parents,
      [x, weight, bias, kernel, stride, cin, cout, len, lout,
       has_bias](detail::TensorImpl& self) {
        const T* __restrict__ xd = x.data_as<T>().data();
        const T* __restrict__ wd = weight.data_as<T>().data();
        const auto& sg = self.grad_as<T>();
        // Hoist the requires_grad branches and sink lookups out of the
        // quadruple loop; null pointers mean "no gradient wanted".  Grad
        // buffers never alias data buffers, so __restrict__ lets the
        // kernel-length inner loops vectorise.
        T* __restrict__ gx = x.requires_grad()
                                 ? detail::grad_of<T>(*x.impl()).data()
                                 : nullptr;
        T* __restrict__ gw = weight.requires_grad()
                                 ? detail::grad_of<T>(*weight.impl()).data()
                                 : nullptr;
        T* gb = (has_bias && bias.requires_grad())
                    ? detail::grad_of<T>(*bias.impl()).data()
                    : nullptr;
        for (std::int64_t oc = 0; oc < cout; ++oc)
          for (std::int64_t j = 0; j < lout; ++j) {
            const T go = sg[oc * lout + j];
            // Post-ReLU/pool upstream gradients are mostly zero here; this
            // skip is a measured win, unlike in dense matmul backward.
            if (go == T(0)) continue;
            const std::int64_t base = j * stride;
            if (gx != nullptr)
              for (std::int64_t ic = 0; ic < cin; ++ic)
                for (std::int64_t t = 0; t < kernel; ++t)
                  gx[ic * len + base + t] +=
                      go * wd[oc * cin * kernel + ic * kernel + t];
            if (gw != nullptr)
              for (std::int64_t ic = 0; ic < cin; ++ic)
                for (std::int64_t t = 0; t < kernel; ++t)
                  gw[oc * cin * kernel + ic * kernel + t] +=
                      go * xd[ic * len + base + t];
            if (gb != nullptr) gb[oc] += go;
          }
      });
}

template <typename T>
Tensor max_pool1d_impl(const Tensor& x, std::int64_t size,
                       std::int64_t stride) {
  const std::int64_t c = x.dim(0), len = x.dim(1);
  const std::int64_t lout = (len - size) / stride + 1;

  std::vector<T> out =
      detail::new_buffer_t<T>(static_cast<std::size_t>(c * lout));
  auto argmax = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(c * lout));
  const auto& xd = x.data_as<T>();
  fwd::max_pool1d_fwd(xd.data(), out.data(), argmax->data(), c, len, size,
                      stride);
  return Tensor::make_op_result(
      {c, lout}, std::move(out), {x},
      [x, argmax, c, len, lout](detail::TensorImpl& self) {
        if (!x.requires_grad()) return;
        const auto& sg = self.grad_as<T>();
        auto& g = detail::grad_of<T>(*x.impl());
        for (std::int64_t ch = 0; ch < c; ++ch)
          for (std::int64_t j = 0; j < lout; ++j)
            g[ch * len + (*argmax)[ch * lout + j]] += sg[ch * lout + j];
      });
}

}  // namespace

Tensor sort_pool(const Tensor& x, std::int64_t k) {
  check(x.rank() == 2, "sort_pool: input must be rank-2");
  check(k > 0, "sort_pool: k must be positive");
  check(x.dim(1) > 0, "sort_pool: zero-width embeddings");
  return AG_DISPATCH(x.dtype(), sort_pool_impl, x, k);
}

Tensor conv1d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              std::int64_t kernel, std::int64_t stride) {
  check(x.rank() == 2, "conv1d: input must be [C_in, L]");
  check(weight.rank() == 2, "conv1d: weight must be [C_out, C_in*K]");
  check(kernel > 0 && stride > 0, "conv1d: kernel and stride must be > 0");
  check(x.dtype() == weight.dtype(), "conv1d: input/weight dtype mismatch");
  const std::int64_t cin = x.dim(0), len = x.dim(1);
  check(weight.dim(1) == cin * kernel,
        "conv1d: weight inner dim must be C_in*K");
  check(len >= kernel, "conv1d: input shorter than kernel");
  if (bias.defined()) {
    check(bias.numel() == weight.dim(0),
          "conv1d: bias length must equal C_out");
    check(bias.dtype() == x.dtype(), "conv1d: bias dtype mismatch");
  }
  return AG_DISPATCH(x.dtype(), conv1d_impl, x, weight, bias, kernel, stride);
}

Tensor max_pool1d(const Tensor& x, std::int64_t size, std::int64_t stride) {
  check(x.rank() == 2, "max_pool1d: input must be [C, L]");
  check(size > 0 && stride > 0, "max_pool1d: size and stride must be > 0");
  check(x.dim(1) >= size, "max_pool1d: input shorter than window");
  return AG_DISPATCH(x.dtype(), max_pool1d_impl, x, size, stride);
}

#undef AG_DISPATCH

}  // namespace amdgcnn::ag::ops
