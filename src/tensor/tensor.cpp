#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace amdgcnn::ag {

void fail(const char* message) { throw std::invalid_argument(message); }
void fail(const std::string& message) { throw std::invalid_argument(message); }

void check(bool cond, const std::string& message) {
  if (!cond) fail(message);
}

std::int64_t numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    check(d >= 0, "negative dimension in shape");
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

// ---- Buffer pool -----------------------------------------------------------

namespace detail {

BufferPool& buffer_pool() {
  // Leaked on purpose: tensors destroyed during thread/static teardown can
  // still release into a live pool.
  thread_local BufferPool* pool = new BufferPool();
  return *pool;
}

BasicBufferPool<std::int32_t>& i32_buffer_pool() {
  thread_local BasicBufferPool<std::int32_t>* pool =
      new BasicBufferPool<std::int32_t>();
  return *pool;
}

BasicBufferPool<float>& f32_buffer_pool() {
  thread_local BasicBufferPool<float>* pool = new BasicBufferPool<float>();
  return *pool;
}

thread_local constinit GradSink* tls_grad_sink = nullptr;

}  // namespace detail

PoolStats pool_stats() { return detail::buffer_pool().stats(); }
void reset_pool_stats() {
  detail::buffer_pool().reset_stats();
  detail::f32_buffer_pool().reset_stats();
}
void clear_buffer_pool() {
  detail::buffer_pool().clear();
  detail::i32_buffer_pool().clear();
  detail::f32_buffer_pool().clear();
}

GradSinkScope::GradSinkScope(
    const std::unordered_map<const detail::TensorImpl*, std::size_t>& slot_of,
    std::vector<std::vector<double>>& buffers)
    : prev_(detail::tls_grad_sink) {
  sink_.slot_of = &slot_of;
  sink_.buffers = &buffers;
  detail::tls_grad_sink = &sink_;
}

GradSinkScope::GradSinkScope(
    const std::unordered_map<const detail::TensorImpl*, std::size_t>& slot_of,
    std::vector<std::vector<float>>& buffers)
    : prev_(detail::tls_grad_sink) {
  sink_.slot_of = &slot_of;
  sink_.buffers_f32 = &buffers;
  detail::tls_grad_sink = &sink_;
}

GradSinkScope::~GradSinkScope() { detail::tls_grad_sink = prev_; }

// ---- Constructors ----------------------------------------------------------

namespace {
// f16 is a storage-only tag for checkpoints and frozen inference weights
// (DESIGN.md §2.7); no Tensor ever carries it, which keeps every
// f32-or-else-f64 dispatch in the ops layer exhaustive.  All dtype-taking
// constructors funnel through zeros() or full(), so two checks cover them.
inline void check_tensor_dtype(Dtype d) {
  check(d != Dtype::f16,
        "Tensor: f16 is a storage-only dtype (checkpoints / frozen "
        "inference weights); tensors compute at f32 or f64");
}
}  // namespace

Tensor Tensor::zeros(Shape shape, Dtype dtype) {
  check_tensor_dtype(dtype);
  auto impl = std::make_shared<detail::TensorImpl>();
  const auto n = static_cast<std::size_t>(ag::numel(shape));
  impl->dtype = dtype;
  if (dtype == Dtype::f32)
    impl->data_f = detail::new_zeroed_t<float>(n);
  else
    impl->data = detail::new_zeroed(n);
  impl->shape = std::move(shape);
  return Tensor(std::move(impl));
}

Tensor Tensor::ones(Shape shape, Dtype dtype) {
  return full(std::move(shape), 1.0, dtype);
}

Tensor Tensor::full(Shape shape, double value, Dtype dtype) {
  check_tensor_dtype(dtype);
  auto impl = std::make_shared<detail::TensorImpl>();
  const auto n = static_cast<std::size_t>(ag::numel(shape));
  impl->dtype = dtype;
  if (dtype == Dtype::f32) {
    impl->data_f = detail::new_buffer_t<float>(n);
    std::fill(impl->data_f.begin(), impl->data_f.end(),
              static_cast<float>(value));
  } else {
    impl->data = detail::new_buffer(n);
    std::fill(impl->data.begin(), impl->data.end(), value);
  }
  impl->shape = std::move(shape);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_data(Shape shape, std::vector<double> data) {
  if (static_cast<std::int64_t>(data.size()) != ag::numel(shape))
    fail("from_data: " + std::to_string(data.size()) + " values for shape " +
         shape_str(shape));
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = std::move(shape);
  impl->dtype = Dtype::f64;
  impl->data = std::move(data);
  return Tensor(std::move(impl));
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data) {
  if (static_cast<std::int64_t>(data.size()) != ag::numel(shape))
    fail("from_data: " + std::to_string(data.size()) + " values for shape " +
         shape_str(shape));
  auto impl = std::make_shared<detail::TensorImpl>();
  impl->shape = std::move(shape);
  impl->dtype = Dtype::f32;
  impl->data_f = std::move(data);
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, Dtype dtype) {
  Tensor t = zeros(std::move(shape), dtype);
  // Draw in f64 for both dtypes so an f32 model consumes the identical RNG
  // stream as its f64 twin (same seed -> same underlying weights).
  if (dtype == Dtype::f32)
    for (auto& v : t.data_f32()) v = static_cast<float>(rng.normal());
  else
    for (auto& v : t.data()) v = rng.normal();
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, double lo, double hi, util::Rng& rng,
                            Dtype dtype) {
  Tensor t = zeros(std::move(shape), dtype);
  if (dtype == Dtype::f32)
    for (auto& v : t.data_f32()) v = static_cast<float>(rng.uniform(lo, hi));
  else
    for (auto& v : t.data()) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::xavier(std::int64_t fan_in, std::int64_t fan_out,
                      util::Rng& rng, Dtype dtype) {
  check(fan_in > 0 && fan_out > 0, "xavier: fans must be positive");
  double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return rand_uniform({fan_in, fan_out}, -bound, bound, rng, dtype);
}

std::vector<double> Tensor::to_vec64() const {
  check(defined(), "to_vec64() on undefined tensor");
  if (impl_->dtype == Dtype::f32)
    return std::vector<double>(impl_->data_f.begin(), impl_->data_f.end());
  return impl_->data;
}

// ---- Autograd --------------------------------------------------------------

Tensor& Tensor::requires_grad(bool value) {
  check(defined(), "requires_grad() on undefined tensor");
  impl_->requires_grad = value;
  if (value) impl_->ensure_grad();
  return *this;
}

void Tensor::zero_grad() {
  check(defined(), "zero_grad() on undefined tensor");
  impl_->ensure_grad();
  if (impl_->dtype == Dtype::f32)
    std::fill(impl_->grad_f.begin(), impl_->grad_f.end(), 0.0f);
  else
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0);
}

void Tensor::backward() {
  check(defined(), "backward() on undefined tensor");
  check(numel() == 1, "backward() requires a scalar loss");
  check(requires_grad(), "backward() on tensor that does not require grad");

  // Topological order of the subgraph reachable from the loss (iterative DFS
  // to survive deep tapes).  Scratch containers are thread-local so the
  // per-sample backward pass allocates nothing in steady state.
  struct Frame {
    detail::TensorImpl* node;
    std::size_t next_parent;
  };
  thread_local std::vector<detail::TensorImpl*> order;
  thread_local std::unordered_set<detail::TensorImpl*> visited;
  thread_local std::vector<Frame> stack;
  order.clear();
  visited.clear();
  stack.clear();

  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      detail::TensorImpl* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  if (impl_->dtype == Dtype::f32)
    impl_->grad_f[0] += 1.0f;
  else
    impl_->grad[0] += 1.0;

  // `order` is post-order (parents before children), so iterate in reverse to
  // propagate from the loss toward the leaves.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::TensorImpl* node = *it;
    if (node->backward_fn) {
      node->ensure_grad();
      node->backward_fn(*node);
    }
  }
}

Tensor Tensor::detach() const {
  check(defined(), "detach() on undefined tensor");
  if (impl_->dtype == Dtype::f32) {
    std::vector<float> copy = detail::new_buffer_t<float>(impl_->data_f.size());
    std::copy(impl_->data_f.begin(), impl_->data_f.end(), copy.begin());
    return from_data(impl_->shape, std::move(copy));
  }
  std::vector<double> copy = detail::new_buffer(impl_->data.size());
  std::copy(impl_->data.begin(), impl_->data.end(), copy.begin());
  return from_data(impl_->shape, std::move(copy));
}

namespace {

Tensor wire_op_result(Tensor out, std::vector<Tensor>& parents,
                      std::function<void(detail::TensorImpl&)>& bwd) {
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad = needs_grad || p.requires_grad();
  if (needs_grad) {
    detail::TensorImpl& impl = *out.impl();
    impl.requires_grad = true;
    impl.ensure_grad();
    impl.parents.reserve(parents.size());
    for (auto& p : parents) impl.parents.push_back(p.impl());
    impl.backward_fn = std::move(bwd);
  }
  return out;
}

}  // namespace

Tensor Tensor::make_op_result(Shape shape, std::vector<double> data,
                              std::vector<Tensor> parents,
                              std::function<void(detail::TensorImpl&)> bwd) {
  return wire_op_result(from_data(std::move(shape), std::move(data)), parents,
                        bwd);
}

Tensor Tensor::make_op_result(Shape shape, std::vector<float> data,
                              std::vector<Tensor> parents,
                              std::function<void(detail::TensorImpl&)> bwd) {
  return wire_op_result(from_data(std::move(shape), std::move(data)), parents,
                        bwd);
}

void release_graph(const Tensor& root) {
  if (!root.defined()) return;
  // Hold shared_ptr refs while severing links so no destructor chain can
  // recurse; duplicates are harmless (second visit sees cleared parents).
  std::vector<std::shared_ptr<detail::TensorImpl>> nodes;
  nodes.push_back(root.impl());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    detail::TensorImpl& n = *nodes[i];
    for (auto& p : n.parents)
      if (!p->parents.empty() || p->backward_fn) nodes.push_back(p);
    n.parents.clear();
    n.backward_fn = nullptr;
  }
}

}  // namespace amdgcnn::ag
