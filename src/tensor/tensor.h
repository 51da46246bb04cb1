// Reverse-mode automatic differentiation tensor.
//
// This is the from-scratch replacement for the PyTorch tensors the paper's
// reference implementation relies on (see DESIGN.md §2).  It is deliberately
// small: dense row-major storage in a selectable scalar width (f32 or f64,
// see Dtype), shapes up to rank 3 (the models only need matrices plus
// [channels, length] sequences), and a dynamic tape.
//
// Usage pattern:
//   Tensor w = Tensor::randn({4, 8}, rng).requires_grad(true);
//   Tensor y = ops::matmul(x, w);
//   Tensor loss = ops::mean(y);
//   loss.backward();
//   w.grad();   // d loss / d w
//
// A `Tensor` is a cheap shared handle; copying shares storage and tape node.
// Gradients accumulate (+=) into `grad()` until `zero_grad()` — exactly the
// PyTorch contract, which the Trainer's gradient-accumulation minibatching
// depends on.
//
// Storage management (DESIGN.md §2.1): every data/grad buffer is recycled
// through a thread-local BufferPool when its tape node dies, so steady-state
// training performs almost no heap allocation.  Training code can optionally
// redirect leaf-gradient accumulation into private per-sample buffers via
// GradSinkScope, which is what makes the Trainer's data-parallel batch
// accumulation deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace amdgcnn::ag {

using Shape = std::vector<std::int64_t>;

/// Storage precision of a tensor (DESIGN.md §2.3).  Data and gradients are
/// stored at this width; reductions, softmax normalisers and optimizer
/// moments always accumulate in f64 regardless, so switching to f32 halves
/// memory bandwidth on the matmul-bound hot path without giving up the
/// bit-determinism contract (any fixed dtype is deterministic for any
/// worker count — the contract is per-dtype, not across dtypes).
///
/// f16 is a STORAGE-ONLY tag (DESIGN.md §2.7): checkpoints and frozen
/// inference weights may hold bit-cast half-precision values (tensor/half.h
/// decodes them through a 65536-entry f32 table), but no Tensor ever
/// carries f16 storage — Tensor construction rejects the tag, so the many
/// two-way f32/f64 dispatch sites in the ops layer stay exhaustive.
enum class Dtype : std::uint8_t { f32 = 0, f64 = 1, f16 = 2 };

inline constexpr std::size_t dtype_size(Dtype d) {
  return d == Dtype::f16 ? 2
                         : (d == Dtype::f32 ? sizeof(float) : sizeof(double));
}

inline constexpr const char* dtype_name(Dtype d) {
  return d == Dtype::f16 ? "f16" : (d == Dtype::f32 ? "f32" : "f64");
}

/// Dtype tag of a C++ scalar type (only float and double participate).
template <typename T>
inline constexpr Dtype dtype_of_v =
    std::is_same_v<T, float> ? Dtype::f32 : Dtype::f64;

/// Number of elements of a shape (product of dims; empty shape -> 1 scalar).
std::int64_t numel(const Shape& shape);

/// Human-readable "[2, 3]" rendering for error messages.
std::string shape_str(const Shape& shape);

/// Throws std::invalid_argument. Out of line so the hot-path checks below
/// compile to a test + cold call.
[[noreturn]] void fail(const char* message);
[[noreturn]] void fail(const std::string& message);

/// Cheap check: the message is a literal, nothing is allocated unless the
/// check fires.  Call sites that need a formatted message should test the
/// condition themselves and call fail(...) on the error path, so the string
/// is only built when the check actually fails.
inline void check(bool cond, const char* message) {
  if (!cond) [[unlikely]] fail(message);
}
void check(bool cond, const std::string& message);

class Tensor;

// ---- Buffer pool ------------------------------------------------------------

/// Counters of the calling thread's buffer pool (see pool_stats()).
struct PoolStats {
  std::size_t pooled_bytes = 0;       ///< bytes currently parked in free lists
  std::size_t peak_pooled_bytes = 0;  ///< high-water mark of pooled_bytes
  std::size_t in_use_bytes = 0;       ///< bytes handed out and not yet back
  std::size_t peak_in_use_bytes = 0;  ///< high-water mark of in_use_bytes
  std::uint64_t hits = 0;             ///< acquires served from the pool
  std::uint64_t misses = 0;           ///< acquires that fell back to malloc
};

namespace detail {

/// Smallest bucket the pool bothers tracking, in elements.
inline constexpr std::size_t kMinPoolClass = 16;

/// Round a requested element count up to its power-of-two size class.
/// Near-duplicate subgraph shapes (variable node counts) then share one
/// bucket instead of each parking its own buffer, which cuts the peak pooled
/// footprint sharply (ROADMAP: ~96 MB of near-duplicate buckets).
inline std::size_t pool_size_class(std::size_t n) {
  std::size_t c = kMinPoolClass;
  while (c < n) c <<= 1;
  return c;
}

/// Thread-local recycler for tensor and scratch storage.  Buffers are
/// bucketed by power-of-two size class (capacity); a request is served by
/// any parked buffer of its class, so shapes that differ by a few elements
/// recycle the same storage.  Model shapes repeat every sample, so the hit
/// rate is ~100% after the first minibatch.  No locks: each thread owns its
/// pool, and a buffer released on a different thread than it was acquired on
/// simply migrates pools.
template <typename T>
class BasicBufferPool {
 public:
  /// A buffer with exactly n elements; contents are unspecified.
  std::vector<T> acquire(std::size_t n) {
    if (n == 0) return {};
    const std::size_t cls = pool_size_class(n);
    auto it = buckets_.find(cls);
    if (it != buckets_.end() && !it->second.empty()) {
      std::vector<T> buf = std::move(it->second.back());
      it->second.pop_back();
      stats_.pooled_bytes -= buf.capacity() * sizeof(T);
      buf.resize(n);  // capacity >= cls >= n: never reallocates
      ++stats_.hits;
      note_in_use(buf.capacity());
      return buf;
    }
    ++stats_.misses;
    std::vector<T> buf;
    buf.reserve(cls);  // allocate the full class so the buffer is reusable
    buf.resize(n);
    note_in_use(buf.capacity());
    return buf;
  }

  /// A buffer with exactly n elements, all zero.
  std::vector<T> acquire_zeroed(std::size_t n) {
    std::vector<T> buf = acquire(n);
    std::fill(buf.begin(), buf.end(), T{});
    return buf;
  }

  /// Park `buf` for reuse (frees it instead once the pool caps are hit).
  /// The bucket is the largest size class the buffer's capacity covers, so
  /// externally allocated buffers (odd capacities) are parked conservatively.
  void release(std::vector<T>&& buf) noexcept {
    if (buf.size() == 0) return;
    const std::size_t cap = buf.capacity();
    // In-use accounting is by capacity on both ends: the caller may have
    // resized the buffer but never reallocated it, so capacity is the one
    // quantity that round-trips acquire -> release.
    stats_.in_use_bytes -= std::min(stats_.in_use_bytes, cap * sizeof(T));
    if (cap < kMinPoolClass) return;  // frees buf
    std::size_t cls = kMinPoolClass;
    while (cls * 2 <= cap) cls <<= 1;
    const std::size_t bytes = cap * sizeof(T);
    if (stats_.pooled_bytes + bytes > kMaxPooledBytes) return;  // frees buf
    auto& bucket = buckets_[cls];
    if (bucket.size() >= kMaxBucketBuffers) return;
    bucket.push_back(std::move(buf));
    stats_.pooled_bytes += bytes;
    stats_.peak_pooled_bytes =
        std::max(stats_.peak_pooled_bytes, stats_.pooled_bytes);
  }

  const PoolStats& stats() const { return stats_; }
  /// Zero the hit/miss counters and rebase the peaks; the byte accounting of
  /// parked and outstanding buffers must survive a reset, or the caps in
  /// release() would compare against a corrupted (underflowed) total.
  void reset_stats() {
    stats_.hits = 0;
    stats_.misses = 0;
    stats_.peak_pooled_bytes = stats_.pooled_bytes;
    stats_.peak_in_use_bytes = stats_.in_use_bytes;
  }
  /// Drop all parked buffers (used by tests and the sanitizer build).
  void clear() {
    buckets_.clear();
    stats_.pooled_bytes = 0;
  }

 private:
  void note_in_use(std::size_t n) {
    stats_.in_use_bytes += n * sizeof(T);
    stats_.peak_in_use_bytes =
        std::max(stats_.peak_in_use_bytes, stats_.in_use_bytes);
  }

  // Caps keep a pathological workload from hoarding memory; training-sized
  // graphs stay far below them.
  static constexpr std::size_t kMaxBucketBuffers = 256;
  static constexpr std::size_t kMaxPooledBytes = std::size_t{1} << 28;

  std::unordered_map<std::size_t, std::vector<std::vector<T>>> buckets_;
  PoolStats stats_;
};

using BufferPool = BasicBufferPool<double>;

/// The calling thread's pool.  Never destroyed (leaked on purpose) so tensor
/// destructors can run safely during static/thread teardown.
BufferPool& buffer_pool();

/// The calling thread's float pool — storage of f32 tensors.  Kept separate
/// from the double pool so the two dtypes never alias each other's buckets.
BasicBufferPool<float>& f32_buffer_pool();

/// The pool that owns buffers of scalar type T on the calling thread.
template <typename T>
inline BasicBufferPool<T>& pool_of() {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "pool_of: only f32/f64 tensor storage is pooled here");
  if constexpr (std::is_same_v<T, float>)
    return f32_buffer_pool();
  else
    return buffer_pool();
}

inline std::vector<double> new_buffer(std::size_t n) {
  return buffer_pool().acquire(n);
}
inline std::vector<double> new_zeroed(std::size_t n) {
  return buffer_pool().acquire_zeroed(n);
}
template <typename T>
inline std::vector<T> new_buffer_t(std::size_t n) {
  return pool_of<T>().acquire(n);
}
template <typename T>
inline std::vector<T> new_zeroed_t(std::size_t n) {
  return pool_of<T>().acquire_zeroed(n);
}

/// One tape node: storage plus (optionally) the recipe for back-propagation.
///
/// Storage is dtype-tagged: exactly one of (data, grad) / (data_f, grad_f)
/// is active, selected by `dtype`.  The inactive pair stays empty, so the
/// per-node overhead of carrying both is two empty vectors.  Kernels and
/// backward lambdas access storage through data_as<T>() / grad_as<T>() with
/// T matching the tag — the ops layer dispatches once per op.
struct TensorImpl {
  Shape shape;
  Dtype dtype = Dtype::f64;
  std::vector<double> data;    // active when dtype == f64
  std::vector<double> grad;    // allocated lazily, same size as data
  std::vector<float> data_f;   // active when dtype == f32
  std::vector<float> grad_f;   // allocated lazily, same size as data_f
  bool requires_grad = false;

  // Autograd graph: parents this value was computed from, and a backward
  // function that reads this node's grad and accumulates into parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;

  TensorImpl() = default;
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
  ~TensorImpl() {
    buffer_pool().release(std::move(data));
    buffer_pool().release(std::move(grad));
    f32_buffer_pool().release(std::move(data_f));
    f32_buffer_pool().release(std::move(grad_f));
  }

  template <typename T>
  std::vector<T>& data_as() {
    if constexpr (std::is_same_v<T, float>)
      return data_f;
    else
      return data;
  }
  template <typename T>
  const std::vector<T>& data_as() const {
    if constexpr (std::is_same_v<T, float>)
      return data_f;
    else
      return data;
  }
  template <typename T>
  std::vector<T>& grad_as() {
    if constexpr (std::is_same_v<T, float>)
      return grad_f;
    else
      return grad;
  }

  /// Element count of the active storage.
  std::size_t size() const {
    return dtype == Dtype::f32 ? data_f.size() : data.size();
  }

  void ensure_grad() {
    if (dtype == Dtype::f32) {
      if (grad_f.size() != data_f.size()) {
        f32_buffer_pool().release(std::move(grad_f));
        grad_f = new_zeroed_t<float>(data_f.size());
      }
    } else {
      if (grad.size() != data.size()) {
        buffer_pool().release(std::move(grad));
        grad = new_zeroed(data.size());
      }
    }
  }
};

/// Active gradient redirection for this thread (see GradSinkScope); null
/// outside a scope.  `slot_of` maps leaf nodes (parameters) to an index into
/// the buffer list matching the parameters' dtype (exactly one of `buffers`
/// and `buffers_f32` is set); leaves not in the map, and all interior nodes,
/// accumulate into their own impl as usual.
struct GradSink {
  const std::unordered_map<const TensorImpl*, std::size_t>* slot_of = nullptr;
  std::vector<std::vector<double>>* buffers = nullptr;
  std::vector<std::vector<float>>* buffers_f32 = nullptr;
};

// constinit: the pointer needs no dynamic initialisation, so accesses from
// other translation units read the TLS slot directly instead of going
// through the thread_local init wrapper (which UBSan flagged as a load of a
// null GradSink* in every parallel trainer test).
extern thread_local constinit GradSink* tls_grad_sink;

/// The buffer a backward function must accumulate `impl`'s gradient into:
/// the thread's sink slot when one is active, the impl's own grad storage
/// otherwise.  All backward lambdas route leaf writes through this; T must
/// match the impl's dtype (the ops layer guarantees it by dispatching).
template <typename T>
inline std::vector<T>& grad_of(TensorImpl& impl) {
  if (tls_grad_sink != nullptr) [[unlikely]] {
    const auto& slots = *tls_grad_sink->slot_of;
    auto it = slots.find(&impl);
    if (it != slots.end()) {
      if constexpr (std::is_same_v<T, float>) {
        check(tls_grad_sink->buffers_f32 != nullptr,
              "grad sink holds no f32 buffers for an f32 parameter");
        return (*tls_grad_sink->buffers_f32)[it->second];
      } else {
        check(tls_grad_sink->buffers != nullptr,
              "grad sink holds no f64 buffers for an f64 parameter");
        return (*tls_grad_sink->buffers)[it->second];
      }
    }
  }
  return impl.grad_as<T>();
}

/// Legacy spelling for f64-only call sites.
inline std::vector<double>& grad_of(TensorImpl& impl) {
  return grad_of<double>(impl);
}

}  // namespace detail

/// Current thread's buffer-pool counters.
PoolStats pool_stats();
/// Reset the current thread's counters (bytes in free lists are kept).
void reset_pool_stats();
/// Free every parked buffer of the current thread's pool.
void clear_buffer_pool();

/// RAII redirection of leaf-gradient accumulation on the current thread.
/// While alive, backward passes write the gradients of the mapped leaves
/// into `buffers[slot]` instead of the shared parameter storage — each
/// worker of a data-parallel batch gets its own accumulation buffers, which
/// are then reduced in deterministic sample order (models::Trainer).
/// Scopes nest; each buffer must be pre-sized to the leaf's numel.
class GradSinkScope {
 public:
  GradSinkScope(
      const std::unordered_map<const detail::TensorImpl*, std::size_t>& slot_of,
      std::vector<std::vector<double>>& buffers);
  /// f32 variant for models whose parameters are stored in single precision.
  GradSinkScope(
      const std::unordered_map<const detail::TensorImpl*, std::size_t>& slot_of,
      std::vector<std::vector<float>>& buffers);
  ~GradSinkScope();
  GradSinkScope(const GradSinkScope&) = delete;
  GradSinkScope& operator=(const GradSinkScope&) = delete;

 private:
  detail::GradSink sink_;
  detail::GradSink* prev_;
};

class Tensor {
 public:
  /// Empty (null) tensor; most ops reject it.
  Tensor() = default;

  // ---- Constructors -------------------------------------------------------

  static Tensor zeros(Shape shape, Dtype dtype = Dtype::f64);
  static Tensor ones(Shape shape, Dtype dtype = Dtype::f64);
  static Tensor full(Shape shape, double value, Dtype dtype = Dtype::f64);
  /// From explicit row-major values; data.size() must equal numel(shape).
  /// The vector's scalar type selects the dtype (double -> f64, float -> f32).
  static Tensor from_data(Shape shape, std::vector<double> data);
  static Tensor from_data(Shape shape, std::vector<float> data);
  /// Brace-literal convenience (`from_data({2}, {1.0, 2.0})` stays f64); an
  /// initializer_list parameter outranks both vector conversions, keeping the
  /// call unambiguous now that a float overload exists.
  static Tensor from_data(Shape shape, std::initializer_list<double> data) {
    return from_data(std::move(shape),
                     std::vector<double>(data.begin(), data.end()));
  }
  /// I.i.d. N(0, 1) entries (drawn in f64, then stored at `dtype`).
  static Tensor randn(Shape shape, util::Rng& rng, Dtype dtype = Dtype::f64);
  /// I.i.d. U(lo, hi) entries.
  static Tensor rand_uniform(Shape shape, double lo, double hi, util::Rng& rng,
                             Dtype dtype = Dtype::f64);
  /// Xavier/Glorot uniform init for a [fan_in, fan_out] weight matrix.
  static Tensor xavier(std::int64_t fan_in, std::int64_t fan_out,
                       util::Rng& rng, Dtype dtype = Dtype::f64);

  // ---- Introspection ------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }

  Dtype dtype() const {
    check(defined(), "dtype() on undefined tensor");
    return impl_->dtype;
  }

  const Shape& shape() const {
    check(defined(), "shape() on undefined tensor");
    return impl_->shape;
  }

  std::int64_t dim(std::size_t i) const {
    check(defined() && i < impl_->shape.size(), "dim(): index out of range");
    return impl_->shape[i];
  }

  std::int64_t rank() const {
    check(defined(), "rank() on undefined tensor");
    return static_cast<std::int64_t>(impl_->shape.size());
  }

  std::int64_t numel() const {
    check(defined(), "numel() on undefined tensor");
    return static_cast<std::int64_t>(impl_->size());
  }

  /// f64 storage accessors.  These are the historical API; they reject f32
  /// tensors loudly instead of silently reinterpreting — generic code should
  /// use data_as<T>() or the read-only to_vec64().
  const std::vector<double>& data() const {
    check(defined(), "data() on undefined tensor");
    check(impl_->dtype == Dtype::f64, "data(): tensor stores f32, not f64");
    return impl_->data;
  }

  std::vector<double>& data() {
    check(defined(), "data() on undefined tensor");
    check(impl_->dtype == Dtype::f64, "data(): tensor stores f32, not f64");
    return impl_->data;
  }

  const std::vector<float>& data_f32() const {
    check(defined(), "data_f32() on undefined tensor");
    check(impl_->dtype == Dtype::f32, "data_f32(): tensor stores f64");
    return impl_->data_f;
  }

  std::vector<float>& data_f32() {
    check(defined(), "data_f32() on undefined tensor");
    check(impl_->dtype == Dtype::f32, "data_f32(): tensor stores f64");
    return impl_->data_f;
  }

  /// Dtype-generic storage accessor; T must match dtype().
  template <typename T>
  const std::vector<T>& data_as() const {
    check(defined(), "data_as() on undefined tensor");
    check(impl_->dtype == dtype_of_v<T>, "data_as(): scalar type mismatch");
    return impl_->template data_as<T>();
  }
  template <typename T>
  std::vector<T>& data_as() {
    check(defined(), "data_as() on undefined tensor");
    check(impl_->dtype == dtype_of_v<T>, "data_as(): scalar type mismatch");
    return impl_->template data_as<T>();
  }

  /// Copy of the values widened to f64, regardless of storage dtype (for
  /// metrics, serialization and tests — not a hot path).
  std::vector<double> to_vec64() const;

  /// 2-D element accessors (bounds-checked).  Reads work for either dtype
  /// (f32 values are widened); the mutable reference is f64-only.
  double at(std::int64_t r, std::int64_t c) const {
    check_at(r, c);
    const auto i = static_cast<std::size_t>(r * impl_->shape[1] + c);
    return impl_->dtype == Dtype::f32
               ? static_cast<double>(impl_->data_f[i])
               : impl_->data[i];
  }
  double& at(std::int64_t r, std::int64_t c) {
    check_at(r, c);
    check(impl_->dtype == Dtype::f64, "mutable at() requires an f64 tensor");
    return impl_->data[static_cast<std::size_t>(r * impl_->shape[1] + c)];
  }

  /// Flat accessor (reads either dtype; f32 values are widened to double).
  double item(std::int64_t i = 0) const {
    check(defined() && i >= 0 && i < numel(), "item(): index out of bounds");
    const auto idx = static_cast<std::size_t>(i);
    return impl_->dtype == Dtype::f32
               ? static_cast<double>(impl_->data_f[idx])
               : impl_->data[idx];
  }

  // ---- Autograd -----------------------------------------------------------

  bool requires_grad() const { return defined() && impl_->requires_grad; }

  /// Fluent toggle: returns *this for chaining after construction.
  Tensor& requires_grad(bool value);

  /// Gradient buffer; only meaningful after backward(). Throws if grads were
  /// never enabled for this tensor, or (like data()) if the tensor is f32.
  const std::vector<double>& grad() const {
    check(requires_grad(), "grad() on tensor without requires_grad");
    check(impl_->dtype == Dtype::f64, "grad(): tensor stores f32, not f64");
    impl_->ensure_grad();
    return impl_->grad;
  }
  std::vector<double>& grad() {
    check(requires_grad(), "grad() on tensor without requires_grad");
    check(impl_->dtype == Dtype::f64, "grad(): tensor stores f32, not f64");
    impl_->ensure_grad();
    return impl_->grad;
  }

  const std::vector<float>& grad_f32() const {
    check(requires_grad(), "grad_f32() on tensor without requires_grad");
    check(impl_->dtype == Dtype::f32, "grad_f32(): tensor stores f64");
    impl_->ensure_grad();
    return impl_->grad_f;
  }
  std::vector<float>& grad_f32() {
    check(requires_grad(), "grad_f32() on tensor without requires_grad");
    check(impl_->dtype == Dtype::f32, "grad_f32(): tensor stores f64");
    impl_->ensure_grad();
    return impl_->grad_f;
  }

  /// Dtype-generic gradient accessor; T must match dtype().
  template <typename T>
  std::vector<T>& grad_as() {
    check(requires_grad(), "grad_as() on tensor without requires_grad");
    check(impl_->dtype == dtype_of_v<T>, "grad_as(): scalar type mismatch");
    impl_->ensure_grad();
    return impl_->template grad_as<T>();
  }

  void zero_grad();

  /// Run reverse-mode accumulation from this (scalar) tensor. Seeds d(self)
  /// with 1.  Throws when called on a non-scalar.
  void backward();

  /// Detached copy sharing no tape history (data is copied).
  Tensor detach() const;

  /// Identity of the underlying node — used by the optimizers' param lists.
  detail::TensorImpl* unsafe_impl() const { return impl_.get(); }

  // ---- Op-construction helpers (used by ops, not by end users) ------------

  /// Create a result tensor wired into the tape. `parents` are recorded only
  /// if at least one of them requires grad.  The storage vector's scalar
  /// type selects the result dtype.
  static Tensor make_op_result(Shape shape, std::vector<double> data,
                               std::vector<Tensor> parents,
                               std::function<void(detail::TensorImpl&)> bwd);
  static Tensor make_op_result(Shape shape, std::vector<float> data,
                               std::vector<Tensor> parents,
                               std::function<void(detail::TensorImpl&)> bwd);

  std::shared_ptr<detail::TensorImpl> impl() const { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<detail::TensorImpl> impl)
      : impl_(std::move(impl)) {}

  void check_at(std::int64_t r, std::int64_t c) const {
    check(defined() && impl_->shape.size() == 2,
          "at(r, c) requires a rank-2 tensor");
    check(r >= 0 && r < impl_->shape[0] && c >= 0 && c < impl_->shape[1],
          "at(): index out of bounds");
  }

  std::shared_ptr<detail::TensorImpl> impl_;
};

/// Iteratively severs the tape below `root` (clears parent links and
/// backward functions) so interior nodes return their buffers to the pool
/// as soon as the last user handle dies, without recursing through deep
/// shared_ptr chains.  Leaf storage — parameters, dataset tensors — is
/// untouched.  The Trainer calls this on each sample's loss once its
/// gradients have been accumulated.
void release_graph(const Tensor& root);

}  // namespace amdgcnn::ag
