#include "tensor/optim.h"

#include <algorithm>
#include <cmath>

#include "util/worker_pool.h"

namespace amdgcnn::ag {

namespace {

// Optimiser state (momentum / Adam moments) is always f64 regardless of the
// parameter dtype (DESIGN.md §2.3): the moving averages are long-horizon
// accumulations, exactly the kind of sum the dtype policy keeps in double.
// Each update widens the parameter/gradient to f64, advances the f64 state,
// and narrows only the final write-back.

template <typename T>
double grad_sq_sum(Tensor& p) {
  // Lane-split f64 reduction (fixed order, bit-deterministic): a single
  // running sum is a serial FP chain that cannot vectorise.
  constexpr int kLanes = 8;
  double lanes[kLanes] = {};
  const auto& g = p.grad_as<T>();
  const T* __restrict__ gp = g.data();
  const std::size_t n = g.size();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    for (int l = 0; l < kLanes; ++l) {
      const double gd = static_cast<double>(gp[j + l]);
      lanes[l] += gd * gd;
    }
  double sq = 0.0;
  for (int l = 0; l < kLanes; ++l) sq += lanes[l];
  for (; j < n; ++j) {
    const double gd = static_cast<double>(gp[j]);
    sq += gd * gd;
  }
  return sq;
}

template <typename T>
void grad_scale(Tensor& p, double scale) {
  for (T& g : p.grad_as<T>()) g = static_cast<T>(static_cast<double>(g) * scale);
}

template <typename T>
void sgd_update(T* __restrict__ data, const T* __restrict__ grad,
                double* __restrict__ vp, std::size_t n, double lr,
                double momentum, double weight_decay) {
  for (std::size_t j = 0; j < n; ++j) {
    const double g = static_cast<double>(grad[j]) +
                     weight_decay * static_cast<double>(data[j]);
    vp[j] = momentum * vp[j] + g;
    data[j] = static_cast<T>(static_cast<double>(data[j]) - lr * vp[j]);
  }
}

template <typename T>
void adam_update(T* __restrict__ data, const T* __restrict__ grad,
                 double* __restrict__ mp, double* __restrict__ vp,
                 std::size_t n, double lr, double beta1, double beta2,
                 double eps, double weight_decay, double bc1, double bc2) {
  // __restrict__ lets the per-element update vectorise (the sqrt/div chain
  // is the cost; packed sqrt and div are IEEE-exact, so results are
  // bit-identical to the scalar loop).
  for (std::size_t j = 0; j < n; ++j) {
    const double g = static_cast<double>(grad[j]) +
                     weight_decay * static_cast<double>(data[j]);
    mp[j] = beta1 * mp[j] + (1.0 - beta1) * g;
    vp[j] = beta2 * vp[j] + (1.0 - beta2) * g * g;
    const double mhat = mp[j] / bc1;
    const double vhat = vp[j] / bc2;
    data[j] = static_cast<T>(static_cast<double>(data[j]) -
                             lr * mhat / (std::sqrt(vhat) + eps));
  }
}

// Pieces per worker in for_each_param_range: a worker that joins a job late
// still finds pieces left to claim.
constexpr std::int64_t kPiecesPerWorker = 4;

}  // namespace

void for_each_param_range(
    const char* stage, const std::vector<Tensor>& params, std::int64_t threads,
    const std::function<void(std::size_t i, std::size_t lo, std::size_t hi)>&
        fn) {
  if (threads == 0) {
    for (std::size_t i = 0; i < params.size(); ++i)
      fn(i, 0, static_cast<std::size_t>(params[i].numel()));
    return;
  }
  std::vector<std::size_t> offset(params.size() + 1, 0);
  for (std::size_t i = 0; i < params.size(); ++i)
    offset[i + 1] = offset[i] + static_cast<std::size_t>(params[i].numel());
  const std::size_t total = offset.back();
  const auto pieces = static_cast<std::size_t>(std::max<std::int64_t>(
      1, std::min(threads * kPiecesPerWorker,
                  static_cast<std::int64_t>(total))));
  util::parallel_for(
      stage, threads, static_cast<std::int64_t>(pieces), [&](std::int64_t c) {
        const std::size_t a = total * static_cast<std::size_t>(c) / pieces;
        const std::size_t b = total * static_cast<std::size_t>(c + 1) / pieces;
        // The last parameter starting at or before a, then every one
        // starting before b.
        auto i = static_cast<std::size_t>(
            std::upper_bound(offset.begin(), offset.end(), a) -
            offset.begin() - 1);
        for (; i < params.size() && offset[i] < b; ++i) {
          const std::size_t lo = std::max(a, offset[i]) - offset[i];
          const std::size_t hi = std::min(b, offset[i + 1]) - offset[i];
          if (lo < hi) fn(i, lo, hi);
        }
      });
}

Optimizer::Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {
  for (auto& p : params_) {
    check(p.defined(), "Optimizer: undefined parameter");
    check(p.requires_grad(), "Optimizer: parameter does not require grad");
  }
}

void Optimizer::step(std::int64_t threads) {
  begin_step();
  std::vector<RawParam> raw(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].dtype() == Dtype::f32) {
      raw[i].data_f = params_[i].data_as<float>().data();
      raw[i].grad_f = params_[i].grad_as<float>().data();
    } else {
      raw[i].data = params_[i].data_as<double>().data();
      raw[i].grad = params_[i].grad_as<double>().data();
    }
  }
  for_each_param_range(
      "optimizer_step", params_, threads,
      [&](std::size_t i, std::size_t lo, std::size_t hi) {
        update_range(raw[i], i, lo, hi);
      });
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
  check(max_norm > 0.0, "clip_grad_norm: max_norm must be positive");
  double sq = 0.0;
  for (auto& p : params_)
    sq += p.dtype() == Dtype::f32 ? grad_sq_sum<float>(p)
                                  : grad_sq_sum<double>(p);
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (auto& p : params_) {
      if (p.dtype() == Dtype::f32)
        grad_scale<float>(p, scale);
      else
        grad_scale<double>(p, scale);
    }
  }
  return norm;
}

SGD::SGD(std::vector<Tensor> params, double lr_in, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      lr(lr_in),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i)
    velocity_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
}

void SGD::update_range(const RawParam& p, std::size_t i, std::size_t lo,
                       std::size_t hi) {
  double* vp = velocity_[i].data() + lo;
  if (p.data_f != nullptr)
    sgd_update(p.data_f + lo, p.grad_f + lo, vp, hi - lo, lr, momentum_,
               weight_decay_);
  else
    sgd_update(p.data + lo, p.grad + lo, vp, hi - lo, lr, momentum_,
               weight_decay_);
}

Adam::Adam(std::vector<Tensor> params, double lr_in, double beta1,
           double beta2, double eps, double weight_decay)
    : Optimizer(std::move(params)),
      lr(lr_in),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
    v_[i].assign(static_cast<std::size_t>(params_[i].numel()), 0.0);
  }
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::update_range(const RawParam& p, std::size_t i, std::size_t lo,
                        std::size_t hi) {
  double* mp = m_[i].data() + lo;
  double* vp = v_[i].data() + lo;
  if (p.data_f != nullptr)
    adam_update(p.data_f + lo, p.grad_f + lo, mp, vp, hi - lo, lr, beta1_,
                beta2_, eps_, weight_decay_, bc1_, bc2_);
  else
    adam_update(p.data + lo, p.grad + lo, mp, vp, hi - lo, lr, beta1_, beta2_,
                eps_, weight_decay_, bc1_, bc2_);
}

}  // namespace amdgcnn::ag
