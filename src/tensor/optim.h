// First-order optimisers over ag::Tensor parameter lists.
//
// Both optimisers update parameter data in place from accumulated gradients;
// call zero_grad() between steps (the Trainer does).  Gradient clipping is
// global-norm based, as in the reference implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace amdgcnn::ag {

/// Runs fn(i, lo, hi) over the elements of `params` taken as one flat vector
/// in parameter order: with `threads` == 0, once per parameter over all of
/// its elements; with `threads` >= 1, the flat vector is cut into contiguous
/// pieces of near-equal length that run as util::parallel_for items on that
/// many workers, and fn sees each piece's slice [lo, hi) of every parameter
/// it overlaps.  Every element lies in exactly one call and the calls of one
/// piece ascend, so fn may write the elements it is handed.
void for_each_param_range(
    const char* stage, const std::vector<Tensor>& params, std::int64_t threads,
    const std::function<void(std::size_t i, std::size_t lo, std::size_t hi)>&
        fn);

class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  /// Apply one update from the currently accumulated gradients, the
  /// elements split by for_each_param_range over `threads` workers.  Each
  /// element's update reads and writes only that element's state, so the
  /// result is bit-identical for every `threads`.
  void step(std::int64_t threads = 0);

  /// Reset accumulated gradients of all parameters to zero.
  void zero_grad();

  /// Scale gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  /// Raw storage of one parameter: the pair of its dtype is set, the other
  /// is null.  step() reads it on the calling thread, before the split.
  struct RawParam {
    float* data_f = nullptr;
    const float* grad_f = nullptr;
    double* data = nullptr;
    const double* grad = nullptr;
  };

  /// Advance per-step state; runs once per step(), before any update_range.
  virtual void begin_step() {}
  /// Update elements [lo, hi) of params_[i], whose storage is `p`.  step()
  /// calls it concurrently for disjoint ranges.
  virtual void update_range(const RawParam& p, std::size_t i, std::size_t lo,
                            std::size_t hi) = 0;

  std::vector<Tensor> params_;
};

/// Plain SGD with optional momentum and L2 weight decay.
class SGD final : public Optimizer {
 public:
  SGD(std::vector<Tensor> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);

  double lr;

 private:
  void update_range(const RawParam& p, std::size_t i, std::size_t lo,
                    std::size_t hi) override;

  double momentum_;
  double weight_decay_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba, 2015) with bias correction and L2 weight decay.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

  double lr;

 private:
  void begin_step() override;
  void update_range(const RawParam& p, std::size_t i, std::size_t lo,
                    std::size_t hi) override;

  double beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  // bias corrections of step t_
  std::vector<std::vector<double>> m_, v_;
};

}  // namespace amdgcnn::ag
