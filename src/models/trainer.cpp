#include "models/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/stopwatch.h"
#include "util/worker_pool.h"

namespace amdgcnn::models {

namespace {

/// SplitMix64-style mix of (epoch seed, sample position) into an independent
/// per-sample RNG seed, so dropout draws do not depend on which worker runs
/// the sample.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Trainer::Trainer(LinkGNN& model, const TrainConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  if (config_.learning_rate <= 0.0)
    throw std::invalid_argument("Trainer: learning_rate must be positive");
  if (config_.batch_size <= 0)
    throw std::invalid_argument("Trainer: batch_size must be positive");
  if (config_.num_threads < 0)
    throw std::invalid_argument("Trainer: num_threads must be >= 0");
  params_ = model_.parameters();
  for (const auto& p : params_)
    if (p.dtype() != config_.dtype)
      throw std::invalid_argument(
          std::string("Trainer: model parameters are ") +
          ag::dtype_name(p.dtype()) + " but TrainConfig::dtype is " +
          ag::dtype_name(config_.dtype) +
          " (set ModelConfig::dtype to match)");
  for (std::size_t p = 0; p < params_.size(); ++p)
    slot_of_[params_[p].unsafe_impl()] = p;
  optimizer_ = std::make_unique<ag::Adam>(params_, config_.learning_rate);
}

double Trainer::train_epoch(const std::vector<seal::SubgraphSample>& samples) {
  if (samples.empty())
    throw std::invalid_argument("train_epoch: no samples");
  if (config_.num_threads <= 0) return train_epoch_serial(samples);
  return train_epoch_parallel(samples);
}

double Trainer::train_epoch_serial(
    const std::vector<seal::SubgraphSample>& samples) {
  model_.set_training(true);

  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng_.shuffle(order);

  double total_loss = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t batch_end =
        std::min(order.size(), i + static_cast<std::size_t>(config_.batch_size));
    const double inv_batch = 1.0 / static_cast<double>(batch_end - i);
    optimizer_->zero_grad();
    for (; i < batch_end; ++i) {
      const auto& sample = samples[order[i]];
      auto logits = model_.forward(sample, rng_);
      auto loss = ag::ops::cross_entropy(
          logits, {static_cast<std::int64_t>(sample.label)});
      total_loss += loss.item();
      // Scale so accumulated gradients average over the batch.
      auto scaled = ag::ops::mul_scalar(loss, inv_batch);
      scaled.backward();
      // Sever the sample's tape so interior buffers go back to the pool now
      // instead of through a deep recursive destructor chain later.
      ag::release_graph(scaled);
    }
    if (config_.grad_clip > 0.0) optimizer_->clip_grad_norm(config_.grad_clip);
    optimizer_->step();
  }
  return total_loss / static_cast<double>(samples.size());
}

double Trainer::train_epoch_parallel(
    const std::vector<seal::SubgraphSample>& samples) {
  if (config_.dtype == ag::Dtype::f32)
    return train_epoch_parallel_impl<float>(samples);
  return train_epoch_parallel_impl<double>(samples);
}

template <typename T>
double Trainer::train_epoch_parallel_impl(
    const std::vector<seal::SubgraphSample>& samples) {
  model_.set_training(true);

  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng_.shuffle(order);
  const std::uint64_t epoch_seed = rng_.next_u64();

  // One private gradient sink (a buffer per parameter, at the parameter
  // width) per batch slot, reused by every batch of the epoch; the worker
  // that runs a sample zeroes its slot's sink first.
  const std::size_t slots =
      std::min(order.size(), static_cast<std::size_t>(config_.batch_size));
  std::vector<std::vector<std::vector<T>>> sinks(slots);
  for (auto& sink : sinks) {
    sink.reserve(params_.size());
    for (const auto& p : params_)
      sink.emplace_back(static_cast<std::size_t>(p.numel()));
  }
  std::vector<double> losses(slots, 0.0);
  std::vector<T*> grads(params_.size());

  double total_loss = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t batch_end = std::min(
        order.size(), i + static_cast<std::size_t>(config_.batch_size));
    const std::size_t bs = batch_end - i;
    const double inv_batch = 1.0 / static_cast<double>(bs);
    util::parallel_for(
        "train_epoch", config_.num_threads, static_cast<std::int64_t>(bs),
        [&](std::int64_t b) {
          const std::size_t k = i + static_cast<std::size_t>(b);
          // Leaf gradients of this sample's backward pass land in sinks[b];
          // interior nodes are sample-private, so workers never write shared
          // state.  The per-sample RNG depends only on the sample's position.
          for (auto& s : sinks[b]) std::fill(s.begin(), s.end(), T{});
          ag::GradSinkScope scope(slot_of_, sinks[b]);
          util::Rng sample_rng(
              mix_seed(epoch_seed, static_cast<std::uint64_t>(k)));
          const auto& sample = samples[order[k]];
          auto logits = model_.forward(sample, sample_rng);
          auto loss = ag::ops::cross_entropy(
              logits, {static_cast<std::int64_t>(sample.label)});
          losses[b] = loss.item();
          auto scaled = ag::ops::mul_scalar(loss, inv_batch);
          scaled.backward();
          ag::release_graph(scaled);
        });

    // Reduce over element ranges, each element zeroed and then summed in
    // sample order — the bytes of zero_grad() plus a serial reduction, for
    // any worker count, since each sink's contents depend only on its
    // sample.  Raw grad pointers are read here, before the split.
    for (std::size_t p = 0; p < params_.size(); ++p)
      grads[p] = params_[p].grad_as<T>().data();
    ag::for_each_param_range(
        "train_reduce", params_, config_.num_threads,
        [&](std::size_t p, std::size_t lo, std::size_t hi) {
          T* __restrict__ g = grads[p] + lo;
          const std::size_t n = hi - lo;
          std::fill(g, g + n, T{});
          for (std::size_t b = 0; b < bs; ++b) {
            const T* __restrict__ s = sinks[b][p].data() + lo;
            for (std::size_t j = 0; j < n; ++j) g[j] += s[j];
          }
        });
    for (std::size_t b = 0; b < bs; ++b) total_loss += losses[b];
    if (config_.grad_clip > 0.0) optimizer_->clip_grad_norm(config_.grad_clip);
    optimizer_->step(config_.num_threads);
    i = batch_end;
  }
  return total_loss / static_cast<double>(samples.size());
}

std::vector<EpochRecord> Trainer::fit(
    const std::vector<seal::SubgraphSample>& train,
    const std::vector<seal::SubgraphSample>& test, std::int64_t eval_every) {
  std::vector<EpochRecord> records;
  util::Stopwatch watch;
  for (std::int64_t epoch = 1; epoch <= config_.epochs; ++epoch) {
    const double loss = train_epoch(train);
    if (eval_every > 0 && (epoch % eval_every == 0 || epoch == config_.epochs)) {
      EpochRecord rec;
      rec.epoch = epoch;
      rec.train_loss = loss;
      if (!test.empty()) {
        auto ev = evaluate(test);
        rec.test_auc = ev.metrics.macro_auc;
        rec.test_ap = ev.metrics.macro_precision;
      }
      rec.seconds = watch.seconds();
      records.push_back(rec);
    }
  }
  return records;
}

std::vector<double> Trainer::predict_proba(
    const std::vector<seal::SubgraphSample>& samples) const {
  model_.set_training(false);
  const std::int64_t c = model_.config().num_classes;
  std::vector<double> probs(samples.size() * static_cast<std::size_t>(c));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto logits = model_.forward(samples[i], rng_);
    auto p = ag::ops::softmax_rows(logits);
    for (std::int64_t j = 0; j < c; ++j)
      probs[i * static_cast<std::size_t>(c) + j] = p.item(j);
  }
  model_.set_training(true);
  return probs;
}

EvalResult Trainer::evaluate(
    const std::vector<seal::SubgraphSample>& samples) const {
  if (samples.empty()) throw std::invalid_argument("evaluate: no samples");
  model_.set_training(false);
  const std::int64_t c = model_.config().num_classes;
  std::vector<double> probs(samples.size() * static_cast<std::size_t>(c));
  std::vector<std::int32_t> labels(samples.size());
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto logits = model_.forward(samples[i], rng_);
    auto logp = ag::ops::log_softmax_rows(logits);
    loss_sum -= logp.item(samples[i].label);
    for (std::int64_t j = 0; j < c; ++j)
      probs[i * static_cast<std::size_t>(c) + j] = std::exp(logp.item(j));
    labels[i] = samples[i].label;
  }
  model_.set_training(true);
  EvalResult result;
  result.metrics = metrics::evaluate_multiclass(probs, c, labels);
  result.mean_loss = loss_sum / static_cast<double>(samples.size());
  return result;
}

}  // namespace amdgcnn::models
