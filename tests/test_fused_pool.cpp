// Tests for the tensor-engine hot-path machinery: fused linear/scatter ops
// (forward equivalence + finite-difference gradients), the few-row dA += G·Bᵀ
// kernel path (bit parity with the 4-row path), buffer-pool recycling
// correctness, and determinism of the parallel trainer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "models/dgcnn.h"
#include "models/trainer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"
#include "test_util.h"

namespace amdgcnn::ag {
namespace {

// ---- Fused ops: forward equivalence -----------------------------------------

TEST(FusedOps, AddmmMatchesMatmulPlusRowvec) {
  util::Rng rng(1);
  auto a = Tensor::randn({5, 3}, rng);
  auto w = Tensor::randn({3, 4}, rng);
  auto b = Tensor::randn({1, 4}, rng);
  auto fused = ops::addmm(a, w, b);
  auto composed = ops::add_rowvec(ops::matmul(a, w), b);
  ASSERT_EQ(fused.shape(), composed.shape());
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    EXPECT_NEAR(fused.item(i), composed.item(i), 1e-12);
}

TEST(FusedOps, LinearReluMatchesComposition) {
  util::Rng rng(2);
  auto a = Tensor::randn({6, 4}, rng);
  auto w = Tensor::randn({4, 3}, rng);
  auto b = Tensor::randn({1, 3}, rng);
  auto fused = ops::linear_relu(a, w, b);
  auto composed = ops::relu(ops::add_rowvec(ops::matmul(a, w), b));
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    EXPECT_NEAR(fused.item(i), composed.item(i), 1e-12);
}

TEST(FusedOps, LinearTanhMatchesComposition) {
  util::Rng rng(3);
  auto a = Tensor::randn({4, 5}, rng);
  auto w = Tensor::randn({5, 2}, rng);
  auto b = Tensor::randn({1, 2}, rng);
  auto fused = ops::linear_tanh(a, w, b);
  auto composed = ops::tanh_act(ops::add_rowvec(ops::matmul(a, w), b));
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    EXPECT_NEAR(fused.item(i), composed.item(i), 1e-12);
}

TEST(FusedOps, ScatterAddBiasMatchesComposition) {
  util::Rng rng(4);
  auto src = Tensor::randn({7, 3}, rng);
  auto bias = Tensor::randn({1, 3}, rng);
  std::vector<std::int64_t> idx = {0, 2, 1, 2, 3, 0, 3};
  auto fused = ops::scatter_add_bias(src, idx, 4, bias);
  auto composed = ops::add_rowvec(ops::scatter_add_rows(src, idx, 4), bias);
  ASSERT_EQ(fused.shape(), composed.shape());
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    EXPECT_NEAR(fused.item(i), composed.item(i), 1e-12);
}

TEST(FusedOps, RejectShapeMismatches) {
  util::Rng rng(5);
  auto a = Tensor::randn({2, 3}, rng);
  auto w = Tensor::randn({4, 2}, rng);  // inner dim mismatch
  auto b = Tensor::randn({1, 2}, rng);
  EXPECT_THROW(ops::addmm(a, w, b), std::invalid_argument);
  auto w2 = Tensor::randn({3, 2}, rng);
  auto bad_bias = Tensor::randn({1, 5}, rng);
  EXPECT_THROW(ops::linear_relu(a, w2, bad_bias), std::invalid_argument);
  EXPECT_THROW(ops::scatter_add_bias(a, {0, 5}, 3, b),
               std::invalid_argument);  // index out of range
}

// ---- Fused ops: gradients vs central differences ----------------------------

TEST(FusedOpsGrad, AddmmAllParents) {
  util::Rng rng(6);
  auto a = Tensor::randn({4, 3}, rng);
  auto w = Tensor::randn({3, 5}, rng);
  auto b = Tensor::randn({1, 5}, rng);
  for (Tensor* p : {&a, &w, &b})
    amdgcnn::testing::expect_gradient_matches(
        *p, [&] { return ops::mean(ops::addmm(a, w, b)); });
}

TEST(FusedOpsGrad, LinearReluAllParents) {
  util::Rng rng(7);
  // Offset inputs away from the ReLU kink so finite differences are clean.
  auto a = Tensor::randn({3, 4}, rng);
  auto w = Tensor::randn({4, 3}, rng);
  auto b = Tensor::full({1, 3}, 0.37);
  for (Tensor* p : {&a, &w, &b})
    amdgcnn::testing::expect_gradient_matches(
        *p, [&] { return ops::mean(ops::linear_relu(a, w, b)); }, 1e-5, 1e-5);
}

TEST(FusedOpsGrad, LinearTanhAllParents) {
  util::Rng rng(8);
  auto a = Tensor::randn({3, 2}, rng);
  auto w = Tensor::randn({2, 4}, rng);
  auto b = Tensor::randn({1, 4}, rng);
  for (Tensor* p : {&a, &w, &b})
    amdgcnn::testing::expect_gradient_matches(
        *p, [&] { return ops::mean(ops::linear_tanh(a, w, b)); });
}

TEST(FusedOpsGrad, ScatterAddBiasBothParents) {
  util::Rng rng(9);
  auto src = Tensor::randn({6, 3}, rng);
  auto bias = Tensor::randn({1, 3}, rng);
  std::vector<std::int64_t> idx = {1, 0, 2, 2, 1, 3};
  for (Tensor* p : {&src, &bias})
    amdgcnn::testing::expect_gradient_matches(*p, [&] {
      return ops::mean(ops::scatter_add_bias(src, idx, 4, bias));
    });
}

TEST(FusedOpsGrad, MatmulBackwardHandlesZeroEntries) {
  // Regression for the removed zero-skip: dB must be exact even when A (and
  // the upstream gradient) contain exact zeros.
  auto a = Tensor::from_data({2, 3}, {0.0, 1.0, 0.0, 2.0, 0.0, 3.0});
  auto b = Tensor::from_data({3, 2}, {1.0, 0.0, 0.0, 2.0, 3.0, 0.0});
  for (Tensor* p : {&a, &b})
    amdgcnn::testing::expect_gradient_matches(
        *p, [&] { return ops::mean(ops::matmul(a, b)); });
}

// ---- dA += G·Bᵀ with fewer than 4 rows ---------------------------------------
//
// Rows 0..n-1 of an n-row call (n < 4, the blocked-transpose path) must carry
// the same bits as the same rows of the call padded with zero rows to 4,
// which runs the 4-row path.

template <typename T>
std::vector<T> random_values(std::size_t n, util::Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.normal());
  return v;
}

template <typename T>
void expect_abt_rows_match_padded(std::int64_t n, std::int64_t k,
                                  std::int64_t m, util::Rng& rng) {
  const auto g = random_values<T>(static_cast<std::size_t>(n * m), rng);
  const auto b = random_values<T>(static_cast<std::size_t>(k * m), rng);
  auto da = random_values<T>(static_cast<std::size_t>(n * k), rng);
  std::vector<T> g4(g), da4(da);
  g4.resize(static_cast<std::size_t>(4 * m), T{});
  da4.resize(static_cast<std::size_t>(4 * k), T{});
  kern::mm_abt_add(g.data(), b.data(), da.data(), n, k, m);
  kern::mm_abt_add(g4.data(), b.data(), da4.data(), 4, k, m);
  EXPECT_EQ(std::memcmp(da.data(), da4.data(), da.size() * sizeof(T)), 0)
      << "n=" << n << " k=" << k << " m=" << m << " sizeof(T)=" << sizeof(T);
}

TEST(FusedKernels, AbtFewRowsMatchFourRowPathBitForBit) {
  util::Rng rng(31);
  for (std::int64_t n : {1, 2, 3})
    for (std::int64_t k : {1, 7, 35, 256})
      for (std::int64_t m : {1, 3, 32, 128}) {
        expect_abt_rows_match_padded<float>(n, k, m, rng);
        expect_abt_rows_match_padded<double>(n, k, m, rng);
      }
}

/// Input gradient of `op` for a [1,256] row against [256,128] weights, and
/// row 0 of the same gradient with the input padded by zero rows to [4,256].
/// The loss weights each output by a fixed random row, so the upstream
/// gradient of row 0 is the same in both calls.
template <typename Op>
void expect_dense_head_input_grad_matches_padded(Op op, Dtype dtype) {
  util::Rng rng(32);
  const std::int64_t k = 256, m = 128;
  auto w = Tensor::randn({k, m}, rng, dtype);
  auto bias = Tensor::randn({1, m}, rng, dtype);
  const auto a_row = Tensor::randn({1, k}, rng, dtype).to_vec64();
  const auto r_row = Tensor::randn({1, m}, rng, dtype).to_vec64();
  auto input_grad = [&](std::int64_t rows) {
    std::vector<double> a(a_row), r(r_row);
    a.resize(static_cast<std::size_t>(rows * k), 0.0);
    r.resize(static_cast<std::size_t>(rows * m), 0.0);
    auto at = ops::cast(Tensor::from_data({rows, k}, std::move(a)), dtype)
                  .detach()
                  .requires_grad(true);
    auto rt = ops::cast(Tensor::from_data({rows, m}, std::move(r)), dtype);
    ops::sum(ops::mul(op(at, w, bias), rt)).backward();
    std::vector<double> g;  // row 0, widened (exact for f32)
    if (dtype == Dtype::f32)
      g.assign(at.grad_f32().begin(), at.grad_f32().begin() + k);
    else
      g.assign(at.grad().begin(), at.grad().begin() + k);
    return g;
  };
  const auto one = input_grad(1);
  const auto padded = input_grad(4);
  ASSERT_EQ(one.size(), padded.size());
  EXPECT_EQ(std::memcmp(one.data(), padded.data(), one.size() * sizeof(double)),
            0)
      << dtype_name(dtype);
}

TEST(FusedOpsGrad, DenseHeadInputGradMatchesFourRowPathBitForBit) {
  for (auto dtype : {Dtype::f32, Dtype::f64}) {
    expect_dense_head_input_grad_matches_padded(
        [](const Tensor& a, const Tensor& w, const Tensor& b) {
          return ops::linear_relu(a, w, b);
        },
        dtype);
    expect_dense_head_input_grad_matches_padded(
        [](const Tensor& a, const Tensor& w, const Tensor& b) {
          return ops::addmm(a, w, b);
        },
        dtype);
  }
}

// ---- Buffer pool ------------------------------------------------------------

TEST(BufferPool, RecyclesTapeStorageAcrossIterations) {
  clear_buffer_pool();
  util::Rng rng(10);
  auto w = Tensor::randn({8, 8}, rng).requires_grad(true);
  auto x = Tensor::randn({4, 8}, rng);
  // Warm the pool with one iteration, then measure hits over the next ones.
  for (int warm = 0; warm < 2; ++warm) {
    auto loss = ops::mean(ops::matmul(x, w));
    loss.backward();
    release_graph(loss);
  }
  reset_pool_stats();
  for (int i = 0; i < 5; ++i) {
    auto loss = ops::mean(ops::matmul(x, w));
    loss.backward();
    release_graph(loss);
  }
  const auto stats = pool_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u) << "steady-state iterations should allocate "
                                 "nothing once the pool is warm";
}

TEST(BufferPool, LiveTensorsNeverShareRecycledStorage) {
  auto a = Tensor::zeros({16});
  const double* pa = a.data().data();
  auto b = Tensor::zeros({16});
  EXPECT_NE(pa, b.data().data());
  // Release `a`'s buffer back to the pool, then reacquire the same size: the
  // new tensor may reuse the dead buffer but must never overlap `b`.
  a = Tensor();
  auto c = Tensor::zeros({16});
  EXPECT_NE(c.data().data(), b.data().data());
}

TEST(BufferPool, GradAccumulationSurvivesGraphRecycling) {
  // Two consecutive "batches" over recycled tape storage must accumulate
  // into the SAME live gradient buffer without corruption: after the second
  // backward the gradient is exactly twice the first.
  util::Rng rng(11);
  auto w = Tensor::randn({6, 6}, rng).requires_grad(true);
  auto x = Tensor::randn({3, 6}, rng);
  w.zero_grad();
  auto loss1 = ops::mean(ops::matmul(x, w));
  loss1.backward();
  release_graph(loss1);
  const std::vector<double> after_first = w.grad();
  auto loss2 = ops::mean(ops::matmul(x, w));
  loss2.backward();
  release_graph(loss2);
  for (std::size_t i = 0; i < after_first.size(); ++i)
    EXPECT_DOUBLE_EQ(w.grad()[i], 2.0 * after_first[i]);
}

TEST(BufferPool, SizeClassRoundingIsPowerOfTwo) {
  EXPECT_EQ(detail::pool_size_class(1), detail::kMinPoolClass);
  EXPECT_EQ(detail::pool_size_class(16), 16u);
  EXPECT_EQ(detail::pool_size_class(17), 32u);
  EXPECT_EQ(detail::pool_size_class(900), 1024u);
  EXPECT_EQ(detail::pool_size_class(1024), 1024u);
  EXPECT_EQ(detail::pool_size_class(1025), 2048u);
}

TEST(BufferPool, NearDuplicateSizesShareOneBucket) {
  // Regression guard for the pow2 rounding policy: sizes 513..1024 all map
  // to the 1024 class, so a sweep over near-duplicate subgraph shapes is
  // served by ONE parked buffer instead of parking one buffer per size —
  // the failure mode that inflated the peak pooled footprint before
  // size-class rounding.
  clear_buffer_pool();
  auto& pool = detail::buffer_pool();
  pool.release(pool.acquire(900));  // warm: allocates the class-1024 buffer
  pool.reset_stats();
  for (std::size_t n : {901u, 950u, 1000u, 1024u, 600u, 513u})
    pool.release(pool.acquire(n));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.misses, 0u) << "every size in (512, 1024] must reuse the "
                                 "single warmed class-1024 buffer";
  EXPECT_LE(stats.peak_pooled_bytes, 1024 * sizeof(double))
      << "the sweep must park at most one class-1024 buffer";
  clear_buffer_pool();
}

TEST(BufferPool, PooledBuffersAcrossClassesNeverAlias) {
  // Simultaneously held buffers — same class, different classes, and across
  // the double/int32 pools — must be disjoint allocations: writes through
  // one must never show up in another.
  clear_buffer_pool();
  auto& dpool = detail::buffer_pool();
  auto& ipool = detail::i32_buffer_pool();
  auto a = dpool.acquire_zeroed(600);   // class 1024
  auto b = dpool.acquire_zeroed(900);   // class 1024, a still live
  auto c = dpool.acquire_zeroed(100);   // class 128
  auto d = ipool.acquire_zeroed(600);   // int pool, class 1024
  EXPECT_NE(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
  EXPECT_NE(static_cast<const void*>(a.data()),
            static_cast<const void*>(d.data()));
  std::fill(a.begin(), a.end(), 1.0);
  std::fill(d.begin(), d.end(), std::int32_t{7});
  EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                          [](double v) { return v == 0.0; }));
  EXPECT_TRUE(std::all_of(c.begin(), c.end(),
                          [](double v) { return v == 0.0; }));
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](double v) { return v == 1.0; }));
  dpool.release(std::move(a));
  // A recycled buffer may reuse a's storage but must never overlap the
  // still-live b.
  auto e = dpool.acquire(700);
  EXPECT_NE(e.data(), b.data());
  dpool.release(std::move(b));
  dpool.release(std::move(c));
  dpool.release(std::move(e));
  ipool.release(std::move(d));
  clear_buffer_pool();
}

TEST(BufferPool, StatsTrackInUseBytes) {
  clear_buffer_pool();
  reset_pool_stats();
  {
    auto t = Tensor::zeros({1000});
    EXPECT_GE(pool_stats().in_use_bytes, 1000 * sizeof(double));
    EXPECT_GE(pool_stats().peak_in_use_bytes, 1000 * sizeof(double));
  }
  // After destruction the buffer is parked, not in use.
  EXPECT_GE(pool_stats().pooled_bytes, 1000 * sizeof(double));
}

}  // namespace
}  // namespace amdgcnn::ag

// ---- Parallel trainer determinism -------------------------------------------

namespace amdgcnn::models {
namespace {

seal::SubgraphSample toy_sample(std::int64_t leaves, double attr_value,
                                std::int32_t label) {
  seal::SubgraphSample s;
  s.num_nodes = leaves + 1;
  s.label = label;
  const std::int64_t f = 4;
  std::vector<double> feat(static_cast<std::size_t>(s.num_nodes * f), 0.0);
  for (std::int64_t i = 0; i < s.num_nodes; ++i)
    feat[i * f + (i == 0 ? 0 : 1)] = 1.0;
  s.node_feat = ag::Tensor::from_data({s.num_nodes, f}, std::move(feat));
  std::vector<double> ea;
  for (std::int64_t l = 1; l <= leaves; ++l) {
    s.src.push_back(0);
    s.dst.push_back(l);
    s.src.push_back(l);
    s.dst.push_back(0);
    for (int rep = 0; rep < 2; ++rep) {
      ea.push_back(attr_value);
      ea.push_back(1.0 - attr_value);
    }
  }
  s.edge_attr = ag::Tensor::from_data(
      {static_cast<std::int64_t>(s.src.size()), 2}, std::move(ea));
  return s;
}

ModelConfig toy_config(GnnKind kind) {
  ModelConfig mc;
  mc.kind = kind;
  mc.node_feature_dim = 4;
  mc.edge_attr_dim = 2;
  mc.num_classes = 2;
  mc.hidden_dim = 8;
  mc.heads = 2;
  mc.num_layers = 2;
  mc.sort_k = 10;
  mc.dense_dim = 16;
  return mc;
}

std::vector<seal::SubgraphSample> toy_dataset() {
  std::vector<seal::SubgraphSample> train;
  for (int i = 0; i < 30; ++i)
    train.push_back(toy_sample(2 + i % 5, (i % 2) ? 0.9 : 0.1, i % 2));
  return train;
}

/// Epoch losses + final flat parameter vector for a fresh seeded model
/// trained with the given worker count and batch size.
std::pair<std::vector<double>, std::vector<double>> train_with_threads(
    GnnKind kind, std::int64_t num_threads, int epochs,
    std::int64_t batch_size = 32) {
  util::Rng init(42);
  DGCNN model(toy_config(kind), init);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.num_threads = num_threads;
  tc.batch_size = batch_size;
  Trainer trainer(model, tc);
  auto train = toy_dataset();
  std::vector<double> losses;
  for (int e = 0; e < epochs; ++e) losses.push_back(trainer.train_epoch(train));
  std::vector<double> flat;
  for (const auto& p : model.parameters())
    flat.insert(flat.end(), p.data().begin(), p.data().end());
  return {losses, flat};
}

TEST(ParallelTrainer, OneThreadAndManyThreadsAreBitIdentical) {
  // Batch 7 over the 30 toy samples leaves a short last batch, and neither
  // the batches nor the parameter elements split evenly over 2, 3 or 4
  // workers: the reduction and Adam ranges end mid-parameter.
  for (auto kind : {GnnKind::kAMDGCNN, GnnKind::kVanillaDGCNN})
    for (std::int64_t batch : {32, 7}) {
      auto [losses1, params1] = train_with_threads(kind, 1, 3, batch);
      for (std::int64_t threads : {2, 3, 4}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + ", " +
                     std::to_string(threads) + " threads");
        auto [losses, params] = train_with_threads(kind, threads, 3, batch);
        ASSERT_EQ(losses1.size(), losses.size());
        for (std::size_t e = 0; e < losses1.size(); ++e)
          EXPECT_EQ(losses1[e], losses[e]) << "epoch " << e;
        ASSERT_EQ(params1.size(), params.size());
        for (std::size_t i = 0; i < params1.size(); ++i)
          ASSERT_EQ(params1[i], params[i]) << "parameter flat index " << i;
      }
    }
}

TEST(ParallelTrainer, ParallelPathLearns) {
  util::Rng init(43);
  DGCNN model(toy_config(GnnKind::kVanillaDGCNN), init);
  TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.num_threads = 2;
  Trainer trainer(model, tc);
  auto train = toy_dataset();
  const double first = trainer.train_epoch(train);
  double last = first;
  for (int e = 0; e < 5; ++e) last = trainer.train_epoch(train);
  EXPECT_LT(last, first);
}

TEST(ParallelTrainer, RejectsNegativeThreadCount) {
  util::Rng init(44);
  DGCNN model(toy_config(GnnKind::kAMDGCNN), init);
  TrainConfig tc;
  tc.num_threads = -1;
  EXPECT_THROW(Trainer(model, tc), std::invalid_argument);
}

}  // namespace
}  // namespace amdgcnn::models
