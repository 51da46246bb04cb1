// Dtype-generic engine tests: f32 storage end-to-end.
//
// Covers the ops::cast boundary, f32 gradchecks of the GNN layers (with
// single-precision tolerances derived in test_util.h), f32/f64 checkpoint
// round-trips plus the v1 backward-compat fixture, dtype/trailing-byte
// rejection, the bit-determinism contract of the parallel trainer at f32,
// and the exact f32 tanh kernel's bit equality with the f64 reference.
// Built into its own binary so `ctest -L dtype` runs exactly this
// file (tests/CMakeLists.txt labels it `unit;dtype`).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "models/dgcnn.h"
#include "models/serialize.h"
#include "models/trainer.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/fwd_kernels.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"
#include "test_util.h"

namespace amdgcnn {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- ops::cast ----------------------------------------------------------------

TEST(Cast, MatchingDtypeSharesTheTapeNode) {
  util::Rng rng(1);
  auto a = ag::Tensor::randn({2, 3}, rng);
  auto b = ag::ops::cast(a, ag::Dtype::f64);
  EXPECT_EQ(a.impl(), b.impl());
  auto c = ag::Tensor::randn({2, 3}, rng, ag::Dtype::f32);
  EXPECT_EQ(c.impl(), ag::ops::cast(c, ag::Dtype::f32).impl());
}

TEST(Cast, NarrowThenWidenRoundsToF32Values) {
  auto a = ag::Tensor::from_data({3}, {0.1, -2.5, 1e-20});
  auto narrow = ag::ops::cast(a, ag::Dtype::f32);
  auto wide = ag::ops::cast(narrow, ag::Dtype::f64);
  EXPECT_EQ(wide.dtype(), ag::Dtype::f64);
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_EQ(wide.item(i), static_cast<double>(static_cast<float>(a.item(i))));
}

TEST(Cast, GradientFlowsAcrossThePrecisionBoundary) {
  // f64 leaf -> f32 compute -> scalar loss: the widened gradient must land
  // in the f64 grad buffer.  d/da mean(cast(a)^2) = 2a/n.
  auto a = ag::Tensor::from_data({2}, {1.0, -3.0});
  a.requires_grad(true);
  auto b = ag::ops::cast(a, ag::Dtype::f32);
  auto loss = ag::ops::mean(ag::ops::mul(b, b));
  loss.backward();
  EXPECT_NEAR(a.grad()[0], 1.0, 1e-6);
  EXPECT_NEAR(a.grad()[1], -3.0, 1e-6);
}

// ---- f32 gradchecks -----------------------------------------------------------

TEST(DtypeGradcheck, LinearF32) {
  util::Rng rng(2);
  nn::Linear lin(3, 2, /*bias=*/true, rng, ag::Dtype::f32);
  util::Rng data_rng(3);
  auto x = ag::Tensor::randn({4, 3}, data_rng, ag::Dtype::f32);
  auto loss_fn = [&] {
    auto y = lin.forward(x);
    return ag::ops::mean(ag::ops::mul(y, y));
  };
  for (auto p : lin.parameters())
    testing::expect_gradient_matches_f32(p, loss_fn);
}

TEST(DtypeGradcheck, GcnF32) {
  util::Rng rng(4);
  nn::GCNConv gcn(2, 3, rng, ag::Dtype::f32);
  util::Rng data_rng(5);
  auto x = ag::Tensor::randn({4, 2}, data_rng, ag::Dtype::f32);
  std::vector<std::int64_t> src = {0, 1, 1, 2, 2, 3};
  std::vector<std::int64_t> dst = {1, 0, 2, 1, 3, 2};
  auto loss_fn = [&] {
    auto out = gcn.forward(x, src, dst, 4);
    return ag::ops::mean(ag::ops::mul(out, out));
  };
  for (auto p : gcn.parameters())
    testing::expect_gradient_matches_f32(p, loss_fn);
}

TEST(DtypeGradcheck, GatF32) {
  util::Rng rng(6);
  nn::GATConv gat(2, 2, /*heads=*/1, /*edge_attr_dim=*/2, rng,
                  /*negative_slope=*/0.2, ag::Dtype::f32);
  util::Rng data_rng(7);
  auto x = ag::Tensor::randn({3, 2}, data_rng, ag::Dtype::f32);
  // Edge attributes stay f64 on purpose: the layer casts them at its
  // boundary, so this also exercises the dataset-precision bridge.
  auto ea = ag::Tensor::randn({4, 2}, data_rng);
  std::vector<std::int64_t> src = {0, 1, 1, 2};
  std::vector<std::int64_t> dst = {1, 0, 2, 1};
  auto loss_fn = [&] {
    auto out = gat.forward(x, src, dst, ea, 3);
    return ag::ops::mean(ag::ops::mul(out, out));
  };
  for (auto p : gat.parameters())
    testing::expect_gradient_matches_f32(p, loss_fn);
}

// ---- Model-level fixtures -----------------------------------------------------

seal::SubgraphSample probe_sample() {
  seal::SubgraphSample s;
  s.num_nodes = 3;
  s.label = 0;
  s.node_feat = ag::Tensor::from_data({3, 4}, {1, 0, 0, 0, 0, 1, 0, 0,
                                               0, 0, 1, 0});
  s.src = {0, 1, 1, 2};
  s.dst = {1, 0, 2, 1};
  s.edge_attr = ag::Tensor::from_data({4, 2}, {1, 0, 1, 0, 0, 1, 0, 1});
  return s;
}

models::ModelConfig probe_config(ag::Dtype dtype) {
  models::ModelConfig mc;
  mc.kind = models::GnnKind::kAMDGCNN;
  mc.node_feature_dim = 4;
  mc.edge_attr_dim = 2;
  mc.num_classes = 3;
  mc.hidden_dim = 8;
  mc.heads = 2;
  mc.num_layers = 2;
  mc.sort_k = 10;
  mc.dropout = 0.0;
  mc.dtype = dtype;
  return mc;
}

TEST(DtypeModel, F32TwinTracksF64ModelClosely) {
  // randn/xavier draw f64 from the RNG and narrow, so equal seeds give the
  // f32 model bit-rounded copies of the f64 weights; the forward passes may
  // then only drift by single-precision rounding.
  util::Rng rng64(8), rng32(8), fwd(9);
  models::DGCNN m64(probe_config(ag::Dtype::f64), rng64);
  models::DGCNN m32(probe_config(ag::Dtype::f32), rng32);
  m64.set_training(false);
  m32.set_training(false);
  const auto sample = probe_sample();
  auto out64 = m64.forward(sample, fwd);
  auto out32 = m32.forward(sample, fwd);
  ASSERT_EQ(out32.dtype(), ag::Dtype::f32);
  for (std::int64_t i = 0; i < out64.numel(); ++i)
    EXPECT_NEAR(out32.item(i), out64.item(i), 1e-4);
}

// ---- Checkpoint round-trips ---------------------------------------------------

void roundtrip_reproduces_predictions(ag::Dtype dtype, const char* file) {
  const auto path = temp_path(file);
  util::Rng rng_a(10), rng_b(11), fwd(12);
  models::DGCNN original(probe_config(dtype), rng_a);
  models::DGCNN restored(probe_config(dtype), rng_b);
  original.set_training(false);
  restored.set_training(false);
  const auto sample = probe_sample();
  const auto target = original.forward(sample, fwd);

  models::save_weights(original, path);
  models::load_weights(restored, path);
  const auto after = restored.forward(sample, fwd);
  // Raw bytes round-trip, so the restored forward is bit-identical.
  for (std::int64_t i = 0; i < target.numel(); ++i)
    EXPECT_EQ(after.item(i), target.item(i));
  std::remove(path.c_str());
}

TEST(DtypeSerialize, RoundTripF64) {
  roundtrip_reproduces_predictions(ag::Dtype::f64, "amdgcnn_rt_f64.bin");
}

TEST(DtypeSerialize, RoundTripF32) {
  roundtrip_reproduces_predictions(ag::Dtype::f32, "amdgcnn_rt_f32.bin");
}

TEST(DtypeSerialize, RejectsDtypeMismatch) {
  const auto path = temp_path("amdgcnn_dtype_mismatch.bin");
  util::Rng rng(13);
  nn::MLP mlp32({4, 4, 2}, 0.0, rng, ag::Dtype::f32);
  models::save_weights(mlp32, path);
  nn::MLP mlp64({4, 4, 2}, 0.0, rng);
  try {
    models::load_weights(mlp64, path);
    FAIL() << "expected dtype mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dtype mismatch"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(DtypeSerialize, RejectsTrailingGarbage) {
  const auto path = temp_path("amdgcnn_trailing.bin");
  util::Rng rng(14);
  nn::MLP mlp({4, 4, 2}, 0.0, rng);
  models::save_weights(mlp, path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  try {
    models::load_weights(mlp, path);
    FAIL() << "expected trailing bytes to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(DtypeSerialize, V1CheckpointStillLoadsAsF64) {
  // Fixture written by the pre-dtype serializer (format v1, implicit f64)
  // from nn::MLP({4, 4, 2}, 0.0, util::Rng(6)) — the exact bytes a user's
  // old checkpoint would hold.
  const std::string path =
      std::string(AMDGCNN_TEST_DATA_DIR) + "/v1_mlp_seed6.bin";
  util::Rng fixture_rng(6);
  nn::MLP expected({4, 4, 2}, 0.0, fixture_rng);

  util::Rng other_rng(15);
  nn::MLP loaded({4, 4, 2}, 0.0, other_rng);
  models::load_weights(loaded, path);
  const auto ep = expected.parameters();
  const auto lp = loaded.parameters();
  ASSERT_EQ(ep.size(), lp.size());
  // The loaded side is the fixture's stored f64 bytes verbatim; the expected
  // side re-runs parameter init, whose last bits vary with compile flags
  // (FP contraction differs between the Release and sanitizer trees), so
  // compare within a few ulps rather than bitwise.
  for (std::size_t i = 0; i < ep.size(); ++i) {
    const auto& e = ep[i].data();
    const auto& l = lp[i].data();
    ASSERT_EQ(e.size(), l.size()) << "parameter " << i;
    for (std::size_t j = 0; j < e.size(); ++j)
      EXPECT_NEAR(e[j], l[j], 1e-12) << "parameter " << i << "[" << j << "]";
  }

  // The same v1 file must not be reinterpreted into an f32 model.
  nn::MLP mlp32({4, 4, 2}, 0.0, other_rng, ag::Dtype::f32);
  EXPECT_THROW(models::load_weights(mlp32, path), std::runtime_error);
}

// ---- Trainer ------------------------------------------------------------------

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

std::vector<seal::SubgraphSample> toy_dataset() {
  std::vector<seal::SubgraphSample> train;
  for (int i = 0; i < 30; ++i)
    train.push_back(toy_sample(2 + i % 5, (i % 2) ? 0.9 : 0.1, i % 2));
  return train;
}

models::ModelConfig toy_config(ag::Dtype dtype) {
  models::ModelConfig mc;
  mc.kind = models::GnnKind::kAMDGCNN;
  mc.node_feature_dim = 4;
  mc.edge_attr_dim = 2;
  mc.num_classes = 2;
  mc.hidden_dim = 8;
  mc.heads = 2;
  mc.num_layers = 2;
  mc.sort_k = 10;
  mc.dense_dim = 16;
  mc.dtype = dtype;
  return mc;
}

TEST(DtypeTrainer, RejectsModelTrainConfigDtypeMismatch) {
  util::Rng init(16);
  models::DGCNN model(toy_config(ag::Dtype::f32), init);
  models::TrainConfig tc;  // dtype defaults to f64
  EXPECT_THROW(models::Trainer(model, tc), std::invalid_argument);
}

/// Epoch losses + final flat f32 parameters for a fresh seeded f32 model
/// trained with the given worker count and batch size.
std::pair<std::vector<double>, std::vector<float>> train_f32_with_threads(
    std::int64_t num_threads, int epochs, std::int64_t batch_size = 32) {
  util::Rng init(42);
  models::DGCNN model(toy_config(ag::Dtype::f32), init);
  models::TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.dtype = ag::Dtype::f32;
  tc.num_threads = num_threads;
  tc.batch_size = batch_size;
  models::Trainer trainer(model, tc);
  auto train = toy_dataset();
  std::vector<double> losses;
  for (int e = 0; e < epochs; ++e) losses.push_back(trainer.train_epoch(train));
  std::vector<float> flat;
  for (const auto& p : model.parameters())
    flat.insert(flat.end(), p.data_as<float>().begin(),
                p.data_as<float>().end());
  return {losses, flat};
}

TEST(DtypeTrainer, F32ParallelTrainingIsBitDeterministic) {
  // Batch 7 leaves a short last batch and uneven worker splits of the
  // batches and of the reduction and Adam element ranges.
  for (std::int64_t batch : {32, 7}) {
    auto [losses1, params1] = train_f32_with_threads(1, 3, batch);
    for (std::int64_t threads : {2, 3, 4}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", " +
                   std::to_string(threads) + " threads");
      auto [losses, params] = train_f32_with_threads(threads, 3, batch);
      ASSERT_EQ(losses1.size(), losses.size());
      for (std::size_t e = 0; e < losses1.size(); ++e)
        EXPECT_EQ(losses1[e], losses[e]) << "epoch " << e;
      ASSERT_EQ(params1.size(), params.size());
      for (std::size_t i = 0; i < params1.size(); ++i)
        ASSERT_EQ(params1[i], params[i]) << "parameter flat index " << i;
    }
  }
}

// ---- exact f32 tanh kernel (fwd::tanh_inplace) --------------------------------
//
// The f32 kernel must return (float)std::tanh((double)x) bit for bit.  These
// cases sample the 2^32 patterns where a polynomial tanh goes wrong first;
// bench_tanh_exhaustive sweeps all of them.

/// Runs the kernel once over all `patterns` (vector body and scalar tail) and
/// counts the lanes whose bits differ from the reference.
void expect_tanh_f32_exact(const std::vector<std::uint32_t>& patterns) {
  std::vector<float> y(patterns.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = std::bit_cast<float>(patterns[i]);
  ag::fwd::tanh_inplace(y.data(), static_cast<std::int64_t>(y.size()));
  std::size_t failures = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float x = std::bit_cast<float>(patterns[i]);
    const auto want = std::bit_cast<std::uint32_t>(
        static_cast<float>(std::tanh(static_cast<double>(x))));
    const auto got = std::bit_cast<std::uint32_t>(y[i]);
    if (got != want && ++failures <= 5)
      ADD_FAILURE() << std::hex << "x=0x" << patterns[i] << " got 0x" << got
                    << " want 0x" << want;
  }
  EXPECT_EQ(failures, 0u) << "of " << patterns.size() << " patterns";
}

/// `count` consecutive patterns from `first`, for both signs.
void add_run(std::vector<std::uint32_t>& out, std::uint32_t first,
             std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back((first + i) & 0x7fffffffu);
    out.push_back((first + i) | 0x80000000u);
  }
}

TEST(TanhKernel, F32StridedSweepOverAllBitPatterns) {
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093)
    patterns.push_back(static_cast<std::uint32_t>(b));
  expect_tanh_f32_exact(patterns);
}

TEST(TanhKernel, F32DenseBelowTwoToMinusTen) {
  // Every binade below 2^-10 (tanh x rounds to x or its neighbour there):
  // both ends densely, the interior strided.
  std::vector<std::uint32_t> patterns;
  const std::uint32_t top = std::bit_cast<std::uint32_t>(0x1p-10f);
  for (std::uint32_t b = 0; b < top; b += 1u << 23) {
    add_run(patterns, b, 1024);
    add_run(patterns, b + (1u << 23) - 1024, 1024);
    for (std::uint32_t m = 1024; m < (1u << 23) - 1024; m += 4099)
      add_run(patterns, b + m, 1);
  }
  add_run(patterns, top, 1024);
  expect_tanh_f32_exact(patterns);
}

TEST(TanhKernel, F32ReductionBoundariesAndClamp) {
  // k = round(-2|x| / ln2) switches at |2x| = (2j+1)·ln2/2: dense runs
  // around every switch point in range, then around the clamp at 10 and
  // the point where tanh rounds to 1.0f.
  std::vector<std::uint32_t> patterns;
  for (int j = 0; j <= 29; ++j) {
    const auto x = static_cast<float>((2 * j + 1) * std::log(2.0) / 4.0);
    add_run(patterns, std::bit_cast<std::uint32_t>(x) - 2048, 4096);
  }
  add_run(patterns, std::bit_cast<std::uint32_t>(10.0f) - 32768, 65536);
  add_run(patterns, std::bit_cast<std::uint32_t>(9.01f) - 32768, 65536);
  expect_tanh_f32_exact(patterns);
}

TEST(TanhKernel, F32SpecialValues) {
  std::vector<std::uint32_t> patterns;
  // Subnormals: both ends densely, the rest strided; ±0 is pattern 0.
  add_run(patterns, 0, 4096);
  add_run(patterns, 0x00800000u - 4096, 4096);
  for (std::uint32_t b = 4096; b < 0x00800000u; b += 257)
    add_run(patterns, b, 1);
  // ±inf, quiet and signalling NaNs with assorted payloads, largest finite.
  for (const std::uint32_t b :
       {0x7f800000u, 0x7f800001u, 0x7f812345u, 0x7fbfffffu, 0x7fc00000u,
        0x7fc00001u, 0x7fd2468au, 0x7fffffffu, 0x7f7fffffu})
    add_run(patterns, b, 1);
  expect_tanh_f32_exact(patterns);
}

TEST(TanhKernel, F64IsStdTanh) {
  std::vector<double> x;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 65521)
    x.push_back(static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(b))));
  for (const double v : {0.0, -0.0, 1e-310, -1e-300, 0.5, -3.25, 19.0, 23.5,
                         -1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    x.push_back(v);
  std::vector<double> y = x;
  ag::fwd::tanh_inplace(y.data(), static_cast<std::int64_t>(y.size()));
  std::size_t failures = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (std::bit_cast<std::uint64_t>(y[i]) !=
            std::bit_cast<std::uint64_t>(std::tanh(x[i])) &&
        ++failures <= 5)
      ADD_FAILURE() << "x=" << x[i];
  EXPECT_EQ(failures, 0u);
}

// ---- exact f32 exp kernel (fwd::exp_inplace) ---------------------------------
//
// The f32 kernel must return std::exp(float) bit for bit.  These cases sample
// the 2^32 patterns: a strided sweep, the special inputs, both range ends and
// the inputs whose results are subnormal; bench_tanh_exhaustive sweeps all
// of them.

/// Runs the kernel once over all `patterns` and counts the lanes whose bits
/// differ from std::exp(float).
void expect_exp_f32_exact(const std::vector<std::uint32_t>& patterns) {
  std::vector<float> y(patterns.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = std::bit_cast<float>(patterns[i]);
  ag::fwd::exp_inplace(y.data(), static_cast<std::int64_t>(y.size()));
  std::size_t failures = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const auto want =
        std::bit_cast<std::uint32_t>(std::exp(std::bit_cast<float>(patterns[i])));
    const auto got = std::bit_cast<std::uint32_t>(y[i]);
    if (got != want && ++failures <= 5)
      ADD_FAILURE() << std::hex << "x=0x" << patterns[i] << " got 0x" << got
                    << " want 0x" << want;
  }
  EXPECT_EQ(failures, 0u) << "of " << patterns.size() << " patterns";
}

TEST(ExpKernel, F32StridedSweepOverAllBitPatterns) {
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093)
    patterns.push_back(static_cast<std::uint32_t>(b));
  expect_exp_f32_exact(patterns);
}

TEST(ExpKernel, F32SpecialValuesAndQuietedNaNs) {
  std::vector<std::uint32_t> patterns;
  // ±0 and the subnormal inputs next to them, ±inf, the largest finite.
  add_run(patterns, 0, 4096);
  for (const std::uint32_t b : {0x7f800000u, 0x7f7fffffu}) add_run(patterns, b, 1);
  const std::vector<std::uint32_t> nans = {0x7f800001u, 0x7f812345u, 0x7fbfffffu,
                                           0x7fc00000u, 0x7fc00001u, 0x7fd2468au,
                                           0x7fffffffu};
  for (const std::uint32_t b : nans) add_run(patterns, b, 1);
  expect_exp_f32_exact(patterns);
  // NaN payloads come back with the quiet bit set and the payload kept.
  for (const std::uint32_t b : nans)
    for (const std::uint32_t sign : {0u, 0x80000000u}) {
      float y = std::bit_cast<float>(b | sign);
      ag::fwd::exp_inplace(&y, 1);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y), b | sign | 0x00400000u)
          << std::hex << "x=0x" << (b | sign);
    }
}

TEST(ExpKernel, F32RangeEndsAndSubnormalResults) {
  std::vector<std::uint32_t> patterns;
  // ±1 ulp (and a dense run) around the overflow threshold 0x1.62e42ep6f
  // and the underflow threshold -0x1.9fe368p6f.
  for (const float t : {0x1.62e42ep6f, -0x1.9fe368p6f}) {
    const auto b = std::bit_cast<std::uint32_t>(t);
    for (const std::uint32_t v : {b - 1, b, b + 1}) patterns.push_back(v);
    for (std::uint32_t i = 0; i < 8192; ++i) patterns.push_back(b - 4096 + i);
  }
  // Every input whose result is subnormal or rounds to the smallest
  // subnormal: x in [-0x1.9fe368p6, log(2^-126)].
  const auto lo = std::bit_cast<std::uint32_t>(std::log(0x1p-126f));
  for (std::uint32_t b = lo - 64; b <= std::bit_cast<std::uint32_t>(-0x1.9fe368p6f);
       ++b)
    patterns.push_back(b);
  expect_exp_f32_exact(patterns);
}

TEST(ExpKernel, F64IsStdExp) {
  std::vector<double> x;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 65521)
    x.push_back(static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(b))));
  for (const double v : {0.0, -0.0, 1e-310, -1e-300, 0.5, -3.25, 709.78,
                         -745.2, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    x.push_back(v);
  std::vector<double> y = x;
  ag::fwd::exp_inplace(y.data(), static_cast<std::int64_t>(y.size()));
  std::size_t failures = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (std::bit_cast<std::uint64_t>(y[i]) !=
            std::bit_cast<std::uint64_t>(std::exp(x[i])) &&
        ++failures <= 5)
      ADD_FAILURE() << "x=" << x[i];
  EXPECT_EQ(failures, 0u);
}

TEST(ExpKernel, SegmentSoftmaxEqualsPerElementStdExp) {
  // ops::segment_softmax (the trainer's call site) against the softmax
  // written with one std::exp per element: same max pass, same f64 sums in
  // (edge, head) order, same division, at both widths.
  util::Rng rng(97);
  const std::int64_t e = 92, h = 4, segments = 32;
  std::vector<std::int64_t> seg(static_cast<std::size_t>(e));
  for (auto& v : seg)
    v = static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{segments}));
  const auto check = [&](auto zero) {
    using T = decltype(zero);
    std::vector<T> sv(static_cast<std::size_t>(e * h));
    for (auto& v : sv) v = static_cast<T>(3.0 * rng.normal());
    const auto got = ag::ops::segment_softmax(
        ag::Tensor::from_data({e, h}, sv), seg, segments);
    std::vector<T> mx(static_cast<std::size_t>(segments * h),
                      -std::numeric_limits<T>::infinity());
    std::vector<double> sum(mx.size(), 0.0);
    std::vector<T> ex(sv.size());
    for (std::int64_t r = 0; r < e; ++r)
      for (std::int64_t c = 0; c < h; ++c)
        mx[seg[r] * h + c] = std::max(mx[seg[r] * h + c], sv[r * h + c]);
    for (std::int64_t r = 0; r < e; ++r)
      for (std::int64_t c = 0; c < h; ++c) {
        ex[r * h + c] = std::exp(sv[r * h + c] - mx[seg[r] * h + c]);
        sum[seg[r] * h + c] += static_cast<double>(ex[r * h + c]);
      }
    const auto& g = got.template data_as<T>();
    for (std::int64_t i = 0; i < e * h; ++i) {
      const auto want = static_cast<T>(static_cast<double>(ex[i]) /
                                       sum[seg[i / h] * h + i % h]);
      ASSERT_EQ(std::memcmp(&g[i], &want, sizeof(T)), 0) << "element " << i;
    }
  };
  check(0.0f);
  check(0.0);
}

TEST(DtypeTrainer, F32TrainingLearns) {
  util::Rng init(43);
  models::DGCNN model(toy_config(ag::Dtype::f32), init);
  models::TrainConfig tc;
  tc.learning_rate = 5e-3;
  tc.dtype = ag::Dtype::f32;
  tc.num_threads = 2;
  models::Trainer trainer(model, tc);
  auto train = toy_dataset();
  const double first = trainer.train_epoch(train);
  double last = first;
  for (int e = 0; e < 5; ++e) last = trainer.train_epoch(train);
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace amdgcnn
