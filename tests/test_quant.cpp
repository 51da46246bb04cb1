// Quantized inference tier (DESIGN.md §2.7): the f16 storage codec
// (exhaustive 65536-pattern round-trip, table/bit-decode agreement,
// monotonicity, NaN/inf handling), the q8 block format (error bound,
// -128 never produced), the quantized frozen forward (bit-identity with the
// exact f32 forward of the dequantized model, closeness to the trained
// model, worker-count determinism, arena warm-up coverage, resident-weight
// shrink) and the v3 checkpoint format (dequantized-value round-trip, the
// checked-in fixture, and the fail-closed negative paths).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/link_predictor.h"
#include "core/seal_link_classifier.h"
#include "datasets/wordnet_sim.h"
#include "infer/frozen_model.h"
#include "models/dgcnn.h"
#include "models/serialize.h"
#include "nn/mlp.h"
#include "tensor/half.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace amdgcnn {
namespace {

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// ---- f16 codec --------------------------------------------------------------

TEST(F16Codec, TableAgreesWithBitDecodeForEveryPattern) {
  const float* table = ag::detail::f16_table();
  for (std::uint32_t i = 0; i < (1u << 16); ++i) {
    const float direct =
        ag::detail::f16_decode_bits(static_cast<std::uint16_t>(i));
    ASSERT_EQ(bits_of(table[i]), bits_of(direct)) << "pattern " << i;
  }
}

TEST(F16Codec, RoundTripReproducesAllBitPatternsExactly) {
  // decode -> encode must be the identity on ALL 65536 patterns, including
  // ±0, subnormals, ±inf and every NaN payload (quiet and signalling).
  int failures = 0;
  for (std::uint32_t i = 0; i < (1u << 16); ++i) {
    const ag::f16_t h{static_cast<std::uint16_t>(i)};
    const ag::f16_t back = ag::f32_to_f16(ag::f16_to_f32(h));
    if (back.bits != h.bits && ++failures <= 5)
      ADD_FAILURE() << "pattern 0x" << std::hex << i << " round-tripped to 0x"
                    << back.bits;
  }
  EXPECT_EQ(failures, 0);
}

TEST(F16Codec, EncodeIsMonotonicOverASweep) {
  // Monotone non-decreasing over the full normal range and the overflow
  // edge...
  float prev = -std::numeric_limits<float>::infinity();
  for (float x = -70000.0f; x <= 70000.0f; x += 0.37f) {
    const float rt = ag::f16_to_f32(ag::f32_to_f16(x));
    ASSERT_GE(rt, prev) << "x = " << x;
    prev = rt;
  }
  // ... and across the subnormal/normal boundary at fine grain.
  prev = -std::numeric_limits<float>::infinity();
  for (float x = -1e-3f; x <= 1e-3f; x += 1e-7f) {
    const float rt = ag::f16_to_f32(ag::f32_to_f16(x));
    ASSERT_GE(rt, prev) << "x = " << x;
    prev = rt;
  }
}

TEST(F16Codec, RoundToNearestEvenAtTies) {
  // f16 ulp at 1.0 is 2^-10; the tie 1 + 2^-11 rounds DOWN to the even
  // mantissa 0, while 1 + 3*2^-11 rounds UP to the even mantissa 2.
  const float ulp = 0.0009765625f;  // 2^-10
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(1.0f + ulp / 2)), 1.0f);
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(1.0f + 3 * ulp / 2)),
            1.0f + 2 * ulp);
}

TEST(F16Codec, SpecialValuesSurvive) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(inf)), inf);
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(-inf)), -inf);
  EXPECT_EQ(bits_of(ag::f16_to_f32(ag::f32_to_f16(0.0f))), bits_of(0.0f));
  EXPECT_EQ(bits_of(ag::f16_to_f32(ag::f32_to_f16(-0.0f))), bits_of(-0.0f));
  // Overflow saturates to inf, deep underflow to signed zero.
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(1e30f)), inf);
  EXPECT_EQ(ag::f16_to_f32(ag::f32_to_f16(-1e30f)), -inf);
  EXPECT_EQ(bits_of(ag::f16_to_f32(ag::f32_to_f16(-1e-30f))), bits_of(-0.0f));
  // NaN stays NaN...
  EXPECT_TRUE(std::isnan(
      ag::f16_to_f32(ag::f32_to_f16(std::numeric_limits<float>::quiet_NaN()))));
  // ... even when the payload lives entirely in the dropped low 13 bits,
  // which must not collapse the significand into the inf encoding.
  float low_payload_nan;
  const std::uint32_t u = 0x7F800001u;
  std::memcpy(&low_payload_nan, &u, sizeof(u));
  EXPECT_TRUE(std::isnan(ag::f16_to_f32(ag::f32_to_f16(low_payload_nan))));
}

TEST(F16Codec, SubnormalsRoundTripThroughEncode) {
  // The smallest f16 subnormal is 2^-24; check exact representatives and
  // the underflow tie at 2^-25 (rounds to even = 0).
  EXPECT_EQ(ag::f32_to_f16(5.9604644775390625e-8f).bits, 0x0001);   // 2^-24
  EXPECT_EQ(ag::f32_to_f16(2.9802322387695312e-8f).bits, 0x0000);   // 2^-25 tie
  EXPECT_EQ(ag::f32_to_f16(6.097555160522461e-5f).bits, 0x03FF);    // max subn
  EXPECT_EQ(ag::f32_to_f16(6.103515625e-5f).bits, 0x0400);          // min norm
}

// ---- q8 blocks --------------------------------------------------------------

std::vector<float> pseudo_random_values(std::int64_t n, float amplitude) {
  util::Rng rng(99);
  std::vector<float> x(static_cast<std::size_t>(n));
  for (auto& v : x)
    v = amplitude * static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return x;
}

TEST(Q8Block, ErrorBoundedByHalfScalePerBlock) {
  // 100 is deliberately not a multiple of 32 so the tail block is covered.
  const std::int64_t n = 100;
  auto x = pseudo_random_values(n, 3.0f);
  x[0] = 3.0f;     // exact amax hits the clamp path
  x[50] = -2.5f;
  std::vector<std::int8_t> q(static_cast<std::size_t>(n));
  std::vector<float> scales(
      static_cast<std::size_t>(ag::quant::q8_num_blocks(n)));
  ag::quant::q8_quantize(x.data(), n, q.data(), scales.data());
  std::vector<float> dq(static_cast<std::size_t>(n));
  ag::quant::q8_dequantize(q.data(), scales.data(), dq.data(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    const float s = scales[static_cast<std::size_t>(i / ag::quant::kQ8Block)];
    EXPECT_LE(std::fabs(x[static_cast<std::size_t>(i)] -
                        dq[static_cast<std::size_t>(i)]),
              0.5f * s * 1.0001f + 1e-12f)
        << "element " << i;
  }
}

TEST(Q8Block, NeverProducesMinus128) {
  auto x = pseudo_random_values(256, 7.5f);
  x[0] = -7.5f;  // the most negative value maps to -127, never -128
  std::vector<std::int8_t> q(x.size());
  std::vector<float> scales(
      static_cast<std::size_t>(ag::quant::q8_num_blocks(256)));
  ag::quant::q8_quantize(x.data(), 256, q.data(), scales.data());
  for (const auto v : q) EXPECT_NE(v, std::int8_t{-128});
}

TEST(Q8Block, AllZeroBlockGetsZeroScaleAndDecodesToZeros) {
  std::vector<float> x(40, 0.0f);  // one full zero block + a zero tail
  std::vector<std::int8_t> q(x.size());
  std::vector<float> scales(2);
  ag::quant::q8_quantize(x.data(), 40, q.data(), scales.data());
  EXPECT_EQ(scales[0], 0.0f);
  EXPECT_EQ(scales[1], 0.0f);
  std::vector<float> dq(x.size(), 1.0f);
  ag::quant::q8_dequantize(q.data(), scales.data(), dq.data(), 40);
  for (const auto v : dq) EXPECT_EQ(v, 0.0f);
}

// ---- quantized frozen forward ----------------------------------------------

/// Star graph around node 0 with per-edge attributes (the test_infer toy).
seal::SubgraphSample star_sample(std::int64_t leaves, double attr_value,
                                 ag::Dtype dtype) {
  seal::SubgraphSample s;
  s.num_nodes = leaves + 1;
  s.label = 0;
  const std::int64_t f = 4;
  std::vector<double> feat(static_cast<std::size_t>(s.num_nodes * f), 0.0);
  for (std::int64_t i = 0; i < s.num_nodes; ++i)
    feat[i * f + (i == 0 ? 0 : 1)] = 1.0 + 0.01 * static_cast<double>(i);
  s.node_feat = ag::ops::cast(
      ag::Tensor::from_data({s.num_nodes, f}, std::move(feat)), dtype);
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
  s.edge_attr = ag::ops::cast(
      ag::Tensor::from_data({static_cast<std::int64_t>(s.src.size()), 2},
                            std::move(ea)),
      dtype);
  return s;
}

models::ModelConfig small_config(models::GnnKind kind, ag::Dtype dtype) {
  models::ModelConfig mc;
  mc.kind = kind;
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

TEST(QuantizedForward, ProbabilitiesStayCloseToExactF32) {
  for (auto kind :
       {models::GnnKind::kVanillaDGCNN, models::GnnKind::kAMDGCNN}) {
    util::Rng rng(21);
    auto model = models::make_link_gnn(small_config(kind, ag::Dtype::f32),
                                       rng);
    infer::FrozenModel exact(*model);
    infer::Arena arena;
    for (auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
      infer::FrozenModel quant(*model, scheme);
      EXPECT_EQ(quant.quant(), scheme);
      infer::Arena qarena;
      for (std::int64_t leaves : {2, 6, 14}) {
        const auto s = star_sample(leaves, 0.6, ag::Dtype::f32);
        double ref[2], mine[2];
        exact.predict_proba(s, arena, ref);
        quant.predict_proba(s, qarena, mine);
        for (int j = 0; j < 2; ++j)
          EXPECT_NEAR(ref[j], mine[j], 0.03)
              << models::gnn_kind_name(kind) << " "
              << ag::quant::scheme_name(scheme) << " leaves=" << leaves;
      }
    }
  }
}

TEST(QuantizedForward, SchemeKNoneIsTheExactCtor) {
  util::Rng rng(22);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  infer::FrozenModel exact(*model);
  infer::FrozenModel none(*model, ag::quant::Scheme::kNone);
  infer::Arena a1, a2;
  const auto s = star_sample(5, 0.4, ag::Dtype::f32);
  double ref[2], mine[2];
  exact.forward_logits(s, a1, ref);
  none.forward_logits(s, a2, mine);
  for (int j = 0; j < 2; ++j) EXPECT_EQ(ref[j], mine[j]);
  EXPECT_EQ(none.weight_bytes(), exact.weight_bytes());
}

TEST(QuantizedForward, ResidentWeightBytesShrink) {
  util::Rng rng(23);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  infer::FrozenModel exact(*model);
  infer::FrozenModel f16(*model, ag::quant::Scheme::kF16);
  infer::FrozenModel q8(*model, ag::quant::Scheme::kQ8);
  ASSERT_GT(exact.weight_bytes(), 0u);
  // f16 halves f32 storage exactly; q8 ~3.6x (1 byte + scale per 32).
  EXPECT_EQ(f16.weight_bytes() * 2, exact.weight_bytes());
  EXPECT_LT(static_cast<double>(q8.weight_bytes()),
            static_cast<double>(exact.weight_bytes()) / 3.0);
}

TEST(QuantizedForward, RejectsEdgeIndicesOutOfRange) {
  // The forward indexes arena rows with the sample's ids unchecked, so an id
  // past the end must be rejected up front: one past the end would read a
  // neighbouring arena buffer, a far id would crash.
  util::Rng rng(25);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  infer::FrozenModel q8(*model, ag::quant::Scheme::kQ8);
  infer::Arena arena;
  for (std::int64_t bad : {3, 4, 1000000}) {
    seal::SubgraphSample s;
    s.num_nodes = 4;
    s.node_feat = ag::Tensor::ones({4, 4}, ag::Dtype::f32);
    s.src = {0, 1, 2};
    s.dst = {1, 2, bad};
    s.edge_attr = ag::Tensor::zeros({3, 2}, ag::Dtype::f32);
    double out[2];
    if (bad < s.num_nodes) {
      EXPECT_NO_THROW(q8.predict_proba(s, arena, out));
    } else {
      EXPECT_THROW(q8.predict_proba(s, arena, out), std::invalid_argument)
          << "dst " << bad;
      EXPECT_THROW(q8.forward_logits(s, arena, out), std::invalid_argument);
    }
  }
}

TEST(QuantizedForward, ArenaStopsGrowingAfterWarmUp) {
  // warm_up routes through the dispatching forward, so it must also cover
  // the decode scratch of every stage: both message-passing branches, the
  // conv and dense scopes, and the feature cast of an f64-config model.
  for (const auto& mc : {small_config(models::GnnKind::kVanillaDGCNN,
                                      ag::Dtype::f32),
                         small_config(models::GnnKind::kAMDGCNN,
                                      ag::Dtype::f32),
                         small_config(models::GnnKind::kAMDGCNN,
                                      ag::Dtype::f64)}) {
    for (auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
      const std::string tag = std::string(models::gnn_kind_name(mc.kind)) +
                              " " + ag::dtype_name(mc.dtype) + " " +
                              ag::quant::scheme_name(scheme);
      util::Rng rng(24);
      auto model = models::make_link_gnn(mc, rng);
      infer::FrozenModel frozen(*model, scheme);
      infer::Arena arena;
      frozen.warm_up(arena, /*max_nodes=*/16, /*max_edges=*/32);
      EXPECT_EQ(arena.block_count(), 1u) << tag;
      const std::size_t capacity = arena.capacity_bytes();
      ASSERT_GT(capacity, 0u);
      double sink[2];
      for (std::int64_t leaves : {1, 4, 8, 15}) {
        const auto s = star_sample(leaves, 0.5, mc.dtype);
        frozen.forward_logits(s, arena, sink);
        EXPECT_EQ(arena.capacity_bytes(), capacity)
            << tag << " leaves=" << leaves;
        EXPECT_EQ(arena.block_count(), 1u) << tag << " leaves=" << leaves;
      }
    }
  }
}

TEST(QuantizedForward, LogitsEqualExactF32ForwardOfDequantizedWeights) {
  // Both codecs decode exactly, so a quantized model is the exact f32
  // forward of the model whose parameters are the decoded values — for
  // either source dtype (an f64 model is narrowed to f32 before encoding).
  for (auto kind :
       {models::GnnKind::kVanillaDGCNN, models::GnnKind::kAMDGCNN})
    for (auto dtype : {ag::Dtype::f32, ag::Dtype::f64})
      for (auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
        const std::string tag = std::string(models::gnn_kind_name(kind)) +
                                " " + ag::dtype_name(dtype) + " " +
                                ag::quant::scheme_name(scheme);
        util::Rng rng(26);
        auto model = models::make_link_gnn(small_config(kind, dtype), rng);
        infer::FrozenModel quant(*model, scheme);

        util::Rng other(27);
        auto dequant = models::make_link_gnn(
            small_config(kind, ag::Dtype::f32), other);
        dequant->set_training(false);
        const auto src = model->parameters();
        auto dst = dequant->parameters();
        ASSERT_EQ(src.size(), dst.size());
        for (std::size_t i = 0; i < src.size(); ++i)
          ag::quant::quantize_tensor(src[i], scheme)
              .decode(dst[i].data_as<float>().data());
        infer::FrozenModel exact(*dequant);

        infer::Arena qarena, arena;
        for (std::int64_t leaves : {1, 4, 9, 15}) {
          const auto s = star_sample(leaves, 0.3, dtype);
          util::Rng fwd(1);
          const auto trained = dequant->forward(s, fwd);
          double want[2], got[2], want_p[2], got_p[2];
          exact.forward_logits(s, arena, want);
          quant.forward_logits(s, qarena, got);
          exact.predict_proba(s, arena, want_p);
          quant.predict_proba(s, qarena, got_p);
          for (int j = 0; j < 2; ++j) {
            EXPECT_EQ(bits_of(static_cast<float>(got[j])),
                      bits_of(static_cast<float>(want[j])))
                << tag << " leaves=" << leaves << " logit " << j;
            EXPECT_EQ(got[j], trained.item(j))
                << tag << " leaves=" << leaves << " logit " << j;
            EXPECT_EQ(got_p[j], want_p[j])
                << tag << " leaves=" << leaves << " proba " << j;
          }
        }
      }
}

TEST(QuantizedForward, PredictLinksDeterministicAcrossWorkerCounts) {
  datasets::WordNetSimOptions o;
  o.num_nodes = 300;
  o.num_train = 80;
  o.num_test = 30;
  o.mean_degree = 5.0;
  const auto data = datasets::make_wordnet_sim(o);

  core::ClassifierConfig cfg;
  cfg.model.kind = models::GnnKind::kAMDGCNN;
  cfg.model.hidden_dim = 16;
  cfg.model.heads = 2;
  cfg.model.num_layers = 2;
  cfg.model.sort_k = 10;
  cfg.model.dtype = ag::Dtype::f32;
  cfg.training.epochs = 1;
  cfg.training.dtype = ag::Dtype::f32;
  cfg.dataset.extract.max_nodes = 32;
  cfg.dataset.features.dtype = ag::Dtype::f32;
  core::SealLinkClassifier clf(cfg);
  clf.fit(data.graph, data.train_links, data.num_classes);

  for (auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
    core::LinkPredictor::Options options;
    options.dataset = cfg.dataset;
    options.dataset.num_threads = 0;
    options.warm_nodes = 32;
    options.warm_edges = 64;
    options.quantize = scheme;
    core::LinkPredictor serial(clf.model(), options);
    const auto reference = serial.predict_links(data.graph, data.test_links);
    ASSERT_EQ(reference.labels.size(), data.test_links.size());

    for (std::int64_t threads : {1, 3}) {
      options.dataset.num_threads = threads;
      core::LinkPredictor parallel(clf.model(), options);
      const auto run = parallel.predict_links(data.graph, data.test_links);
      ASSERT_EQ(run.proba.size(), reference.proba.size());
      EXPECT_EQ(0, std::memcmp(run.proba.data(), reference.proba.data(),
                               reference.proba.size() * sizeof(double)))
          << ag::quant::scheme_name(scheme) << " num_threads=" << threads
          << " diverged from serial";
      EXPECT_EQ(run.labels, reference.labels);
    }

    // Quantized serving also shrinks the resident weights.
    options.dataset.num_threads = 0;
    options.quantize = ag::quant::Scheme::kNone;
    core::LinkPredictor exact(clf.model(), options);
    EXPECT_LT(serial.weight_bytes(), exact.weight_bytes());
  }
}

// ---- checkpoint format v3 ---------------------------------------------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string load_error(nn::Module& m, const std::string& path) {
  try {
    models::load_weights(m, path, "quant test");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return std::string();
}

TEST(SerializeV3, RoundTripReproducesDequantizedValuesExactly) {
  for (auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
    const std::string path =
        temp_path(std::string("v3_roundtrip_") +
                  ag::quant::scheme_name(scheme) + ".bin");
    util::Rng rng(31);
    nn::MLP saved({6, 5, 3}, 0.0, rng, ag::Dtype::f32);  // 5 is off-block
    models::save_weights_quantized(saved, path, scheme);

    util::Rng other(77);
    nn::MLP loaded({6, 5, 3}, 0.0, other, ag::Dtype::f32);
    models::load_weights(loaded, path);

    const auto sp = saved.parameters();
    const auto lp = loaded.parameters();
    ASSERT_EQ(sp.size(), lp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
      // The contract: loading reproduces quantize->dequantize of the saved
      // weights EXACTLY (not the original weights, which are lossy-encoded).
      const auto qt = ag::quant::quantize_tensor(sp[i], scheme);
      std::vector<float> expected(static_cast<std::size_t>(qt.n));
      qt.decode(expected.data());
      const auto& got = lp[i].data_as<float>();
      ASSERT_EQ(got.size(), expected.size()) << "parameter " << i;
      for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j]) << "parameter " << i << "[" << j << "]";
    }
  }
}

TEST(SerializeV3, SaveRejectsSchemeNone) {
  util::Rng rng(32);
  nn::MLP mlp({4, 4, 2}, 0.0, rng, ag::Dtype::f32);
  EXPECT_THROW(
      models::save_weights_quantized(mlp, temp_path("none.bin"),
                                     ag::quant::Scheme::kNone),
      std::runtime_error);
}

TEST(SerializeV3, QuantizedCheckpointRejectsF64Model) {
  const std::string path = temp_path("v3_into_f64.bin");
  util::Rng rng(33);
  nn::MLP saved({4, 4, 2}, 0.0, rng, ag::Dtype::f32);
  models::save_weights_quantized(saved, path, ag::quant::Scheme::kQ8);
  util::Rng other(34);
  nn::MLP f64_model({4, 4, 2}, 0.0, other);  // default f64
  const auto msg = load_error(f64_model, path);
  EXPECT_NE(msg.find("f32 model parameters"), std::string::npos) << msg;
  EXPECT_NE(msg.find("load_weights[quant test]"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(SerializeV3, FailClosedOnEveryCorruption) {
  const std::string good_path = temp_path("v3_good.bin");
  util::Rng rng(35);
  nn::MLP saved({4, 4, 2}, 0.0, rng, ag::Dtype::f32);
  models::save_weights_quantized(saved, good_path, ag::quant::Scheme::kQ8);
  const auto good = slurp(good_path);
  // Layout: magic(4) version(4) count(8) | code(1) rank(4) dims(2*8=16) |
  // block-size(4) block-count(8) scales(4*nblocks) values(numel).
  // First parameter of MLP({4,4,2}) is the [4,4] weight: rank 2, 16 values,
  // one block.
  const std::size_t kCode0 = 16, kBlock0 = 37, kScale0 = 49, kQ0 = 53;
  std::uint32_t block0;
  std::memcpy(&block0, good.data() + kBlock0, 4);
  ASSERT_EQ(block0, 32u);  // guards the hand-computed offsets above

  util::Rng other(36);
  nn::MLP target({4, 4, 2}, 0.0, other, ag::Dtype::f32);
  const std::string path = temp_path("v3_corrupt.bin");
  auto expect_load_error = [&](const std::vector<char>& bytes,
                               const std::string& needle) {
    spit(path, bytes);
    const auto msg = load_error(target, path);
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "wanted '" << needle << "' in: " << msg;
  };

  {  // corrupt magic
    auto bad = good;
    bad[0] = 'X';
    expect_load_error(bad, "bad magic");
  }
  {  // unknown version
    auto bad = good;
    const std::uint32_t v = 99;
    std::memcpy(bad.data() + 4, &v, 4);
    expect_load_error(bad, "unsupported version");
  }
  {  // unknown storage code
    auto bad = good;
    bad[kCode0] = 9;
    expect_load_error(bad, "unknown dtype code 9");
  }
  {  // quantized code smuggled into a v2 file
    const std::string v2_path = temp_path("v2_smuggle.bin");
    models::save_weights(saved, v2_path);
    auto bad = slurp(v2_path);
    bad[kCode0] = 3;
    expect_load_error(bad, "requires a v3 checkpoint");
    std::remove(v2_path.c_str());
  }
  {  // unsupported block size
    auto bad = good;
    const std::uint32_t b = 64;
    std::memcpy(bad.data() + kBlock0, &b, 4);
    expect_load_error(bad, "unsupported q8 block size 64");
  }
  {  // block count that cannot cover the tensor
    auto bad = good;
    const std::uint64_t nb = 7;
    std::memcpy(bad.data() + kBlock0 + 4, &nb, 8);
    expect_load_error(bad, "q8 block count 7");
  }
  {  // non-finite scale
    auto bad = good;
    const float s = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(bad.data() + kScale0, &s, 4);
    expect_load_error(bad, "corrupt q8 scale");
  }
  {  // negative scale
    auto bad = good;
    const float s = -1.0f;
    std::memcpy(bad.data() + kScale0, &s, 4);
    expect_load_error(bad, "corrupt q8 scale");
  }
  {  // -128: a value the encoder never writes
    auto bad = good;
    bad[kQ0] = static_cast<char>(0x80);
    expect_load_error(bad, "corrupt q8 value -128");
  }
  {  // truncation mid-payload
    auto bad = good;
    bad.resize(bad.size() - 5);
    expect_load_error(bad, "truncated");
  }
  {  // truncation inside the header
    auto bad = good;
    bad.resize(10);
    expect_load_error(bad, "truncated");
  }
  {  // trailing garbage
    auto bad = good;
    bad.push_back('\0');
    expect_load_error(bad, "trailing garbage");
  }
  std::remove(path.c_str());
  std::remove(good_path.c_str());
}

TEST(SerializeV3, CheckedInFixtureStillLoads) {
  // Fixture written by save_weights_quantized(…, kQ8) from
  // nn::MLP({4, 4, 2}, 0.0, util::Rng(6), f32) — pins the v3 byte format.
  const std::string path =
      std::string(AMDGCNN_TEST_DATA_DIR) + "/v3_mlp_seed6_q8.bin";
  util::Rng fixture_rng(6);
  nn::MLP expected({4, 4, 2}, 0.0, fixture_rng, ag::Dtype::f32);

  util::Rng other_rng(15);
  nn::MLP loaded({4, 4, 2}, 0.0, other_rng, ag::Dtype::f32);
  models::load_weights(loaded, path);
  const auto ep = expected.parameters();
  const auto lp = loaded.parameters();
  ASSERT_EQ(ep.size(), lp.size());
  // The loaded side carries the q8 error of the generating machine's init
  // (bounded by scale/2 per block) on top of cross-flag init jitter, so the
  // tolerance is loose — the format pin is the point, not the values.
  for (std::size_t i = 0; i < ep.size(); ++i) {
    const auto& e = ep[i].data_as<float>();
    const auto& l = lp[i].data_as<float>();
    ASSERT_EQ(e.size(), l.size()) << "parameter " << i;
    for (std::size_t j = 0; j < e.size(); ++j)
      EXPECT_NEAR(e[j], l[j], 0.02) << "parameter " << i << "[" << j << "]";
  }
}

}  // namespace
}  // namespace amdgcnn
