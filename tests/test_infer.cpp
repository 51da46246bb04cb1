// Forward-only inference engine tests (DESIGN.md §2.4): the bump-pointer
// arena contract, bit-identical frozen forwards against the training path
// for both model kinds and both dtypes, predict_links determinism across
// worker counts, and the load_weights context diagnostics.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/link_predictor.h"
#include "core/seal_link_classifier.h"
#include "datasets/wordnet_sim.h"
#include "infer/arena.h"
#include "infer/frozen_model.h"
#include "models/dgcnn.h"
#include "models/serialize.h"
#include "models/trainer.h"
#include "tensor/ops.h"

namespace amdgcnn {
namespace {

// ---- Arena ------------------------------------------------------------------

TEST(Arena, AllocationsAreCacheLineAligned) {
  infer::Arena arena;
  for (std::size_t count : {1u, 3u, 17u, 1000u}) {
    auto* p = arena.alloc<double>(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % infer::Arena::kAlign, 0u);
    EXPECT_EQ(arena.used_bytes() % infer::Arena::kAlign, 0u);
  }
  EXPECT_GE(arena.peak_bytes(), arena.used_bytes());
}

TEST(Arena, GrowthChainsBlocksWithoutInvalidatingPointers) {
  infer::Arena arena(256);
  auto* first = arena.alloc<std::int64_t>(8);
  for (int i = 0; i < 8; ++i) first[i] = 100 + i;
  // Far larger than the first block: must chain, not reallocate.
  auto* big = arena.alloc<double>(1 << 12);
  big[0] = 1.0;
  EXPECT_GE(arena.block_count(), 2u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(first[i], 100 + i);
}

TEST(Arena, MarkRewindReclaimsScratch) {
  infer::Arena arena(1 << 12);
  (void)arena.alloc<double>(16);
  const auto mark = arena.mark();
  const std::size_t before = arena.used_bytes();
  auto* scratch = arena.alloc<double>(64);
  (void)scratch;
  EXPECT_GT(arena.used_bytes(), before);
  arena.rewind(mark);
  EXPECT_EQ(arena.used_bytes(), before);
  // The next allocation reuses the reclaimed range.
  EXPECT_EQ(arena.alloc<double>(64), scratch);
}

TEST(Arena, ResetCoalescesToOneBlockAndKeepsPeak) {
  infer::Arena arena(128);
  (void)arena.alloc<double>(8);
  (void)arena.alloc<double>(4096);  // forces a second block
  ASSERT_GE(arena.block_count(), 2u);
  const std::size_t capacity = arena.capacity_bytes();
  const std::size_t peak = arena.peak_bytes();
  arena.reset();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_GE(arena.capacity_bytes(), capacity);
  EXPECT_EQ(arena.peak_bytes(), peak);
}

// ---- FrozenModel ------------------------------------------------------------

/// Star graph around node 0 with per-edge attributes — the same toy the
/// model tests use, built at a chosen feature dtype.
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

/// Frozen logits must equal the eval-mode training forward BIT FOR BIT.
void expect_bit_identical(models::GnnKind kind, ag::Dtype model_dtype,
                          ag::Dtype sample_dtype) {
  util::Rng rng(11);
  auto model = models::make_link_gnn(small_config(kind, model_dtype), rng);
  model->set_training(false);
  infer::FrozenModel frozen(*model);
  infer::Arena arena;
  for (std::int64_t leaves : {1, 3, 6, 14}) {
    const auto s = star_sample(leaves, 0.7, sample_dtype);
    util::Rng fwd(1);
    const auto logits = model->forward(s, fwd);
    double mine[2];
    frozen.forward_logits(s, arena, mine);
    for (int j = 0; j < 2; ++j)
      EXPECT_EQ(logits.item(j), mine[j])
          << models::gnn_kind_name(kind) << " "
          << ag::dtype_name(model_dtype) << " leaves=" << leaves
          << " logit " << j;
  }
}

TEST(FrozenModel, BitIdenticalLogitsBothKindsBothDtypes) {
  for (auto kind :
       {models::GnnKind::kVanillaDGCNN, models::GnnKind::kAMDGCNN})
    for (auto dtype : {ag::Dtype::f64, ag::Dtype::f32})
      expect_bit_identical(kind, dtype, dtype);
}

TEST(FrozenModel, BitIdenticalAcrossBoundaryCast) {
  // f64-built samples into an f32 model: the frozen path's widening cast
  // must match ops::cast at the training model boundary.
  expect_bit_identical(models::GnnKind::kAMDGCNN, ag::Dtype::f32,
                       ag::Dtype::f64);
  expect_bit_identical(models::GnnKind::kVanillaDGCNN, ag::Dtype::f32,
                       ag::Dtype::f64);
}

TEST(FrozenModel, ProbabilitiesMatchTrainerPredictProba) {
  for (auto dtype : {ag::Dtype::f64, ag::Dtype::f32}) {
    util::Rng rng(12);
    auto model = models::make_link_gnn(
        small_config(models::GnnKind::kAMDGCNN, dtype), rng);
    models::TrainConfig tc;
    tc.dtype = dtype;
    models::Trainer trainer(*model, tc);
    std::vector<seal::SubgraphSample> samples;
    for (std::int64_t leaves : {2, 5})
      samples.push_back(star_sample(leaves, 0.3, dtype));
    const auto reference = trainer.predict_proba(samples);

    infer::FrozenModel frozen(*model);
    infer::Arena arena;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      double mine[2];
      frozen.predict_proba(samples[i], arena, mine);
      for (int j = 0; j < 2; ++j) EXPECT_EQ(reference[i * 2 + j], mine[j]);
    }
  }
}

TEST(FrozenModel, ArenaStopsGrowingAfterWarmUp) {
  util::Rng rng(13);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  infer::FrozenModel frozen(*model);
  infer::Arena arena;
  frozen.warm_up(arena, /*max_nodes=*/16, /*max_edges=*/32);
  EXPECT_EQ(arena.block_count(), 1u);
  const std::size_t capacity = arena.capacity_bytes();
  ASSERT_GT(capacity, 0u);

  double sink[2];
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t leaves : {1, 4, 8, 15}) {
      const auto s = star_sample(leaves, 0.5, ag::Dtype::f32);
      frozen.forward_logits(s, arena, sink);
      EXPECT_EQ(arena.capacity_bytes(), capacity)
          << "arena grew on pass " << pass << " leaves=" << leaves;
      EXPECT_EQ(arena.block_count(), 1u);
    }
}

TEST(FrozenModel, WorksWithoutEdges) {
  util::Rng rng(14);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f64), rng);
  model->set_training(false);
  seal::SubgraphSample s;
  s.num_nodes = 2;
  s.node_feat = ag::Tensor::ones({2, 4});
  s.edge_attr = ag::Tensor::zeros({0, 2});
  util::Rng fwd(2);
  const auto logits = model->forward(s, fwd);
  infer::FrozenModel frozen(*model);
  infer::Arena arena;
  double mine[2];
  frozen.forward_logits(s, arena, mine);
  for (int j = 0; j < 2; ++j) EXPECT_EQ(logits.item(j), mine[j]);
}

/// A 4-node AM-DGCNN sample whose last edge ends at `bad_dst`.
seal::SubgraphSample sample_with_dst(std::int64_t bad_dst, ag::Dtype dtype) {
  seal::SubgraphSample s;
  s.num_nodes = 4;
  s.node_feat = ag::Tensor::ones({4, 4}, dtype);
  s.src = {0, 1, 2};
  s.dst = {1, 2, bad_dst};
  s.edge_attr = ag::Tensor::zeros({3, 2}, dtype);
  return s;
}

TEST(FrozenModel, RejectsEdgeIndicesOutOfRange) {
  // The arena forward indexes rows with the sample's ids: one past the end
  // used to return probabilities and a far id to crash, where the trainer
  // throws on both.
  for (auto kind : {models::GnnKind::kAMDGCNN, models::GnnKind::kVanillaDGCNN})
    for (auto dtype : {ag::Dtype::f32, ag::Dtype::f64}) {
      util::Rng rng(15);
      auto model = models::make_link_gnn(small_config(kind, dtype), rng);
      model->set_training(false);
      infer::FrozenModel frozen(*model);
      infer::Arena arena;
      for (std::int64_t bad : {4, 1000000, -1}) {
        const auto s = sample_with_dst(bad, dtype);
        double out[2];
        EXPECT_THROW(frozen.predict_proba(s, arena, out),
                     std::invalid_argument)
            << models::gnn_kind_name(kind) << " " << ag::dtype_name(dtype)
            << " dst " << bad;
        EXPECT_THROW(frozen.forward_logits(s, arena, out),
                     std::invalid_argument);
        if (kind == models::GnnKind::kAMDGCNN) {
          util::Rng fwd(3);
          EXPECT_THROW(model->forward(s, fwd), std::invalid_argument);
        }
      }
      double out[2];
      EXPECT_NO_THROW(frozen.predict_proba(sample_with_dst(3, dtype), arena,
                                           out));
    }
}

// ---- predict_links ----------------------------------------------------------

datasets::LinkDataset tiny_wordnet() {
  datasets::WordNetSimOptions o;
  o.num_nodes = 300;
  o.num_train = 80;
  o.num_test = 30;
  o.mean_degree = 5.0;
  return datasets::make_wordnet_sim(o);
}

TEST(LinkPredictor, MatchesTrainerPipelineAndIsThreadCountInvariant) {
  for (auto dtype : {ag::Dtype::f64, ag::Dtype::f32}) {
    auto data = tiny_wordnet();
    core::ClassifierConfig cfg;
    cfg.model.kind = models::GnnKind::kAMDGCNN;
    cfg.model.hidden_dim = 16;
    cfg.model.heads = 2;
    cfg.model.num_layers = 2;
    cfg.model.sort_k = 10;
    cfg.model.dtype = dtype;
    cfg.training.epochs = 1;
    cfg.training.dtype = dtype;
    cfg.dataset.extract.max_nodes = 32;
    cfg.dataset.features.dtype = dtype;
    core::SealLinkClassifier clf(cfg);
    clf.fit(data.graph, data.train_links, data.num_classes);

    // The frozen pipeline must reproduce the trainer pipeline bit for bit.
    const auto reference = clf.predict_proba(data.graph, data.test_links);
    const auto frozen = clf.predict_links(data.graph, data.test_links);
    ASSERT_EQ(frozen.proba.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(reference[i], frozen.proba[i]) << "row " << i;
    ASSERT_EQ(frozen.labels.size(), data.test_links.size());

    // ... and be byte-identical for every worker count.
    for (std::int64_t threads : {1, 3}) {
      core::LinkPredictor::Options options;
      options.dataset = cfg.dataset;
      options.dataset.num_threads = threads;
      options.warm_nodes = 32;
      options.warm_edges = 64;
      core::LinkPredictor predictor(clf.model(), options);
      const auto parallel = predictor.predict_links(data.graph,
                                                    data.test_links);
      ASSERT_EQ(parallel.proba.size(), frozen.proba.size());
      EXPECT_EQ(0, std::memcmp(parallel.proba.data(), frozen.proba.data(),
                               frozen.proba.size() * sizeof(double)))
          << "num_threads=" << threads << " diverged";
      EXPECT_EQ(parallel.labels, frozen.labels);
      EXPECT_GT(predictor.arena_peak_bytes(), 0u);
    }
  }
}

TEST(LinkPredictor, RejectsNegativeThreadCounts) {
  util::Rng rng(15);
  auto model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  core::LinkPredictor::Options options;
  options.dataset.num_threads = -1;
  EXPECT_THROW(core::LinkPredictor(*model, options), std::invalid_argument);
}

// ---- load_weights diagnostics ----------------------------------------------

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return std::string();
}

TEST(SerializeDiagnostics, MismatchErrorsNameContextAndParameter) {
  const std::string path =
      ::testing::TempDir() + "/amdgcnn_infer_ckpt.bin";
  util::Rng rng(16);
  auto saved = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32), rng);
  models::save_weights(*saved, path);

  // Wrong width: the error names the context, the parameter index, and both
  // shapes.
  auto wide = small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32);
  wide.hidden_dim = 16;
  auto wide_model = models::make_link_gnn(wide, rng);
  const auto shape_msg = error_of(
      [&] { models::load_weights(*wide_model, path, "AM-DGCNN toy"); });
  EXPECT_NE(shape_msg.find("load_weights[AM-DGCNN toy]"), std::string::npos)
      << shape_msg;
  EXPECT_NE(shape_msg.find("shape mismatch"), std::string::npos) << shape_msg;
  EXPECT_NE(shape_msg.find("at parameter 0"), std::string::npos) << shape_msg;

  // Wrong precision: "dtype mismatch" with expected vs found names.
  auto f64_model = models::make_link_gnn(
      small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f64), rng);
  const auto dtype_msg =
      error_of([&] { models::load_weights(*f64_model, path, "f64 build"); });
  EXPECT_NE(dtype_msg.find("load_weights[f64 build]"), std::string::npos)
      << dtype_msg;
  EXPECT_NE(dtype_msg.find("dtype mismatch"), std::string::npos) << dtype_msg;
  EXPECT_NE(dtype_msg.find("f32"), std::string::npos) << dtype_msg;
  EXPECT_NE(dtype_msg.find("f64"), std::string::npos) << dtype_msg;

  // Wrong architecture: count mismatch states both counts.
  auto deep = small_config(models::GnnKind::kAMDGCNN, ag::Dtype::f32);
  deep.num_layers = 3;
  auto deep_model = models::make_link_gnn(deep, rng);
  const auto count_msg =
      error_of([&] { models::load_weights(*deep_model, path, "deep"); });
  EXPECT_NE(count_msg.find("parameter count mismatch"), std::string::npos)
      << count_msg;
  EXPECT_NE(count_msg.find(std::to_string(saved->parameters().size())),
            std::string::npos)
      << count_msg;
  EXPECT_NE(count_msg.find(std::to_string(deep_model->parameters().size())),
            std::string::npos)
      << count_msg;
}

}  // namespace
}  // namespace amdgcnn
