// Tests for the related-work baselines: pair-feature extraction, logistic
// regression, CART decision tree, and the Weisfeiler-Lehman Neural Machine.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "baselines/decision_tree.h"
#include "baselines/logistic_regression.h"
#include "baselines/wlnm.h"
#include "heuristics/pair_features.h"
#include "test_util.h"
#include "util/parallel_error.h"

namespace amdgcnn {
namespace {

// ---- Pair features ------------------------------------------------------------

TEST(PairFeatures, NamesAlignWithVectorWidth) {
  auto g = testing::triangle_with_tail();
  const auto f = heuristics::pair_features(g, 0, 1);
  EXPECT_EQ(f.size(), heuristics::pair_feature_names().size());
}

TEST(PairFeatures, ValuesMatchIndividualHeuristics) {
  auto g = testing::triangle_with_tail();
  const auto f = heuristics::pair_features(g, 0, 1);
  EXPECT_DOUBLE_EQ(f[0], 1.0);                    // common neighbors: node 2
  EXPECT_NEAR(f[1], 1.0 / 3.0, 1e-12);            // jaccard
  EXPECT_NEAR(f[2], 1.0 / std::log(3.0), 1e-12);  // adamic-adar
  EXPECT_DOUBLE_EQ(f[3], 4.0);                    // PA: deg 2 * deg 2
  EXPECT_DOUBLE_EQ(f[4], 2.0);                    // deg(0)
  EXPECT_DOUBLE_EQ(f[5], 2.0);                    // deg(1)
  // Shortest path with the target edge MASKED: 0-2-1 -> 2.
  EXPECT_DOUBLE_EQ(f[6], 2.0);
}

TEST(PairFeatures, UnreachablePairGetsCappedDistance) {
  graph::KnowledgeGraph g(1, 1);
  for (int i = 0; i < 4; ++i) g.add_node(0);
  g.add_edge(0, 1, 0);
  g.add_edge(2, 3, 0);
  g.finalize();
  const auto f = heuristics::pair_features(g, 0, 2);
  EXPECT_DOUBLE_EQ(f[6], 8.0);  // capped sentinel
}

TEST(PairFeatures, MatrixMatchesPerPairExtraction) {
  auto g = testing::path_graph(6);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs = {
      {0, 2}, {1, 4}, {3, 5}};
  const auto x = heuristics::pair_feature_matrix(g, pairs);
  const auto d = heuristics::pair_feature_names().size();
  ASSERT_EQ(x.size(), pairs.size() * d);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto f =
        heuristics::pair_features(g, pairs[i].first, pairs[i].second);
    for (std::size_t c = 0; c < d; ++c) EXPECT_EQ(x[i * d + c], f[c]);
  }
}

// A bad pair inside the parallel matrix build is reported, not fatal: the
// join rethrows util::WorkerError naming the lowest failing pair.
TEST(PairFeatures, MatrixOutOfRangeNodeIsWorkerError) {
  auto g = testing::path_graph(6);
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs = {
      {0, 2}, {1, 4}, {3, 99}, {2, 5}, {77, 1}};
  try {
    heuristics::pair_feature_matrix(g, pairs);
    FAIL() << "expected util::WorkerError";
  } catch (const util::WorkerError& e) {
    EXPECT_EQ(e.item(), 2);
    EXPECT_NE(std::string(e.what()).find("pair_feature_matrix: worker failed "
                                         "at item 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(FeatureScalerTest, StandardisesColumns) {
  std::vector<double> x = {1, 10, 3, 20, 5, 30};  // [3, 2]
  auto scaler = heuristics::FeatureScaler::fit(x, 2);
  EXPECT_DOUBLE_EQ(scaler.mean[0], 3.0);
  EXPECT_DOUBLE_EQ(scaler.mean[1], 20.0);
  scaler.apply(x);
  // Column means ~0, stddev ~1.
  EXPECT_NEAR(x[0] + x[2] + x[4], 0.0, 1e-12);
  EXPECT_NEAR(x[1] + x[3] + x[5], 0.0, 1e-12);
  EXPECT_NEAR(x[4], std::sqrt(1.5), 1e-9);
  EXPECT_THROW(heuristics::FeatureScaler::fit({}, 2), std::invalid_argument);
}

TEST(FeatureScalerTest, ConstantColumnDoesNotDivideByZero) {
  std::vector<double> x = {5, 5, 5, 5};  // [4, 1] constant
  auto scaler = heuristics::FeatureScaler::fit(x, 1);
  scaler.apply(x);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

// ---- Logistic regression ---------------------------------------------------------

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  util::Rng rng(1);
  std::vector<double> x;
  std::vector<std::int32_t> y;
  for (int i = 0; i < 200; ++i) {
    const std::int32_t label = i % 2;
    x.push_back(rng.normal(label ? 2.0 : -2.0, 0.5));
    x.push_back(rng.normal(label ? -1.0 : 1.0, 0.5));
    y.push_back(label);
  }
  baselines::LogisticRegression lr(2, 2);
  lr.fit(x, y);
  const auto preds = lr.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += preds[i] == y[i];
  EXPECT_GT(correct, 190);
}

TEST(LogisticRegressionTest, MulticlassProbabilitiesSumToOne) {
  util::Rng rng(2);
  std::vector<double> x;
  std::vector<std::int32_t> y;
  for (int i = 0; i < 90; ++i) {
    const std::int32_t label = i % 3;
    x.push_back(rng.normal(label * 2.0, 0.4));
    y.push_back(label);
  }
  baselines::LogisticRegression lr(1, 3);
  lr.fit(x, y);
  const auto probs = lr.predict_proba(x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(probs[i * 3] + probs[i * 3 + 1] + probs[i * 3 + 2], 1.0,
                1e-9);
  // Accuracy well above chance.
  const auto preds = lr.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += preds[i] == y[i];
  EXPECT_GT(correct, 70);
}

TEST(LogisticRegressionTest, ValidatesInputs) {
  EXPECT_THROW(baselines::LogisticRegression(3, 1), std::invalid_argument);
  baselines::LogisticRegression lr(2, 2);
  EXPECT_THROW(lr.fit({1.0}, {0}), std::invalid_argument);
  EXPECT_THROW(lr.fit({1.0, 2.0}, {5}), std::invalid_argument);
}

// ---- Decision tree -------------------------------------------------------------------

TEST(DecisionTreeTest, LearnsAxisAlignedRule) {
  // y = (x0 > 0.5) XOR-free simple threshold rule.
  std::vector<double> x;
  std::vector<std::int32_t> y;
  util::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.uniform();
    x.push_back(v);
    x.push_back(rng.uniform());  // noise feature
    y.push_back(v > 0.5 ? 1 : 0);
  }
  baselines::DecisionTree tree(2, 2);
  tree.fit(x, y);
  const auto preds = tree.predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += preds[i] == y[i];
  EXPECT_GT(correct, 290);
  EXPECT_GE(tree.depth(), 1);
}

TEST(DecisionTreeTest, LearnsBandRuleNeedingDepthTwo) {
  // y = 1 iff x0 in (0.3, 0.7): requires two stacked splits on the same
  // feature, so a depth-1 stump cannot express it but greedy CART can.
  std::vector<double> x;
  std::vector<std::int32_t> y;
  util::Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform();
    x.push_back(a);
    x.push_back(rng.uniform());  // noise feature
    y.push_back(a > 0.3 && a < 0.7 ? 1 : 0);
  }
  baselines::DecisionTreeOptions deep;
  deep.max_depth = 3;
  baselines::DecisionTree tree(2, 2, deep);
  tree.fit(x, y);
  const auto preds = tree.predict(x);
  int deep_correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    deep_correct += preds[i] == y[i];
  EXPECT_GT(deep_correct, 380);

  baselines::DecisionTreeOptions stump;
  stump.max_depth = 1;
  baselines::DecisionTree one(2, 2, stump);
  one.fit(x, y);
  const auto stump_preds = one.predict(x);
  int stump_correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    stump_correct += stump_preds[i] == y[i];
  EXPECT_GT(deep_correct, stump_correct);
}

TEST(DecisionTreeTest, MaxDepthRespected) {
  std::vector<double> x;
  std::vector<std::int32_t> y;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.bernoulli(0.5) ? 1 : 0);  // pure noise
  }
  baselines::DecisionTreeOptions opts;
  opts.max_depth = 2;
  baselines::DecisionTree tree(1, 2, opts);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<std::int32_t> y = {1, 1, 1, 1};
  baselines::DecisionTree tree(1, 2);
  tree.fit(x, y);
  EXPECT_EQ(tree.num_nodes(), 1);
  const auto probs = tree.predict_proba({2.5});
  EXPECT_DOUBLE_EQ(probs[1], 1.0);
}

TEST(DecisionTreeTest, ValidatesUsage) {
  baselines::DecisionTree tree(2, 2);
  EXPECT_THROW(tree.predict({1.0, 2.0}), std::logic_error);
  EXPECT_THROW(tree.fit({1.0}, {0}), std::invalid_argument);
  EXPECT_THROW(tree.fit({1.0, 2.0}, {7}), std::invalid_argument);
  EXPECT_THROW(baselines::DecisionTree(0, 2), std::invalid_argument);
}

// ---- WLNM -------------------------------------------------------------------------------

TEST(WlnmEncoding, OrderPutsTargetsFirst) {
  auto g = testing::triangle_with_tail();
  graph::ExtractOptions eo;
  auto sub = graph::extract_enclosing_subgraph(g, 0, 1, eo);
  const auto order = baselines::palette_wl_order(sub, 3);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  // Order is a permutation.
  std::set<std::int32_t> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), order.size());
}

TEST(WlnmEncoding, FixedSizeAndTargetEntryZeroed) {
  auto g = testing::triangle_with_tail();
  graph::ExtractOptions eo;
  auto sub = graph::extract_enclosing_subgraph(g, 0, 1, eo);
  const auto enc = baselines::wlnm_encode(sub, 6, 3);
  EXPECT_EQ(enc.size(), 15u);  // 6*5/2
  // Entry (0, 1) — the target pair — must be zero even though connectivity
  // through node 2 exists elsewhere in the encoding.
  EXPECT_EQ(enc[0], 0.0);
  double total = 0.0;
  for (double v : enc) total += v;
  EXPECT_GT(total, 0.0);  // some structure survived
  EXPECT_THROW(baselines::wlnm_encode(sub, 1, 3), std::invalid_argument);
}

TEST(WlnmEncoding, PaddingForTinySubgraphs) {
  auto g = testing::path_graph(3);
  graph::ExtractOptions eo;
  auto sub = graph::extract_enclosing_subgraph(g, 0, 2, eo);
  const auto enc = baselines::wlnm_encode(sub, 8, 2);
  EXPECT_EQ(enc.size(), 28u);
}

TEST(WlnmModel, LearnsTopologicalClassOnToyTask) {
  // Binary task where class = "targets share many neighbors": exactly the
  // structural pattern WLNM was designed to learn.
  graph::KnowledgeGraph g(1, 1);
  for (int i = 0; i < 140; ++i) g.add_node(0);
  util::Rng rng(6);
  std::vector<seal::LinkExample> links;
  graph::NodeId next_aux = 60;
  for (int i = 0; i < 30; ++i) {
    const auto a = static_cast<graph::NodeId>(2 * i);
    const auto b = static_cast<graph::NodeId>(2 * i + 1);
    const std::int32_t label = i % 2;
    const int shared = label ? 3 : 1;
    for (int s = 0; s < shared && next_aux < 140; ++s) {
      g.add_edge(a, next_aux, 0);
      g.add_edge(b, next_aux, 0);
      ++next_aux;
    }
    links.push_back({a, b, label});
  }
  g.finalize();

  baselines::WlnmOptions opts;
  opts.vertex_budget = 8;
  opts.epochs = 60;
  baselines::Wlnm model(2, opts);
  model.fit(g, links);
  EXPECT_GT(model.evaluate_auc(g, links), 0.9);
}

// A self-pair link cannot be encoded (extraction requires a != b); the
// parallel encoder reports the lowest failing link instead of aborting.
TEST(WlnmModel, SelfPairLinkIsWorkerError) {
  auto g = testing::path_graph(6);
  const std::vector<seal::LinkExample> links = {
      {0, 2, 0}, {1, 4, 1}, {3, 3, 0}, {2, 5, 1}, {4, 4, 1}};
  baselines::Wlnm model(2);
  try {
    model.fit(g, links);
    FAIL() << "expected util::WorkerError";
  } catch (const util::WorkerError& e) {
    EXPECT_EQ(e.item(), 2);
    EXPECT_NE(std::string(e.what()).find("wlnm_encode: worker failed at "
                                         "item 2"),
              std::string::npos)
        << e.what();
    bool nested_is_original = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::invalid_argument&) {
      nested_is_original = true;  // extract_enclosing_subgraph: a == b
    }
    EXPECT_TRUE(nested_is_original);
  }
}

TEST(WlnmModel, ValidatesUsage) {
  EXPECT_THROW(baselines::Wlnm(1), std::invalid_argument);
  baselines::Wlnm model(2);
  auto g = testing::path_graph(4);
  EXPECT_THROW(model.fit(g, {}), std::invalid_argument);
}

}  // namespace
}  // namespace amdgcnn
