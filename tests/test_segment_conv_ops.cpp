// Forward-value and property tests for segment (message-passing) and
// DGCNN-head (sort-pool / conv1d / max-pool) operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "conv_reference.h"
#include "tensor/conv_ops.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"
#include "util/rng.h"

namespace amdgcnn::ag {
namespace {

TEST(ScatterAdd, AccumulatesDuplicateTargets) {
  auto src = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6});
  auto out = ops::scatter_add_rows(src, {1, 1, 0}, 3);
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.data(), (std::vector<double>{5, 6, 4, 6, 0, 0}));
}

TEST(ScatterAdd, ValidatesIndices) {
  auto src = Tensor::from_data({2, 1}, {1, 2});
  EXPECT_THROW(ops::scatter_add_rows(src, {0, 3}, 2), std::invalid_argument);
  EXPECT_THROW(ops::scatter_add_rows(src, {0}, 2), std::invalid_argument);
}

TEST(SegmentSoftmax, RowsOfEachSegmentSumToOne) {
  util::Rng rng(5);
  auto scores = Tensor::randn({7, 3}, rng);
  std::vector<std::int64_t> seg = {0, 1, 0, 2, 1, 2, 2};
  auto alpha = ops::segment_softmax(scores, seg, 3);
  std::vector<double> colsum(9, 0.0);
  for (int e = 0; e < 7; ++e)
    for (int h = 0; h < 3; ++h) colsum[seg[e] * 3 + h] += alpha.at(e, h);
  for (double s : colsum) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(SegmentSoftmax, SingletonSegmentGetsWeightOne) {
  auto scores = Tensor::from_data({1, 2}, {5.0, -3.0});
  auto alpha = ops::segment_softmax(scores, {0}, 1);
  EXPECT_NEAR(alpha.at(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(alpha.at(0, 1), 1.0, 1e-12);
}

TEST(SegmentSoftmax, MatchesDenseSoftmaxWithinSegment) {
  auto scores = Tensor::from_data({3, 1}, {1.0, 2.0, 3.0});
  auto alpha = ops::segment_softmax(scores, {0, 0, 0}, 1);
  auto dense = ops::softmax_rows(ops::transpose(scores));
  EXPECT_NEAR(alpha.at(0, 0), dense.at(0, 0), 1e-12);
  EXPECT_NEAR(alpha.at(1, 0), dense.at(0, 1), 1e-12);
  EXPECT_NEAR(alpha.at(2, 0), dense.at(0, 2), 1e-12);
}

TEST(SegmentSoftmax, NumericallyStableOnLargeScores) {
  auto scores = Tensor::from_data({2, 1}, {1000.0, 999.0});
  auto alpha = ops::segment_softmax(scores, {0, 0}, 1);
  EXPECT_NEAR(alpha.at(0, 0) + alpha.at(1, 0), 1.0, 1e-12);
  EXPECT_GT(alpha.at(0, 0), alpha.at(1, 0));
}

TEST(SortPool, SortsDescendingByLastColumn) {
  auto x = Tensor::from_data({3, 2}, {10, 0.1, 20, 0.9, 30, 0.5});
  auto out = ops::sort_pool(x, 3);
  // Sorted by last column: rows (20,0.9), (30,0.5), (10,0.1).
  EXPECT_EQ(out.data(), (std::vector<double>{20, 0.9, 30, 0.5, 10, 0.1}));
}

TEST(SortPool, PadsSmallGraphsWithZeros) {
  auto x = Tensor::from_data({2, 2}, {1, 5, 2, 6});
  auto out = ops::sort_pool(x, 4);
  EXPECT_EQ(out.shape(), (Shape{4, 2}));
  EXPECT_EQ(out.data(), (std::vector<double>{2, 6, 1, 5, 0, 0, 0, 0}));
}

TEST(SortPool, TruncatesLargeGraphs) {
  auto x = Tensor::from_data({4, 1}, {3, 1, 4, 2});
  auto out = ops::sort_pool(x, 2);
  EXPECT_EQ(out.data(), (std::vector<double>{4, 3}));
}

TEST(SortPool, TieBrokenByEarlierColumns) {
  auto x = Tensor::from_data({2, 2}, {1, 7, 2, 7});
  auto out = ops::sort_pool(x, 2);
  // Last column ties at 7; first column decides (2 > 1).
  EXPECT_EQ(out.data(), (std::vector<double>{2, 7, 1, 7}));
}

TEST(SortPool, PermutationInvariant) {
  util::Rng rng(11);
  auto x = Tensor::randn({6, 3}, rng);
  auto shuffled_data = x.data();
  // Rotate rows by 2.
  std::rotate(shuffled_data.begin(), shuffled_data.begin() + 2 * 3,
              shuffled_data.end());
  auto y = Tensor::from_data({6, 3}, shuffled_data);
  EXPECT_EQ(ops::sort_pool(x, 4).data(), ops::sort_pool(y, 4).data());
}

// ---- sort_pool: nth_element path vs full-sort reference ---------------------

/// The pre-optimisation algorithm: full std::sort of all row indices.
/// Returns the permutation prefix the op must reproduce exactly.
std::vector<std::int64_t> reference_sort_perm(const Tensor& x,
                                              std::int64_t keep) {
  const std::int64_t n = x.dim(0), c = x.dim(1);
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) perm[i] = i;
  const auto& d = x.data();
  std::sort(perm.begin(), perm.end(), [&](std::int64_t a, std::int64_t b) {
    for (std::int64_t col = c - 1; col >= 0; --col) {
      const double va = d[a * c + col], vb = d[b * c + col];
      if (va != vb) return va > vb;
    }
    return a < b;
  });
  perm.resize(static_cast<std::size_t>(keep));
  return perm;
}

/// Forward output and input gradient of sort_pool(x, k) under the loss
/// sum(sort_pool(x, k) * w), checked bit-for-bit against the full-sort
/// reference (forward rows copied from the reference permutation; gradient
/// rows of w scattered back through it).
void expect_matches_reference(const Tensor& input, std::int64_t k) {
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t keep = std::min(n, k);
  const auto perm = reference_sort_perm(input, keep);

  Tensor x = Tensor::from_data(input.shape(), input.data()).requires_grad(true);
  // Distinct weights per output slot so a permutation mistake cannot cancel.
  std::vector<double> wdata(static_cast<std::size_t>(k * c));
  for (std::size_t i = 0; i < wdata.size(); ++i)
    wdata[i] = 0.25 * static_cast<double>(i + 1);
  auto w = Tensor::from_data({k, c}, wdata);

  auto out = ops::sort_pool(x, k);
  ASSERT_EQ(out.shape(), (Shape{k, c}));
  for (std::int64_t r = 0; r < keep; ++r)
    for (std::int64_t col = 0; col < c; ++col)
      ASSERT_EQ(out.at(r, col), input.at(perm[r], col))
          << "forward row " << r << " col " << col;
  for (std::int64_t r = keep; r < k; ++r)
    for (std::int64_t col = 0; col < c; ++col)
      ASSERT_EQ(out.at(r, col), 0.0) << "padding must be zero";

  auto loss = ops::sum(ops::mul(out, w));
  loss.backward();
  std::vector<double> expected_grad(static_cast<std::size_t>(n * c), 0.0);
  for (std::int64_t r = 0; r < keep; ++r)
    for (std::int64_t col = 0; col < c; ++col)
      expected_grad[perm[r] * c + col] += wdata[r * c + col];
  ASSERT_EQ(x.grad().size(), expected_grad.size());
  for (std::size_t i = 0; i < expected_grad.size(); ++i)
    ASSERT_EQ(x.grad()[i], expected_grad[i]) << "gradient flat index " << i;
}

TEST(SortPoolEquivalence, RandomInputsMatchFullSortPath) {
  util::Rng rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t n = 3 + static_cast<std::int64_t>(
                                   rng.uniform_int(std::uint64_t{40}));
    const std::int64_t c = 1 + static_cast<std::int64_t>(
                                   rng.uniform_int(std::uint64_t{5}));
    auto x = Tensor::randn({n, c}, rng);
    for (std::int64_t k : {std::int64_t{1}, n / 2 + 1, n, n + 7})
      expect_matches_reference(x, k);
  }
}

TEST(SortPoolEquivalence, TieHeavyInputsMatchFullSortPath) {
  // Values drawn from {0, 1}: most comparisons fall through to earlier
  // columns or the index tie-break, the regime where a selection algorithm
  // could diverge from the full sort if the comparator were not total.
  util::Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t n = 6 + static_cast<std::int64_t>(
                                   rng.uniform_int(std::uint64_t{30}));
    const std::int64_t c = 1 + static_cast<std::int64_t>(
                                   rng.uniform_int(std::uint64_t{3}));
    std::vector<double> data(static_cast<std::size_t>(n * c));
    for (auto& v : data)
      v = static_cast<double>(rng.uniform_int(std::uint64_t{2}));
    auto x = Tensor::from_data({n, c}, std::move(data));
    for (std::int64_t k : {std::int64_t{2}, n / 3 + 1, n - 1, n})
      expect_matches_reference(x, k);
  }
}

TEST(SortPoolEquivalence, AllRowsIdenticalFallsBackToIndexOrder) {
  auto x = Tensor::from_data({5, 2}, std::vector<double>(10, 3.5));
  expect_matches_reference(x, 3);
  expect_matches_reference(x, 5);
}

TEST(Conv1d, KnownValues) {
  // 1 input channel, kernel 2, stride 1, weight [1 -1], bias 0.5.
  auto x = Tensor::from_data({1, 4}, {1, 3, 2, 5});
  auto w = Tensor::from_data({1, 2}, {1, -1});
  auto b = Tensor::from_data({1}, {0.5});
  auto out = ops::conv1d(x, w, b, 2, 1);
  EXPECT_EQ(out.shape(), (Shape{1, 3}));
  EXPECT_EQ(out.data(), (std::vector<double>{-1.5, 1.5, -2.5}));
}

TEST(Conv1d, StrideAndMultiChannel) {
  auto x = Tensor::from_data({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  // C_out=1, kernel=2: weight sums both channels' windows.
  auto w = Tensor::ones({1, 4});
  auto out = ops::conv1d(x, w, Tensor(), 2, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 2}));
  EXPECT_EQ(out.data(), (std::vector<double>{33, 77}));
}

TEST(Conv1d, RejectsBadShapes) {
  auto x = Tensor::from_data({1, 3}, {1, 2, 3});
  auto w = Tensor::ones({1, 2});
  EXPECT_THROW(ops::conv1d(x, Tensor::ones({1, 3}), Tensor(), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(ops::conv1d(x, w, Tensor::ones({2}), 2, 1),
               std::invalid_argument);
  auto short_x = Tensor::from_data({1, 1}, {1});
  EXPECT_THROW(ops::conv1d(short_x, w, Tensor(), 2, 1),
               std::invalid_argument);
}

// ---- Read-out conv forward vs the scalar oracle (tests/conv_reference.h) --
//
// ops::conv1d is the trainer's call site of fwd::conv1d_fwd; the frozen
// engine calls the same instantiation from the same library.  Every output
// must equal the oracle bit for bit.

struct ConvShape {
  std::int64_t cin, lout, cout, kernel, stride;
  bool bias;
};

/// Random normal data (or all zeros with a -0 bias, `zeros`) through
/// ops::conv1d against conv1d_reference; reports the differing outputs.
template <typename T>
void expect_conv_matches_oracle(const ConvShape& s, util::Rng& rng,
                                bool zeros = false) {
  const std::int64_t len = (s.lout - 1) * s.stride + s.kernel;
  const auto fill = [&](std::int64_t n) {
    std::vector<T> v(static_cast<std::size_t>(n));
    for (auto& e : v) e = zeros ? T(0) : static_cast<T>(rng.normal());
    return v;
  };
  const std::vector<T> x = fill(s.cin * len);
  const std::vector<T> w = [&] {
    std::vector<T> v(static_cast<std::size_t>(s.cout * s.cin * s.kernel));
    for (auto& e : v) e = static_cast<T>(rng.normal());
    return v;
  }();
  std::vector<T> b = fill(s.cout);
  if (zeros) std::fill(b.begin(), b.end(), T(-0.0));
  const Tensor bt = s.bias ? Tensor::from_data({s.cout}, b) : Tensor();
  const Tensor out = ops::conv1d(Tensor::from_data({s.cin, len}, x),
                                 Tensor::from_data({s.cout, s.cin * s.kernel}, w),
                                 bt, s.kernel, s.stride);
  const std::vector<T> want = testing::conv1d_reference(
      x.data(), w.data(), s.bias ? b.data() : nullptr, s.cin, len, s.cout,
      s.kernel, s.stride);
  const auto& got = out.data_as<T>();
  ASSERT_EQ(got.size(), want.size());
  std::size_t diff = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) ++diff;
  EXPECT_EQ(diff, 0u) << "of " << want.size() << " outputs at cin " << s.cin
                      << " lout " << s.lout << " cout " << s.cout
                      << " kernel " << s.kernel << " stride " << s.stride
                      << " bias " << s.bias << " (" << sizeof(T) * 8
                      << "-bit)";
}

/// Random shapes: cin 1-16, kernel 1-400, cout 1-40, lout 1-80, with and
/// without bias; the stride cycles through 1, kernel and another value.
template <typename T>
void expect_random_convs_match_oracle(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto draw = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (int trial = 0; trial < 36; ++trial) {
    ConvShape s{draw(1, 16), draw(1, 80), draw(1, 40), draw(1, 400), 1,
                trial % 2 == 0};
    if (trial % 3 == 1) s.stride = s.kernel;
    if (trial % 3 == 2) {
      s.stride = draw(2, s.kernel + 8);
      if (s.stride == s.kernel) ++s.stride;
    }
    expect_conv_matches_oracle<T>(s, rng);
  }
}

TEST(Conv1dOracle, RandomShapesMatchBitForBitF32) {
  expect_random_convs_match_oracle<float>(71);
}

TEST(Conv1dOracle, RandomShapesMatchBitForBitF64) {
  expect_random_convs_match_oracle<double>(73);
}

TEST(Conv1dOracle, ModelShapesMatchBitForBit) {
  // DGCNN read-out at sort_k 10 (tests), 24 (serving) and 30 (Cora
  // defaults) over C = 97 channels: conv1 (1 -> 16, kernel = stride = C),
  // then conv2 (16 -> 32, kernel 5, stride 1) over the pooled k/2 signal.
  util::Rng rng(79);
  for (const std::int64_t k : {10, 24, 30}) {
    const ConvShape conv1{1, k, 16, 97, 97, true};
    const ConvShape conv2{16, k / 2 - 4, 32, 5, 1, true};
    for (int rep = 0; rep < 4; ++rep) {
      expect_conv_matches_oracle<float>(conv1, rng);
      expect_conv_matches_oracle<double>(conv1, rng);
      expect_conv_matches_oracle<float>(conv2, rng);
      expect_conv_matches_oracle<double>(conv2, rng);
    }
  }
}

TEST(Conv1dOracle, SignedZerosAndShortKernels) {
  // A -0 bias over zero input keeps or loses its sign depending on which
  // adds run (the strided lanes add +0 even when the kernel is shorter than
  // a lane step); kernels shorter than a lane step run the tail taps only.
  util::Rng rng(83);
  for (const ConvShape& s :
       {ConvShape{1, 7, 5, 5, 5, true}, ConvShape{3, 9, 17, 3, 2, true},
        ConvShape{2, 6, 9, 20, 20, true}, ConvShape{4, 5, 33, 4, 1, true}}) {
    expect_conv_matches_oracle<float>(s, rng, /*zeros=*/true);
    expect_conv_matches_oracle<double>(s, rng, /*zeros=*/true);
    expect_conv_matches_oracle<float>(s, rng);
    expect_conv_matches_oracle<double>(s, rng);
  }
}

TEST(MaxPool1d, KnownValues) {
  auto x = Tensor::from_data({2, 4}, {1, 5, 2, 3, 9, 0, 4, 4});
  auto out = ops::max_pool1d(x, 2, 2);
  EXPECT_EQ(out.shape(), (Shape{2, 2}));
  EXPECT_EQ(out.data(), (std::vector<double>{5, 3, 9, 4}));
}

TEST(MaxPool1d, OverlappingWindows) {
  auto x = Tensor::from_data({1, 4}, {1, 5, 2, 3});
  auto out = ops::max_pool1d(x, 2, 1);
  EXPECT_EQ(out.data(), (std::vector<double>{5, 5, 3}));
}

TEST(DgcnnHeadPipeline, ShapesComposeForMinimumK) {
  // k=10, C=5 embedding channels: reshape -> conv(kernel=C, stride=C) ->
  // pool(2,2) -> conv(kernel 5): the minimal legal DGCNN head.
  util::Rng rng(13);
  auto z = Tensor::randn({7, 5}, rng);
  auto pooled = ops::sort_pool(z, 10);
  auto seq = ops::reshape(pooled, {1, 50});
  auto w1 = Tensor::randn({16, 5}, rng);
  auto c1 = ops::conv1d(seq, w1, Tensor(), 5, 5);
  EXPECT_EQ(c1.shape(), (Shape{16, 10}));
  auto p = ops::max_pool1d(c1, 2, 2);
  EXPECT_EQ(p.shape(), (Shape{16, 5}));
  auto w2 = Tensor::randn({32, 16 * 5}, rng);
  auto c2 = ops::conv1d(p, w2, Tensor(), 5, 1);
  EXPECT_EQ(c2.shape(), (Shape{32, 1}));
}

}  // namespace
}  // namespace amdgcnn::ag
