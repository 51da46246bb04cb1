// The fused GAT layer op (ops::gat_conv): a seeded property test that its
// output and every gradient equal the per-op reference chain, and its
// output the scalar forward oracle (both in tests/gat_reference.h), bit for
// bit; the one-tape-node structure of nn::GATConv; and the op's input
// checks.  Each trial is a pure function of its seed, printed on failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gat_reference.h"
#include "nn/gat_conv.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace amdgcnn::ag {
namespace {

/// Structural knobs of one trial; sizes and values come from the seed.
struct Case {
  std::int64_t heads, head_features, edge_dim;
  bool zero_edges;      // no real edges: only the self-loops
  bool sink;            // parameter gradients go through a GradSinkScope
  bool serve = false;   // 24-40 nodes (the serve subgraphs' size) for 2-12
  bool zeros = false;   // exact +0 and -0 features, whole zero rows too
};

std::string describe(const Case& c, Dtype dt, std::uint64_t seed) {
  return std::string(dtype_name(dt)) + " heads=" + std::to_string(c.heads) +
         "x" + std::to_string(c.head_features) +
         " edge_dim=" + std::to_string(c.edge_dim) +
         (c.zero_edges ? " no-edges" : "") + (c.sink ? " sink" : "") +
         (c.serve ? " serve" : "") + (c.zeros ? " zeros" : "") +
         " seed=" + std::to_string(seed);
}

/// Sets about a third of t's entries to +0 or -0 and, when it has at least
/// two rows, row 0 to +0 and row 1 to -0.
template <typename T>
void sprinkle_zeros(Tensor& t, util::Rng& rng) {
  auto& v = t.data_as<T>();
  const std::int64_t cols = t.dim(1);
  for (std::size_t i = 0; i < v.size(); ++i)
    if (rng.bernoulli(1.0 / 3.0)) v[i] = rng.bernoulli(0.5) ? T(0) : -T(0);
  if (t.dim(0) >= 2)
    for (std::int64_t c = 0; c < cols; ++c) {
      v[static_cast<std::size_t>(c)] = T(0);
      v[static_cast<std::size_t>(cols + c)] = -T(0);
    }
}

/// One layer's inputs, rebuilt identically from (case, seed) for each side.
struct Inputs {
  Tensor x, edge_attr, upstream;
  std::vector<std::int64_t> src, dst;
  ops::GatParams p;
};

Inputs make_inputs(const Case& c, Dtype dt, std::uint64_t seed) {
  util::Rng rng(seed);
  Inputs in;
  const std::int64_t n =
      c.serve ? rng.uniform_int(std::int64_t{24}, std::int64_t{40})
              : rng.uniform_int(std::int64_t{2}, std::int64_t{12});
  const std::int64_t width = rng.uniform_int(std::int64_t{1}, std::int64_t{9});
  const std::int64_t hf = c.heads * c.head_features;
  if (!c.zero_edges) {
    // A multigraph over nodes [0, n-1): the last node is isolated (only its
    // self-loop reaches it), and the first edge is repeated.
    const std::int64_t e = rng.uniform_int(std::int64_t{1}, 3 * n);
    for (std::int64_t i = 0; i < e; ++i) {
      in.src.push_back(rng.uniform_int(std::int64_t{0}, n - 2));
      in.dst.push_back(rng.uniform_int(std::int64_t{0}, n - 2));
    }
    in.src.push_back(in.src[0]);
    in.dst.push_back(in.dst[0]);
  }
  const auto e_in = static_cast<std::int64_t>(in.src.size());
  in.x = Tensor::randn({n, width}, rng, dt);
  if (c.zeros) {
    if (dt == Dtype::f32)
      sprinkle_zeros<float>(in.x, rng);
    else
      sprinkle_zeros<double>(in.x, rng);
  }
  in.x.requires_grad(rng.bernoulli(0.75));
  const auto param = [&](std::int64_t rows) {
    Tensor t = Tensor::randn({rows, hf}, rng, dt);
    t.requires_grad(true);
    return t;
  };
  in.p.w = param(width);
  in.p.a_src = param(1);
  in.p.a_dst = param(1);
  if (c.edge_dim > 0) {
    in.p.w_e = param(c.edge_dim);
    in.p.a_edge = param(1);
    // Sometimes built at the other precision, as a dataset may be.
    const Dtype attr_dt =
        rng.bernoulli(0.5) ? dt : (dt == Dtype::f32 ? Dtype::f64 : Dtype::f32);
    in.edge_attr = Tensor::randn({e_in, c.edge_dim}, rng, attr_dt);
    if (c.zeros && e_in > 0) {
      if (attr_dt == Dtype::f32)
        sprinkle_zeros<float>(in.edge_attr, rng);
      else
        sprinkle_zeros<double>(in.edge_attr, rng);
    }
  }
  in.p.bias = param(1);
  in.upstream = Tensor::randn({n, hf}, rng, dt);
  return in;
}

std::vector<Tensor> params_of(const ops::GatParams& p) {
  std::vector<Tensor> out = {p.w, p.a_src, p.a_dst};
  if (p.w_e.defined()) {
    out.push_back(p.w_e);
    out.push_back(p.a_edge);
  }
  out.push_back(p.bias);
  return out;
}

/// Forward output and gradients (x first when it requires grad, then every
/// parameter) of one side, after loss = sum(tanh(out) * upstream).
template <typename T>
std::vector<std::vector<T>> run_side(const Case& c, std::uint64_t seed,
                                     bool fused) {
  Inputs in = make_inputs(c, dtype_of_v<T>, seed);
  const auto params = params_of(in.p);
  std::unordered_map<const detail::TensorImpl*, std::size_t> slot_of;
  std::vector<std::vector<T>> sink;
  for (std::size_t i = 0; i < params.size(); ++i) {
    slot_of[params[i].unsafe_impl()] = i;
    sink.emplace_back(static_cast<std::size_t>(params[i].numel()), T(0));
  }
  std::vector<std::vector<T>> result;
  {
    std::optional<GradSinkScope> scope;
    if (c.sink) scope.emplace(slot_of, sink);
    const double slope = 0.2;
    const Tensor out =
        fused ? ops::gat_conv(in.x, in.src, in.dst, in.edge_attr, in.p,
                              c.heads, slope)
              : testing::gat_conv_reference(in.x, in.src, in.dst,
                                            in.edge_attr, in.p, c.heads,
                                            slope);
    result.push_back(out.data_as<T>());
    ops::sum(ops::mul(ops::tanh_act(out), in.upstream)).backward();
  }
  if (in.x.requires_grad()) result.push_back(in.x.grad_as<T>());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor p = params[i];
    result.push_back(c.sink ? sink[i] : p.grad_as<T>());
  }
  return result;
}

/// The scalar forward oracle's output on the same inputs as run_side.
template <typename T>
std::vector<T> run_oracle(const Case& c, std::uint64_t seed) {
  const Inputs in = make_inputs(c, dtype_of_v<T>, seed);
  const auto data = [](const Tensor& t) {
    return t.defined() ? t.data_as<T>().data() : nullptr;
  };
  const Tensor attr = c.edge_dim > 0 ? ops::cast(in.edge_attr, dtype_of_v<T>)
                                     : Tensor();
  return testing::gat_forward_reference<T>(
      data(in.x), data(attr), in.src, in.dst, in.x.dim(0), in.x.dim(1),
      in.p.w.dim(1), c.heads, c.edge_dim, data(in.p.w), data(in.p.a_src),
      data(in.p.a_dst), data(in.p.w_e), data(in.p.a_edge), data(in.p.bias),
      static_cast<T>(0.2));
}

template <typename T>
::testing::AssertionResult same_bits(const std::vector<T>& a,
                                     const std::vector<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
      return ::testing::AssertionFailure()
             << "first difference at " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

template <typename T>
void expect_trial_matches(const Case& c, std::uint64_t seed) {
  const auto fused = run_side<T>(c, seed, /*fused=*/true);
  const auto ref = run_side<T>(c, seed, /*fused=*/false);
  ASSERT_EQ(fused.size(), ref.size());
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_TRUE(same_bits(fused[i], ref[i]))
        << describe(c, dtype_of_v<T>, seed) << ", "
        << (i == 0 ? "output" : "gradient " + std::to_string(i));
  EXPECT_TRUE(same_bits(fused[0], run_oracle<T>(c, seed)))
      << describe(c, dtype_of_v<T>, seed) << ", output vs scalar oracle";
}

template <typename T>
void expect_fused_equals_reference() {
  // (heads, features per head): the model's 4 x 8 and 1 x 1 (its last
  // layer), odd widths, a 16-wide head and 8 heads of 9.
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {4, 8}, {1, 1}, {2, 3}, {3, 5}, {4, 16}, {8, 9}};
  std::uint64_t seed = 1000;
  for (const auto& [heads, f] : shapes)
    for (const std::int64_t edge_dim : {0, 2})
      for (const bool zero_edges : {false, true})
        for (const bool sink : {false, true})
          for (int rep = 0; rep < 4; ++rep, ++seed)
            expect_trial_matches<T>({heads, f, edge_dim, zero_edges, sink},
                                    seed);
  // Serve-sized subgraphs (24-40 nodes, up to 3n edges), with and without
  // exact signed zeros, and small ones with zeros.
  seed = 2000;
  for (const auto& [heads, f] : shapes)
    for (const std::int64_t edge_dim : {0, 2})
      for (const auto& [serve, zeros] :
           {std::pair{true, false}, {true, true}, {false, true}})
        for (int rep = 0; rep < 2; ++rep, ++seed)
          expect_trial_matches<T>(
              {heads, f, edge_dim, false, rep == 1, serve, zeros}, seed);
}

TEST(GatConvOp, OutputAndGradientsEqualReferenceBitForBitF64) {
  expect_fused_equals_reference<double>();
}

TEST(GatConvOp, OutputAndGradientsEqualReferenceBitForBitF32) {
  expect_fused_equals_reference<float>();
}

TEST(GatConvOp, LayerIsOneTapeNodeOverXAndItsParameters) {
  for (const std::int64_t edge_dim : {0, 2}) {
    util::Rng rng(31);
    nn::GATConv gat(5, 4, /*heads=*/2, edge_dim, rng);
    Tensor x = Tensor::randn({4, 5}, rng);
    x.requires_grad(true);
    const Tensor ea = edge_dim > 0 ? Tensor::randn({3, edge_dim}, rng)
                                   : Tensor();
    const Tensor out = gat.forward(x, {0, 1, 2}, {1, 2, 3}, ea, 4);
    const auto& parents = out.impl()->parents;
    const auto params = gat.parameters();
    ASSERT_EQ(parents.size(), params.size() + 1) << "edge_dim=" << edge_dim;
    EXPECT_EQ(parents[0].get(), x.unsafe_impl());
    for (std::size_t i = 0; i < params.size(); ++i)
      EXPECT_EQ(parents[i + 1].get(), params[i].unsafe_impl())
          << "edge_dim=" << edge_dim << " parameter " << i;
    EXPECT_TRUE(static_cast<bool>(out.impl()->backward_fn));
  }
}

TEST(GatConvOp, RejectsOutOfRangeEdgesAndBadInputs) {
  util::Rng rng(32);
  nn::GATConv gat(2, 2, 1, /*edge_attr_dim=*/2, rng);
  const Tensor x = Tensor::ones({4, 2});
  const Tensor ea = Tensor::zeros({3, 2});
  EXPECT_NO_THROW(gat.forward(x, {0, 1, 2}, {1, 2, 3}, ea, 4));
  EXPECT_THROW(gat.forward(x, {0, 1, 2}, {1, 2, 4}, ea, 4),
               std::invalid_argument);
  EXPECT_THROW(gat.forward(x, {0, 1, 2}, {1, 2, 1000000}, ea, 4),
               std::invalid_argument);
  EXPECT_THROW(gat.forward(x, {0, -1, 2}, {1, 2, 3}, ea, 4),
               std::invalid_argument);
  EXPECT_THROW(gat.forward(x, {0, 1, 2}, {1, 2}, ea, 4),
               std::invalid_argument);
  EXPECT_THROW(gat.forward(Tensor::ones({4, 3}), {0}, {1},
                           Tensor::zeros({1, 2}), 4),
               std::invalid_argument);
  Tensor grad_attr = Tensor::zeros({3, 2});
  grad_attr.requires_grad(true);
  EXPECT_THROW(gat.forward(x, {0, 1, 2}, {1, 2, 3}, grad_attr, 4),
               std::invalid_argument);
  EXPECT_THROW(gat.forward(Tensor::ones({4, 2}, Dtype::f32), {0}, {1},
                           Tensor::zeros({1, 2}), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace amdgcnn::ag
