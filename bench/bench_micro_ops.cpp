// google-benchmark micro-benchmarks for the kernels the training loop lives
// in: GAT vs GCN layer forward/backward (the paper's "without a significant
// cost to computational latency" claim), one GAT layer at the PrimeKG-sim
// training shape with the stages of its shared forward kernel, the linear
// backward kernels,
// subgraph extraction, DRNL, sort pooling and the conv read-out head.
#include <benchmark/benchmark.h>

#include "datasets/wordnet_sim.h"
#include "graph/subgraph.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "seal/drnl.h"
#include "seal/feature_builder.h"
#include "tensor/conv_ops.h"
#include "tensor/fwd_kernels.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace {

using namespace amdgcnn;

/// Random subgraph-shaped inputs: n nodes, ~3n directed edges.
struct LayerFixture {
  std::int64_t n;
  ag::Tensor x;
  std::vector<std::int64_t> src, dst;
  ag::Tensor edge_attr;

  LayerFixture(std::int64_t nodes, std::int64_t feat, std::int64_t edge_dim,
               std::uint64_t seed)
      : n(nodes) {
    util::Rng rng(seed);
    x = ag::Tensor::randn({n, feat}, rng);
    const std::int64_t e = 3 * n;
    for (std::int64_t i = 0; i < e; ++i) {
      auto a = static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      auto b = static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      src.push_back(a);
      dst.push_back(b);
      src.push_back(b);
      dst.push_back(a);
    }
    if (edge_dim > 0)
      edge_attr = ag::Tensor::randn(
          {static_cast<std::int64_t>(src.size()), edge_dim}, rng);
  }
};

void BM_GCNConvForwardBackward(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  LayerFixture fix(n, 32, 0, 1);
  util::Rng rng(2);
  nn::GCNConv layer(32, 32, rng);
  for (auto _ : state) {
    auto out = layer.forward(fix.x, fix.src, fix.dst, fix.n);
    auto loss = ag::ops::mean(ag::ops::mul(out, out));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
    for (auto p : layer.parameters()) p.zero_grad();
  }
  state.SetItemsProcessed(state.iterations() * fix.src.size());
}
BENCHMARK(BM_GCNConvForwardBackward)->Arg(16)->Arg(48)->Arg(128);

void BM_GATConvForwardBackward(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t edge_dim = state.range(1);
  LayerFixture fix(n, 32, edge_dim, 1);
  util::Rng rng(2);
  nn::GATConv layer(32, 8, 4, edge_dim, rng);
  for (auto _ : state) {
    auto out =
        layer.forward(fix.x, fix.src, fix.dst, fix.edge_attr, fix.n);
    auto loss = ag::ops::mean(ag::ops::mul(out, out));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
    for (auto p : layer.parameters()) p.zero_grad();
  }
  state.SetItemsProcessed(state.iterations() * fix.src.size());
}
BENCHMARK(BM_GATConvForwardBackward)
    ->Args({16, 0})
    ->Args({48, 0})
    ->Args({48, 18})
    ->Args({128, 18});

/// One AM-DGCNN GAT layer at the PrimeKG-sim training shape: 32 nodes,
/// 107 directed edges, 35 -> 32 features as 4 heads x 8, 2 edge attributes.
template <typename T>
struct GatFixture {
  static constexpr std::int64_t kNodes = 32, kEdges = 107, kIn = 35;
  static constexpr std::int64_t kHeads = 4, kHeadFeatures = 8, kEdgeDim = 2;
  ag::Tensor x, edge_attr;
  std::vector<std::int64_t> src, dst;

  GatFixture() {
    util::Rng rng(5);
    x = ag::Tensor::randn({kNodes, kIn}, rng, ag::dtype_of_v<T>);
    while (static_cast<std::int64_t>(src.size()) < kEdges) {
      const auto a = rng.uniform_int(std::int64_t{0}, kNodes - 1);
      const auto b = rng.uniform_int(std::int64_t{0}, kNodes - 1);
      if (a == b) continue;
      src.push_back(a);
      dst.push_back(b);
    }
    edge_attr = ag::Tensor::randn({kEdges, kEdgeDim}, rng, ag::dtype_of_v<T>);
  }
};

/// Forward + backward of one GAT layer (nn::GATConv -> ops::gat_conv).
template <typename T>
void BM_GatLayer(benchmark::State& state) {
  using F = GatFixture<T>;
  F fix;
  util::Rng rng(6);
  nn::GATConv layer(F::kIn, F::kHeadFeatures, F::kHeads, F::kEdgeDim, rng,
                    0.2, ag::dtype_of_v<T>);
  for (auto _ : state) {
    auto out = layer.forward(fix.x, fix.src, fix.dst, fix.edge_attr, F::kNodes);
    auto loss = ag::ops::mean(ag::ops::mul(out, out));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
    for (auto p : layer.parameters()) p.zero_grad();
  }
}
BENCHMARK_TEMPLATE(BM_GatLayer, float);
BENCHMARK_TEMPLATE(BM_GatLayer, double);

/// The stages of the shared forward kernel fwd::gat_layer_fwd at the same
/// shape, one per row, plus the layer's tanh (run by the caller):
/// 0 projection (x·W, edge_attr·W_e), 1 scores, 2 LeakyReLU + softmax,
/// 3 messages, 4 scatter + bias, 5 tanh, 6 the whole kernel.
template <typename T>
void BM_GatLayerStage(benchmark::State& state) {
  namespace fwd = ag::fwd;
  using F = GatFixture<T>;
  F fix;
  util::Rng rng(6);
  nn::GATConv layer(F::kIn, F::kHeadFeatures, F::kHeads, F::kEdgeDim, rng,
                    0.2, ag::dtype_of_v<T>);
  const auto params = layer.parameters();
  const auto ptr = [&](std::size_t i) { return params[i].data_as<T>().data(); };
  const std::int64_t n = F::kNodes, e_in = F::kEdges, e_all = e_in + n;
  const std::int64_t heads = F::kHeads, hf = heads * F::kHeadFeatures;
  const fwd::GatLayer<T> L{ptr(0), ptr(1), ptr(2), ptr(3), ptr(4), ptr(5),
                           F::kIn, hf, heads, F::kEdgeDim, static_cast<T>(0.2)};
  std::vector<std::int64_t> s(fix.src), d(fix.dst);
  for (std::int64_t i = 0; i < n; ++i) {
    s.push_back(i);
    d.push_back(i);
  }
  std::vector<T> xw(n * hf), ea(e_in * hf), scores(e_all * heads),
      alpha(e_all * heads), out(n * hf),
      scratch(fwd::gat_scratch_size(n, e_all, hf, heads));
  std::vector<double> seg_sum(n * heads);
  const fwd::GatBuffers<T> b{xw.data(),     ea.data(),     scores.data(),
                             alpha.data(),  scratch.data(), seg_sum.data()};
  const T* x = fix.x.template data_as<T>().data();
  const T* eattr = fix.edge_attr.template data_as<T>().data();
  T* nd = scratch.data();
  T* act = nd + 2 * n * heads;
  T* seg_max = act + e_all * heads;
  T* msg = seg_max + n * heads;
  fwd::gat_layer_fwd(L, x, eattr, s.data(), d.data(), n, e_in, b, out.data());

  const int stage = static_cast<int>(state.range(0));
  static const char* const kNames[] = {"projection", "scores", "softmax",
                                       "messages",   "scatter", "tanh",
                                       "layer"};
  state.SetLabel(kNames[stage]);
  for (auto _ : state) {
    switch (stage) {
      case 0:
        std::fill(xw.begin(), xw.end(), T(0));
        ag::kern::mm_add(x, L.w, xw.data(), n, L.in, hf);
        std::fill(ea.begin(), ea.end(), T(0));
        ag::kern::mm_add(eattr, L.w_e, ea.data(), e_in, L.edge_dim, hf);
        break;
      case 1:
        fwd::gat_scores_fwd(L, xw.data(), ea.data(), s.data(), d.data(), n,
                            e_in, scores.data(), nd, act);
        break;
      case 2:
        for (std::int64_t i = 0; i < e_all * heads; ++i)
          act[i] = scores[i] > T(0) ? scores[i] : L.slope * scores[i];
        std::fill(seg_sum.begin(), seg_sum.end(), 0.0);
        fwd::segment_softmax_fwd(act, d.data(), alpha.data(), seg_max,
                                 seg_sum.data(), e_all, heads, n);
        break;
      case 3:
        fwd::gat_messages_fwd(xw.data(), ea.data(), alpha.data(), s.data(),
                              e_in, e_all, hf, heads, msg);
        break;
      case 4:
        fwd::scatter_add_bias_fwd(msg, d.data(), e_all, n, hf, L.bias,
                                  out.data());
        break;
      case 5:
        fwd::tanh_inplace(out.data(), n * hf);
        break;
      default:
        fwd::gat_layer_fwd(L, x, eattr, s.data(), d.data(), n, e_in, b,
                           out.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK_TEMPLATE(BM_GatLayerStage, float)->DenseRange(0, 6);
BENCHMARK_TEMPLATE(BM_GatLayerStage, double)->DenseRange(0, 6);

void BM_SubgraphExtraction(benchmark::State& state) {
  datasets::WordNetSimOptions opts;
  opts.num_nodes = 2000;
  opts.num_train = 10;
  opts.num_test = 5;
  auto data = datasets::make_wordnet_sim(opts);
  graph::ExtractOptions eo;
  eo.num_hops = 2;
  eo.max_nodes = state.range(0);
  util::Rng rng(3);
  for (auto _ : state) {
    const auto a = static_cast<graph::NodeId>(
        rng.uniform_int(static_cast<std::uint64_t>(data.graph.num_nodes())));
    const auto b = static_cast<graph::NodeId>(
        rng.uniform_int(static_cast<std::uint64_t>(data.graph.num_nodes())));
    if (a == b) continue;
    auto sub = graph::extract_enclosing_subgraph(data.graph, a, b, eo);
    benchmark::DoNotOptimize(sub.num_nodes());
  }
}
BENCHMARK(BM_SubgraphExtraction)->Arg(32)->Arg(128);

void BM_DrnlLabeling(benchmark::State& state) {
  datasets::WordNetSimOptions opts;
  opts.num_nodes = 1000;
  opts.num_train = 10;
  opts.num_test = 5;
  auto data = datasets::make_wordnet_sim(opts);
  graph::ExtractOptions eo;
  eo.max_nodes = 64;
  auto sub = graph::extract_enclosing_subgraph(data.graph, 1, 2, eo);
  for (auto _ : state) {
    auto labels = seal::drnl_labels(sub);
    benchmark::DoNotOptimize(labels.data());
  }
}
BENCHMARK(BM_DrnlLabeling);

void BM_SortPooling(benchmark::State& state) {
  util::Rng rng(4);
  auto x = ag::Tensor::randn({state.range(0), 97}, rng);
  for (auto _ : state) {
    auto out = ag::ops::sort_pool(x, 30);
    benchmark::DoNotOptimize(out.item(0));
  }
}
BENCHMARK(BM_SortPooling)->Arg(16)->Arg(64)->Arg(256);

void BM_ConvReadoutHead(benchmark::State& state) {
  util::Rng rng(5);
  const std::int64_t k = 30, channels = 97;
  auto pooled = ag::Tensor::randn({k, channels}, rng);
  auto w1 = ag::Tensor::randn({16, channels}, rng).requires_grad(true);
  auto w2 = ag::Tensor::randn({32, 16 * 5}, rng).requires_grad(true);
  for (auto _ : state) {
    auto seq = ag::ops::reshape(pooled, {1, k * channels});
    auto c1 = ag::ops::relu(ag::ops::conv1d(seq, w1, ag::Tensor(), channels,
                                            channels));
    auto p = ag::ops::max_pool1d(c1, 2, 2);
    auto c2 = ag::ops::relu(ag::ops::conv1d(p, w2, ag::Tensor(), 5, 1));
    auto loss = ag::ops::mean(c2);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
    w1.zero_grad();
    w2.zero_grad();
  }
}
BENCHMARK(BM_ConvReadoutHead);

// ---- Quantized-inference primitives (DESIGN.md §2.7) ----------------------
// The decode kernels and the decode+matmul composite the q8 arena forward is
// built from, timed at the MP-layer weight shape (hidden 64).

void BM_F16DecodeRow(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(6);
  auto t = ag::Tensor::randn({n}, rng, ag::Dtype::f32);
  const auto qt = ag::quant::quantize_tensor(t, ag::quant::Scheme::kF16);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    qt.decode(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(float));
}
BENCHMARK(BM_F16DecodeRow)->Arg(4096)->Arg(65536);

void BM_Q8DecodeRow(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  util::Rng rng(7);
  auto t = ag::Tensor::randn({n}, rng, ag::Dtype::f32);
  const auto qt = ag::quant::quantize_tensor(t, ag::quant::Scheme::kQ8);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (auto _ : state) {
    qt.decode(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(float));
}
BENCHMARK(BM_Q8DecodeRow)->Arg(4096)->Arg(65536);

void BM_Q8DecodeMatmul(benchmark::State& state) {
  // decode(q8 weight) + mm_add at the quant forward's MP shape:
  // x(n x 64) · W(64 x 64), weight decoded into scratch per call exactly as
  // FrozenModel::forward_quant does.
  const std::int64_t n = state.range(0), kDim = 64, m = 64;
  util::Rng rng(8);
  auto w = ag::Tensor::randn({kDim, m}, rng, ag::Dtype::f32);
  const auto qw = ag::quant::quantize_tensor(w, ag::quant::Scheme::kQ8);
  auto x = ag::Tensor::randn({n, kDim}, rng, ag::Dtype::f32);
  std::vector<float> wdec(static_cast<std::size_t>(kDim * m));
  std::vector<float> out(static_cast<std::size_t>(n * m));
  const float* xd = x.data_as<float>().data();
  for (auto _ : state) {
    qw.decode(wdec.data());
    std::fill(out.begin(), out.end(), 0.0f);
    ag::kern::mm_add(xd, wdec.data(), out.data(), n, kDim, m);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * kDim * m);
}
BENCHMARK(BM_Q8DecodeMatmul)->Arg(16)->Arg(48)->Arg(128);

void BM_F32Matmul(benchmark::State& state) {
  // The exact-path counterpart of BM_Q8DecodeMatmul (no decode step).
  const std::int64_t n = state.range(0), kDim = 64, m = 64;
  util::Rng rng(9);
  auto w = ag::Tensor::randn({kDim, m}, rng, ag::Dtype::f32);
  auto x = ag::Tensor::randn({n, kDim}, rng, ag::Dtype::f32);
  const float* xd = x.data_as<float>().data();
  const float* wd = w.data_as<float>().data();
  std::vector<float> out(static_cast<std::size_t>(n * m));
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    ag::kern::mm_add(xd, wd, out.data(), n, kDim, m);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * kDim * m);
}
BENCHMARK(BM_F32Matmul)->Arg(16)->Arg(48)->Arg(128);

template <typename T>
void BM_LinearBackward(benchmark::State& state) {
  // The three gradient kernels of a linear layer's backward (dA += G·Wᵀ,
  // dW += Aᵀ·G, db += column sums of G) at [n,k]·[k,m]: the dense head's
  // [1,256]·[256,128], where dA takes the few-row blocked-transpose path,
  // and a GAT layer's [32,32]·[32,32], where it takes the 4-row path.
  const std::int64_t n = state.range(0), k = state.range(1), m = state.range(2);
  util::Rng rng(10);
  auto values = [&rng](std::int64_t count) {
    std::vector<T> v(static_cast<std::size_t>(count));
    for (auto& x : v) x = static_cast<T>(rng.normal());
    return v;
  };
  const auto a = values(n * k), w = values(k * m), g = values(n * m);
  auto da = values(n * k), dw = values(k * m), db = values(m);
  for (auto _ : state) {
    ag::kern::mm_abt_add(g.data(), w.data(), da.data(), n, k, m);
    ag::kern::mm_atb_add(a.data(), g.data(), dw.data(), n, k, m);
    ag::kern::col_sum_add(g.data(), db.data(), n, m);
    benchmark::DoNotOptimize(da.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK_TEMPLATE(BM_LinearBackward, float)
    ->Args({1, 256, 128})
    ->Args({32, 32, 32});
BENCHMARK_TEMPLATE(BM_LinearBackward, double)
    ->Args({1, 256, 128})
    ->Args({32, 32, 32});

void BM_TanhRow(benchmark::State& state) {
  // f32 tanh at the per-query activation volume of the tuned model
  // (3 layers x 48 x 64): libm, the relaxed rational tanh of the quantized
  // forward, and the exact vectorized kernel the trainer and the frozen
  // forward share (same bits as (float)std::tanh((double)x)).
  const std::int64_t n = 9216;
  std::vector<float> x(static_cast<std::size_t>(n)), y(x.size());
  for (std::int64_t i = 0; i < n; ++i)
    x[i] = -4.0f + 8.0f * static_cast<float>(i) / static_cast<float>(n);
  const auto kind = state.range(0);
  for (auto _ : state) {
    if (kind == 0) {
      for (std::int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
    } else if (kind == 1) {
      for (std::int64_t i = 0; i < n; ++i) y[i] = ag::fwd::fast_tanh(x[i]);
    } else {
      std::copy(x.begin(), x.end(), y.begin());
      ag::fwd::tanh_inplace(y.data(), n);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kind == 0 ? "std::tanh" : kind == 1 ? "fast_tanh"
                                                      : "tanh_inplace (exact)");
}
BENCHMARK(BM_TanhRow)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
