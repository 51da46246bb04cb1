#include "infer/frozen_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/fwd_kernels.h"
#include "tensor/kernels.h"

namespace amdgcnn::infer {

namespace {

/// LeakyReLU slope of the attention logits (DGCNN builds every GATConv
/// with 0.2).
constexpr double kSlope = 0.2;

/// Positional parameter reader with named shape/dtype validation.  The
/// parameter order is Module::parameters() order: own parameters first, then
/// children depth-first in registration order — fully determined by the
/// ModelConfig (the same contract load_weights relies on).
class ParamReader {
 public:
  ParamReader(const std::vector<ag::Tensor>& params, const models::ModelConfig& cfg)
      : params_(params), cfg_(cfg) {}

  ag::Tensor take(ag::Shape expected, const char* name) {
    if (i_ >= params_.size())
      throw std::runtime_error(prefix() + "ran out of parameters at '" + name +
                               "' (have " + std::to_string(params_.size()) +
                               ")");
    const ag::Tensor& t = params_[i_];
    if (t.shape() != expected)
      throw std::runtime_error(
          prefix() + "parameter " + std::to_string(i_) + " ('" + name +
          "') has shape " + ag::shape_str(t.shape()) + ", expected " +
          ag::shape_str(expected));
    if (t.dtype() != cfg_.dtype)
      throw std::runtime_error(prefix() + "parameter " + std::to_string(i_) +
                               " ('" + name + "') is " +
                               ag::dtype_name(t.dtype()) + ", config says " +
                               ag::dtype_name(cfg_.dtype));
    ++i_;
    return t;
  }

  void expect_count(std::size_t expected) const {
    if (params_.size() != expected)
      throw std::runtime_error(
          prefix() + "model has " + std::to_string(params_.size()) +
          " parameters, config implies " + std::to_string(expected));
  }

 private:
  std::string prefix() const {
    return std::string("FrozenModel(") + models::gnn_kind_name(cfg_.kind) +
           "): ";
  }

  const std::vector<ag::Tensor>& params_;
  const models::ModelConfig& cfg_;
  std::size_t i_ = 0;
};

template <typename T, typename S>
void cast_copy(const std::vector<S>& src, T* dst) {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<T>(src[i]);
}

/// Node/edge features at the model width: zero-copy view when the sample was
/// built at the model dtype, arena-backed static_cast copy otherwise (same
/// conversion ops::cast performs at the training model boundary).
template <typename T>
const T* features_at_width(const ag::Tensor& t, Arena& arena) {
  if (t.dtype() == ag::dtype_of_v<T>) return t.data_as<T>().data();
  T* buf = arena.alloc<T>(static_cast<std::size_t>(t.numel()));
  if constexpr (std::is_same_v<T, float>)
    cast_copy(t.data_as<double>(), buf);
  else
    cast_copy(t.data_as<float>(), buf);
  return buf;
}

}  // namespace

FrozenModel::FrozenModel(const models::LinkGNN& model,
                         ag::quant::Scheme scheme)
    : config_(model.config()) {
  // config() reflects the constructed model, sort_k already clamped.
  const bool attention = config_.kind == models::GnnKind::kAMDGCNN;
  edge_dim_ = attention && config_.use_edge_attr ? config_.edge_attr_dim : 0;
  total_channels_ = config_.num_layers * config_.hidden_dim + 1;
  conv_out_len_ = config_.sort_k / 2 - config_.conv2_kernel + 1;

  const auto params = model.parameters();
  ParamReader reader(params, config_);
  const std::size_t num_mp = static_cast<std::size_t>(config_.num_layers) + 1;
  const std::size_t per_layer = attention ? (edge_dim_ > 0 ? 6 : 4) : 2;
  reader.expect_count(num_mp * per_layer + 8);

  mp_.reserve(num_mp);
  std::int64_t in = config_.node_feature_dim;
  for (std::size_t l = 0; l < num_mp; ++l) {
    const bool last = l + 1 == num_mp;
    MpLayer layer;
    layer.in = in;
    if (attention) {
      layer.heads = last ? 1 : config_.heads;
      layer.out = last ? 1 : config_.hidden_dim;  // heads * head_features
      layer.weight.exact = reader.take({layer.in, layer.out}, "gat.weight");
      layer.a_src.exact = reader.take({1, layer.out}, "gat.a_src");
      layer.a_dst.exact = reader.take({1, layer.out}, "gat.a_dst");
      if (edge_dim_ > 0) {
        layer.edge_weight.exact =
            reader.take({edge_dim_, layer.out}, "gat.edge_weight");
        layer.a_edge.exact = reader.take({1, layer.out}, "gat.a_edge");
      }
      layer.bias.exact = reader.take({1, layer.out}, "gat.bias");
    } else {
      layer.out = last ? 1 : config_.hidden_dim;
      layer.weight.exact = reader.take({layer.in, layer.out}, "gcn.weight");
      layer.bias.exact = reader.take({1, layer.out}, "gcn.bias");
    }
    in = layer.out;
    mp_.push_back(std::move(layer));
  }

  conv1_w_.exact = reader.take({config_.conv1_channels, total_channels_},
                               "conv1.weight");
  conv1_b_.exact = reader.take({config_.conv1_channels}, "conv1.bias");
  conv2_w_.exact = reader.take(
      {config_.conv2_channels, config_.conv1_channels * config_.conv2_kernel},
      "conv2.weight");
  conv2_b_.exact = reader.take({config_.conv2_channels}, "conv2.bias");
  fc1_w_.exact = reader.take(
      {config_.conv2_channels * conv_out_len_, config_.dense_dim},
      "fc1.weight");
  fc1_b_.exact = reader.take({1, config_.dense_dim}, "fc1.bias");
  fc2_w_.exact =
      reader.take({config_.dense_dim, config_.num_classes}, "fc2.weight");
  fc2_b_.exact = reader.take({1, config_.num_classes}, "fc2.bias");

  // Count the resident bytes.  Quantize-on-freeze re-encodes every weight
  // first and RELEASES the exact handle: the quantized payload is the only
  // resident copy (the shrink gate measures exactly this), and the caller's
  // model can drop its storage.
  quant_ = scheme;
  const auto freeze = [&](Weight& w) {
    if (!w.exact.defined()) return;  // a GAT layer without edge attributes
    if (quant_ == ag::quant::Scheme::kNone) {
      weight_bytes_ += static_cast<std::size_t>(w.exact.numel()) *
                       ag::dtype_size(w.exact.dtype());
      return;
    }
    w.quant = ag::quant::quantize_tensor(w.exact, quant_);
    w.exact = ag::Tensor();
    weight_bytes_ += w.quant.resident_bytes();
  };
  for (auto& L : mp_)
    for (Weight* w : {&L.weight, &L.bias, &L.a_src, &L.a_dst, &L.edge_weight,
                      &L.a_edge})
      freeze(*w);
  for (Weight* w : {&conv1_w_, &conv1_b_, &conv2_w_, &conv2_b_, &fc1_w_,
                    &fc1_b_, &fc2_w_, &fc2_b_})
    freeze(*w);
}

void FrozenModel::validate(const seal::SubgraphSample& sample) const {
  ag::check(sample.node_feat.defined() && sample.node_feat.rank() == 2 &&
                sample.node_feat.dim(0) == sample.num_nodes &&
                sample.node_feat.dim(1) == config_.node_feature_dim,
            "FrozenModel: sample feature shape mismatch");
  ag::check(sample.src.size() == sample.dst.size(),
            "FrozenModel: edge array size mismatch");
  // The forward indexes arena rows with these ids, unchecked.
  const std::int64_t n = sample.num_nodes;
  for (std::size_t i = 0; i < sample.src.size(); ++i)
    ag::check(sample.src[i] >= 0 && sample.src[i] < n &&
                  sample.dst[i] >= 0 && sample.dst[i] < n,
              "FrozenModel: edge index out of range");
  if (edge_dim_ > 0)
    ag::check(sample.edge_attr.defined() && sample.edge_attr.rank() == 2 &&
                  sample.edge_attr.dim(0) ==
                      static_cast<std::int64_t>(sample.src.size()) &&
                  sample.edge_attr.dim(1) == edge_dim_,
              "FrozenModel: edge attribute shape mismatch");
}

template <typename T>
const T* FrozenModel::read(const Weight& w, Arena& arena) {
  if constexpr (std::is_same_v<T, float>) {
    if (!w.exact.defined()) {
      float* buf = arena.alloc<float>(static_cast<std::size_t>(w.quant.n));
      w.quant.decode(buf);
      return buf;
    }
  }
  return w.exact.data_as<T>().data();
}

template <typename T>
const T* FrozenModel::forward_impl(const seal::SubgraphSample& sample,
                                   Arena& arena) const {
  namespace fwd = ag::fwd;
  namespace kern = ag::kern;
  const bool attention = config_.kind == models::GnnKind::kAMDGCNN;

  validate(sample);
  const std::int64_t n = sample.num_nodes;
  const auto e_in = static_cast<std::int64_t>(sample.src.size());
  const std::int64_t e_all = e_in + n;  // self-loops appended per layer

  arena.reset();

  // ---- Pass-lifetime buffers (edges, casts, layer outputs) ----------------
  auto* s = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  auto* d = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  std::copy(sample.src.begin(), sample.src.end(), s);
  std::copy(sample.dst.begin(), sample.dst.end(), d);
  for (std::int64_t i = 0; i < n; ++i) {
    s[e_in + i] = i;
    d[e_in + i] = i;
  }

  // GCN normalisation — identical across layers (pure function of the edge
  // list), so computed once here instead of per layer.  Degrees and
  // coefficients stay f64 exactly as in GCNConv; the cast to T happens per
  // scaled row, matching ops::scale_rows.
  double* coef = nullptr;
  if (!attention) {
    double* deg = arena.alloc<double>(static_cast<std::size_t>(n));
    std::fill(deg, deg + n, 0.0);
    for (std::int64_t e = 0; e < e_all; ++e) deg[d[e]] += 1.0;
    coef = arena.alloc<double>(static_cast<std::size_t>(e_all));
    for (std::int64_t e = 0; e < e_all; ++e)
      coef[e] = 1.0 / std::sqrt(deg[s[e]] * deg[d[e]]);
  }

  const T* h = features_at_width<T>(sample.node_feat, arena);
  const T* eattr =
      edge_dim_ > 0 ? features_at_width<T>(sample.edge_attr, arena) : nullptr;

  const std::size_t num_mp = mp_.size();
  auto** outs = arena.alloc<const T*>(num_mp);

  // ---- Message passing ----------------------------------------------------
  for (std::size_t l = 0; l < num_mp; ++l) {
    const MpLayer& L = mp_[l];
    const std::int64_t w = L.out;
    T* out_l = arena.alloc<T>(static_cast<std::size_t>(n * w));
    const Arena::Mark scratch = arena.mark();

    if (attention) {
      // The GAT layer body the trainer's ops::gat_conv runs (fwd_kernels.h).
      const fwd::GatLayer<T> layer{
          read<T>(L.weight, arena),
          read<T>(L.a_src, arena),
          read<T>(L.a_dst, arena),
          edge_dim_ > 0 ? read<T>(L.edge_weight, arena) : nullptr,
          edge_dim_ > 0 ? read<T>(L.a_edge, arena) : nullptr,
          read<T>(L.bias, arena),
          L.in,
          w,
          L.heads,
          edge_dim_,
          static_cast<T>(kSlope)};
      const auto sz = [](std::int64_t v) {
        return static_cast<std::size_t>(v);
      };
      const fwd::GatBuffers<T> bufs{
          arena.alloc<T>(sz(n * w)),
          edge_dim_ > 0 ? arena.alloc<T>(sz(e_in * w)) : nullptr,
          arena.alloc<T>(sz(e_all * L.heads)),
          arena.alloc<T>(sz(e_all * L.heads)),
          arena.alloc<T>(sz(fwd::gat_scratch_size(n, e_all, L.heads))),
          arena.alloc<double>(sz(n * L.heads))};
      fwd::gat_layer_fwd(layer, h, eattr, s, d, n, e_in, bufs, out_l);
    } else {
      // x · W — zeroed accumulator + mm_add, exactly ops::matmul.
      T* xw = arena.alloc<T>(static_cast<std::size_t>(n * w));
      std::fill(xw, xw + n * w, T(0));
      kern::mm_add(h, read<T>(L.weight, arena), xw, n, L.in, w);
      // gather_rows + scale_rows fused: one copy-multiply per element, the
      // same single FP multiply the two-op training path performs.
      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T cf = static_cast<T>(coef[r]);
        const T* row = xw + s[r] * w;
        for (std::int64_t c = 0; c < w; ++c) msg[r * w + c] = row[c] * cf;
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, read<T>(L.bias, arena),
                                out_l);
    }

    fwd::tanh_inplace(out_l, n * w);
    arena.rewind(scratch);  // drop everything but the layer output
    outs[l] = out_l;
    h = out_l;
  }

  // ---- Concat + SortPooling -----------------------------------------------
  const std::int64_t C = total_channels_;
  T* z = arena.alloc<T>(static_cast<std::size_t>(n * C));
  std::int64_t col_off = 0;
  for (std::size_t l = 0; l < num_mp; ++l) {
    const std::int64_t w = mp_[l].out;
    for (std::int64_t r = 0; r < n; ++r)
      std::copy_n(outs[l] + r * w, w, z + r * C + col_off);
    col_off += w;
  }

  const std::int64_t k = config_.sort_k;
  auto* perm = arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  const std::int64_t keep = fwd::sort_perm_topk(z, n, C, k, perm);
  T* pooled = arena.alloc<T>(static_cast<std::size_t>(k * C));
  std::fill(pooled, pooled + k * C, T(0));
  for (std::int64_t r = 0; r < keep; ++r)
    std::copy_n(z + perm[r] * C, C, pooled + r * C);

  // ---- Conv read-out ------------------------------------------------------
  // The reshape to [1, k*C] is a view of the same row-major buffer; conv1
  // reads `pooled` directly.
  T* c1 = arena.alloc<T>(static_cast<std::size_t>(config_.conv1_channels * k));
  const auto conv_scratch = [&](std::int64_t cin, std::int64_t len,
                                std::int64_t cout, std::int64_t kernel,
                                std::int64_t stride) {
    return arena.alloc<T>(static_cast<std::size_t>(
        fwd::conv1d_scratch_size<T>(cin, len, cout, kernel, stride)));
  };
  {
    const Arena::Mark m = arena.mark();
    fwd::conv1d_fwd(pooled, read<T>(conv1_w_, arena),
                    read<T>(conv1_b_, arena), c1, 1, k * C,
                    config_.conv1_channels, C, C,
                    conv_scratch(1, k * C, config_.conv1_channels, C, C));
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.conv1_channels * k; ++i)
    c1[i] = c1[i] > T(0) ? c1[i] : T(0);

  const std::int64_t lp = (k - 2) / 2 + 1;
  T* p1 = arena.alloc<T>(static_cast<std::size_t>(config_.conv1_channels * lp));
  auto* argmax =
      arena.alloc<std::int64_t>(static_cast<std::size_t>(config_.conv1_channels * lp));
  fwd::max_pool1d_fwd(c1, p1, argmax, config_.conv1_channels, k, 2, 2);

  T* c2 = arena.alloc<T>(
      static_cast<std::size_t>(config_.conv2_channels * conv_out_len_));
  {
    const Arena::Mark m = arena.mark();
    fwd::conv1d_fwd(p1, read<T>(conv2_w_, arena), read<T>(conv2_b_, arena),
                    c2, config_.conv1_channels, lp, config_.conv2_channels,
                    config_.conv2_kernel, 1,
                    conv_scratch(config_.conv1_channels, lp,
                                 config_.conv2_channels, config_.conv2_kernel,
                                 1));
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.conv2_channels * conv_out_len_; ++i)
    c2[i] = c2[i] > T(0) ? c2[i] : T(0);

  // ---- Classifier ---------------------------------------------------------
  // Flatten is again a view; eval-mode dropout multiplies by exactly 1.0
  // (bitwise identity), so it is elided.
  T* hidden = arena.alloc<T>(static_cast<std::size_t>(config_.dense_dim));
  {
    const Arena::Mark m = arena.mark();
    fwd::linear_fwd(c2, read<T>(fc1_w_, arena), read<T>(fc1_b_, arena),
                    hidden, 1, config_.conv2_channels * conv_out_len_,
                    config_.dense_dim);
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.dense_dim; ++i)
    hidden[i] = hidden[i] > T(0) ? hidden[i] : T(0);

  T* logits = arena.alloc<T>(static_cast<std::size_t>(config_.num_classes));
  {
    const Arena::Mark m = arena.mark();
    fwd::linear_fwd(hidden, read<T>(fc2_w_, arena), read<T>(fc2_b_, arena),
                    logits, 1, config_.dense_dim, config_.num_classes);
    arena.rewind(m);
  }
  return logits;
}

template <typename T>
void FrozenModel::run(const seal::SubgraphSample& sample, Arena& arena,
                      bool proba, double* out) const {
  const std::int64_t c = config_.num_classes;
  const T* logits = forward_impl<T>(sample, arena);
  const T* result = logits;
  if (proba) {
    T* pr = arena.alloc<T>(static_cast<std::size_t>(c));
    ag::fwd::softmax_rows_fwd(logits, pr, 1, c);
    result = pr;
  }
  // Same widening Trainer::predict_proba applies via Tensor::item().
  for (std::int64_t j = 0; j < c; ++j) out[j] = static_cast<double>(result[j]);
}

void FrozenModel::forward_logits(const seal::SubgraphSample& sample,
                                 Arena& arena, double* out) const {
  // Quantized weights decode to f32, so a quantized model computes at f32
  // whatever its source dtype.
  if (config_.dtype == ag::Dtype::f32 || quant_ != ag::quant::Scheme::kNone)
    run<float>(sample, arena, /*proba=*/false, out);
  else
    run<double>(sample, arena, /*proba=*/false, out);
}

void FrozenModel::predict_proba(const seal::SubgraphSample& sample,
                                Arena& arena, double* out) const {
  if (config_.dtype == ag::Dtype::f32 || quant_ != ag::quant::Scheme::kNone)
    run<float>(sample, arena, /*proba=*/true, out);
  else
    run<double>(sample, arena, /*proba=*/true, out);
}

void FrozenModel::warm_up(Arena& arena, std::int64_t max_nodes,
                          std::int64_t max_edges) const {
  seal::SubgraphSample sample;
  sample.num_nodes = std::max<std::int64_t>(max_nodes, 2);
  sample.node_feat = ag::Tensor::zeros(
      {sample.num_nodes, config_.node_feature_dim}, config_.dtype);
  const std::int64_t e = std::max<std::int64_t>(max_edges, 0);
  sample.src.resize(static_cast<std::size_t>(e));
  sample.dst.resize(static_cast<std::size_t>(e));
  for (std::int64_t i = 0; i < e; ++i) {
    sample.src[i] = i % sample.num_nodes;
    sample.dst[i] = (i + 1) % sample.num_nodes;
  }
  if (edge_dim_ > 0)
    sample.edge_attr = ag::Tensor::zeros({e, edge_dim_}, config_.dtype);

  std::vector<double> sink(static_cast<std::size_t>(config_.num_classes));
  forward_logits(sample, arena, sink.data());
  arena.reset();  // coalesce now so real queries start on one block
}

}  // namespace amdgcnn::infer
