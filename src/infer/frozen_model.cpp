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

FrozenModel::FrozenModel(const models::LinkGNN& model)
    : FrozenModel(model, ag::quant::Scheme::kNone) {}

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
      layer.weight = reader.take({layer.in, layer.out}, "gat.weight");
      layer.a_src = reader.take({1, layer.out}, "gat.a_src");
      layer.a_dst = reader.take({1, layer.out}, "gat.a_dst");
      if (edge_dim_ > 0) {
        layer.edge_weight =
            reader.take({edge_dim_, layer.out}, "gat.edge_weight");
        layer.a_edge = reader.take({1, layer.out}, "gat.a_edge");
      }
      layer.bias = reader.take({1, layer.out}, "gat.bias");
    } else {
      layer.out = last ? 1 : config_.hidden_dim;
      layer.weight = reader.take({layer.in, layer.out}, "gcn.weight");
      layer.bias = reader.take({1, layer.out}, "gcn.bias");
    }
    in = layer.out;
    mp_.push_back(std::move(layer));
  }

  conv1_w_ = reader.take({config_.conv1_channels, total_channels_}, "conv1.weight");
  conv1_b_ = reader.take({config_.conv1_channels}, "conv1.bias");
  conv2_w_ = reader.take(
      {config_.conv2_channels, config_.conv1_channels * config_.conv2_kernel},
      "conv2.weight");
  conv2_b_ = reader.take({config_.conv2_channels}, "conv2.bias");
  fc1_w_ = reader.take({config_.conv2_channels * conv_out_len_, config_.dense_dim},
                       "fc1.weight");
  fc1_b_ = reader.take({1, config_.dense_dim}, "fc1.bias");
  fc2_w_ = reader.take({config_.dense_dim, config_.num_classes}, "fc2.weight");
  fc2_b_ = reader.take({1, config_.num_classes}, "fc2.bias");

  for (const auto& p : params)
    weight_bytes_ += static_cast<std::size_t>(p.numel()) *
                     ag::dtype_size(p.dtype());

  quant_ = scheme;
  if (quant_ == ag::quant::Scheme::kNone) return;

  // Quantize-on-freeze: re-encode every validated tensor, then RELEASE the
  // exact handles — the quantized payload is the only resident copy (the
  // shrink gate measures exactly this), and the caller's model can drop its
  // storage.
  namespace q = ag::quant;
  const auto take = [&](ag::Tensor& t) {
    q::QuantizedTensor qt = q::quantize_tensor(t, quant_);
    t = ag::Tensor();
    return qt;
  };
  qmp_.reserve(mp_.size());
  for (auto& L : mp_) {
    QuantMpLayer ql;
    ql.weight = take(L.weight);
    ql.bias = take(L.bias);
    if (attention) {
      ql.a_src = take(L.a_src);
      ql.a_dst = take(L.a_dst);
      if (edge_dim_ > 0) {
        ql.edge_weight = take(L.edge_weight);
        ql.a_edge = take(L.a_edge);
      }
    }
    qmp_.push_back(std::move(ql));
  }
  qconv1_w_ = take(conv1_w_);
  qconv1_b_ = take(conv1_b_);
  qconv2_w_ = take(conv2_w_);
  qconv2_b_ = take(conv2_b_);
  qfc1_w_ = take(fc1_w_);
  qfc1_b_ = take(fc1_b_);
  qfc2_w_ = take(fc2_w_);
  qfc2_b_ = take(fc2_b_);

  weight_bytes_ = 0;
  for (const auto& ql : qmp_)
    weight_bytes_ += ql.weight.resident_bytes() + ql.bias.resident_bytes() +
                     ql.a_src.resident_bytes() + ql.a_dst.resident_bytes() +
                     ql.edge_weight.resident_bytes() +
                     ql.a_edge.resident_bytes();
  for (const auto* qt : {&qconv1_w_, &qconv1_b_, &qconv2_w_, &qconv2_b_,
                         &qfc1_w_, &qfc1_b_, &qfc2_w_, &qfc2_b_})
    weight_bytes_ += qt->resident_bytes();
}

void FrozenModel::validate(const seal::SubgraphSample& sample) const {
  ag::check(sample.node_feat.defined() && sample.node_feat.rank() == 2 &&
                sample.node_feat.dim(0) == sample.num_nodes &&
                sample.node_feat.dim(1) == config_.node_feature_dim,
            "FrozenModel: sample feature shape mismatch");
  ag::check(sample.src.size() == sample.dst.size(),
            "FrozenModel: edge array size mismatch");
  // Both forwards index arena rows with these ids, unchecked.
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

namespace {
/// Decode one quantized tensor into arena scratch.
inline const float* decode_to(const ag::quant::QuantizedTensor& qt,
                              Arena& arena) {
  float* buf = arena.alloc<float>(static_cast<std::size_t>(qt.n));
  qt.decode(buf);
  return buf;
}
}  // namespace

// f32-compute forward over quantized weights.  Structure mirrors
// forward_impl<float>; the differences, all covered by the relaxed
// numerics contract (deterministic per scheme, NOT bit-identical to f32):
//   * each weight tensor is decoded into arena scratch inside the stage's
//     mark/rewind scope, so at most one stage's decoded weights are live
//     at a time (resident weights stay quantized);
//   * tanh and the attention softmax run the polynomial fast_exp/fast_tanh
//     kernels with f32 accumulation (fwd_kernels.h relaxed section).  The
//     exact f32 forward's tanh is vectorized as well (fwd::tanh_inplace),
//     so this path measures only ~1.2x the exact one.
const float* FrozenModel::forward_quant(const seal::SubgraphSample& sample,
                                        Arena& arena) const {
  namespace fwd = ag::fwd;
  namespace kern = ag::kern;
  using T = float;
  const bool attention = config_.kind == models::GnnKind::kAMDGCNN;

  validate(sample);
  const std::int64_t n = sample.num_nodes;
  const auto e_in = static_cast<std::int64_t>(sample.src.size());
  const std::int64_t e_all = e_in + n;

  arena.reset();

  auto* s = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  auto* d = arena.alloc<std::int64_t>(static_cast<std::size_t>(e_all));
  std::copy(sample.src.begin(), sample.src.end(), s);
  std::copy(sample.dst.begin(), sample.dst.end(), d);
  for (std::int64_t i = 0; i < n; ++i) {
    s[e_in + i] = i;
    d[e_in + i] = i;
  }

  float* coef = nullptr;  // f32 is enough off the exact path
  if (!attention) {
    float* deg = arena.alloc<float>(static_cast<std::size_t>(n));
    std::fill(deg, deg + n, 0.0f);
    for (std::int64_t e = 0; e < e_all; ++e) deg[d[e]] += 1.0f;
    coef = arena.alloc<float>(static_cast<std::size_t>(e_all));
    for (std::int64_t e = 0; e < e_all; ++e)
      coef[e] = 1.0f / std::sqrt(deg[s[e]] * deg[d[e]]);
  }

  const T* h = features_at_width<T>(sample.node_feat, arena);
  const T* eattr =
      edge_dim_ > 0 ? features_at_width<T>(sample.edge_attr, arena) : nullptr;

  const std::size_t num_mp = mp_.size();
  auto** outs = arena.alloc<const T*>(num_mp);

  for (std::size_t l = 0; l < num_mp; ++l) {
    const MpLayer& L = mp_[l];
    const QuantMpLayer& Q = qmp_[l];
    const std::int64_t w = L.out;
    T* out_l = arena.alloc<T>(static_cast<std::size_t>(n * w));
    const Arena::Mark scratch = arena.mark();

    const T* wdec = decode_to(Q.weight, arena);
    T* xw = arena.alloc<T>(static_cast<std::size_t>(n * w));
    std::fill(xw, xw + n * w, T(0));
    kern::mm_add(h, wdec, xw, n, L.in, w);

    const T* bias = decode_to(Q.bias, arena);
    if (attention) {
      const std::int64_t heads = L.heads;
      const std::int64_t f = w / heads;
      const T* a_src = decode_to(Q.a_src, arena);
      const T* a_dst = decode_to(Q.a_dst, arena);
      T* nd_src = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      T* nd_dst = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      fwd::heads_dot_relaxed(xw, a_src, nd_src, n, w, heads);
      fwd::heads_dot_relaxed(xw, a_dst, nd_dst, n, w, heads);
      T* scores = arena.alloc<T>(static_cast<std::size_t>(e_all * heads));
      for (std::int64_t r = 0; r < e_all; ++r)
        for (std::int64_t hh = 0; hh < heads; ++hh)
          scores[r * heads + hh] =
              nd_src[s[r] * heads + hh] + nd_dst[d[r] * heads + hh];

      const T* ea = nullptr;
      if (edge_dim_ > 0) {
        const T* ew = decode_to(Q.edge_weight, arena);
        T* eam = arena.alloc<T>(static_cast<std::size_t>(e_in * w));
        std::fill(eam, eam + e_in * w, T(0));
        kern::mm_add(eattr, ew, eam, e_in, edge_dim_, w);
        ea = eam;
        const T* a_edge = decode_to(Q.a_edge, arena);
        T* s3 = arena.alloc<T>(static_cast<std::size_t>(e_in * heads));
        fwd::heads_dot_relaxed(eam, a_edge, s3, e_in, w, heads);
        for (std::int64_t i = 0; i < e_in * heads; ++i) scores[i] += s3[i];
      }

      const T slope = static_cast<T>(kSlope);
      for (std::int64_t i = 0; i < e_all * heads; ++i)
        scores[i] = scores[i] > T(0) ? scores[i] : slope * scores[i];

      T* alpha = arena.alloc<T>(static_cast<std::size_t>(e_all * heads));
      T* seg_max = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      T* seg_sum = arena.alloc<T>(static_cast<std::size_t>(n * heads));
      fwd::segment_softmax_relaxed(scores, d, alpha, seg_max, seg_sum, e_all,
                                   heads, n);

      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T* row = xw + s[r] * w;
        const T* erow = (ea != nullptr && r < e_in) ? ea + r * w : nullptr;
        for (std::int64_t hh = 0; hh < heads; ++hh) {
          const T sc = alpha[r * heads + hh];
          const std::int64_t base = hh * f;
          T* mrow = msg + r * w + base;
          if (erow != nullptr)
            for (std::int64_t c = 0; c < f; ++c)
              mrow[c] = (row[base + c] + erow[base + c]) * sc;
          else
            for (std::int64_t c = 0; c < f; ++c) mrow[c] = row[base + c] * sc;
        }
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, bias, out_l);
    } else {
      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T cf = coef[r];
        const T* row = xw + s[r] * w;
        for (std::int64_t c = 0; c < w; ++c) msg[r * w + c] = row[c] * cf;
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, bias, out_l);
    }

    for (std::int64_t i = 0; i < n * w; ++i) out_l[i] = fwd::fast_tanh(out_l[i]);
    arena.rewind(scratch);
    outs[l] = out_l;
    h = out_l;
  }

  // ---- Concat + SortPooling (weight-free, same as the exact path) ---------
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

  // ---- Conv read-out: decode each stage's weights inside its own scope ----
  T* c1 = arena.alloc<T>(static_cast<std::size_t>(config_.conv1_channels * k));
  {
    const Arena::Mark m = arena.mark();
    const T* w1 = decode_to(qconv1_w_, arena);
    const T* b1 = decode_to(qconv1_b_, arena);
    // conv1 has kernel == stride == C, so row oc of the output is exactly
    // dot(w1_oc, pooled_j) over j — both row-major over the same C.  The
    // relaxed contract lets this path reorder the accumulation, so use the
    // lane-accumulated row-dot kernel (~3x the strided conv kernel here).
    const std::int64_t c1n = config_.conv1_channels;
    fwd::dot_rows_relaxed(w1, pooled, c1, c1n, k, C);
    for (std::int64_t oc = 0; oc < c1n; ++oc)
      for (std::int64_t j = 0; j < k; ++j) c1[oc * k + j] += b1[oc];
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.conv1_channels * k; ++i)
    c1[i] = c1[i] > T(0) ? c1[i] : T(0);

  const std::int64_t lp = (k - 2) / 2 + 1;
  T* p1 = arena.alloc<T>(static_cast<std::size_t>(config_.conv1_channels * lp));
  auto* argmax = arena.alloc<std::int64_t>(
      static_cast<std::size_t>(config_.conv1_channels * lp));
  fwd::max_pool1d_fwd(c1, p1, argmax, config_.conv1_channels, k, 2, 2);

  T* c2 = arena.alloc<T>(
      static_cast<std::size_t>(config_.conv2_channels * conv_out_len_));
  {
    const Arena::Mark m = arena.mark();
    const T* w2 = decode_to(qconv2_w_, arena);
    const T* b2 = decode_to(qconv2_b_, arena);
    // conv2 as gather + row-dots: each output column j reads the patch
    // p1[ic][j..j+k2) for every channel; laying the patches out as rows
    // matches conv2's (cout x cin*k2) weight rows, and the row-dot kernel
    // keeps the short 11-column output vectorized.
    const std::int64_t k2 = config_.conv2_kernel;
    const std::int64_t c2n = config_.conv2_channels;
    const std::int64_t pk = config_.conv1_channels * k2;
    T* patches = arena.alloc<T>(static_cast<std::size_t>(conv_out_len_ * pk));
    for (std::int64_t j = 0; j < conv_out_len_; ++j)
      for (std::int64_t ic = 0; ic < config_.conv1_channels; ++ic)
        std::copy_n(p1 + ic * lp + j, k2, patches + j * pk + ic * k2);
    fwd::dot_rows_relaxed(w2, patches, c2, c2n, conv_out_len_, pk);
    for (std::int64_t oc = 0; oc < c2n; ++oc)
      for (std::int64_t j = 0; j < conv_out_len_; ++j)
        c2[oc * conv_out_len_ + j] += b2[oc];
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.conv2_channels * conv_out_len_; ++i)
    c2[i] = c2[i] > T(0) ? c2[i] : T(0);

  T* hidden = arena.alloc<T>(static_cast<std::size_t>(config_.dense_dim));
  {
    const Arena::Mark m = arena.mark();
    const T* w = decode_to(qfc1_w_, arena);  // the largest decode of the pass
    const T* b = decode_to(qfc1_b_, arena);
    fwd::vecmat_relaxed(c2, w, b, hidden,
                        config_.conv2_channels * conv_out_len_,
                        config_.dense_dim);
    arena.rewind(m);
  }
  for (std::int64_t i = 0; i < config_.dense_dim; ++i)
    hidden[i] = hidden[i] > T(0) ? hidden[i] : T(0);

  T* logits = arena.alloc<T>(static_cast<std::size_t>(config_.num_classes));
  {
    const Arena::Mark m = arena.mark();
    const T* w = decode_to(qfc2_w_, arena);
    const T* b = decode_to(qfc2_b_, arena);
    fwd::vecmat_relaxed(hidden, w, b, logits, config_.dense_dim,
                        config_.num_classes);
    arena.rewind(m);
  }
  return logits;
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
          L.weight.data_as<T>().data(),
          L.a_src.data_as<T>().data(),
          L.a_dst.data_as<T>().data(),
          edge_dim_ > 0 ? L.edge_weight.data_as<T>().data() : nullptr,
          edge_dim_ > 0 ? L.a_edge.data_as<T>().data() : nullptr,
          L.bias.data_as<T>().data(),
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
          arena.alloc<T>(sz(fwd::gat_scratch_size(n, e_all, w, L.heads))),
          arena.alloc<double>(sz(n * L.heads))};
      fwd::gat_layer_fwd(layer, h, eattr, s, d, n, e_in, bufs, out_l);
    } else {
      // x · W — zeroed accumulator + mm_add, exactly ops::matmul.
      T* xw = arena.alloc<T>(static_cast<std::size_t>(n * w));
      std::fill(xw, xw + n * w, T(0));
      kern::mm_add(h, L.weight.data_as<T>().data(), xw, n, L.in, w);
      // gather_rows + scale_rows fused: one copy-multiply per element, the
      // same single FP multiply the two-op training path performs.
      T* msg = arena.alloc<T>(static_cast<std::size_t>(e_all * w));
      for (std::int64_t r = 0; r < e_all; ++r) {
        const T cf = static_cast<T>(coef[r]);
        const T* row = xw + s[r] * w;
        for (std::int64_t c = 0; c < w; ++c) msg[r * w + c] = row[c] * cf;
      }
      fwd::scatter_add_bias_fwd(msg, d, e_all, n, w, L.bias.data_as<T>().data(),
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
  fwd::conv1d_fwd(pooled, conv1_w_.data_as<T>().data(),
                  conv1_b_.data_as<T>().data(), c1, 1, k * C,
                  config_.conv1_channels, C, C);
  for (std::int64_t i = 0; i < config_.conv1_channels * k; ++i)
    c1[i] = c1[i] > T(0) ? c1[i] : T(0);

  const std::int64_t lp = (k - 2) / 2 + 1;
  T* p1 = arena.alloc<T>(static_cast<std::size_t>(config_.conv1_channels * lp));
  auto* argmax =
      arena.alloc<std::int64_t>(static_cast<std::size_t>(config_.conv1_channels * lp));
  fwd::max_pool1d_fwd(c1, p1, argmax, config_.conv1_channels, k, 2, 2);

  T* c2 = arena.alloc<T>(
      static_cast<std::size_t>(config_.conv2_channels * conv_out_len_));
  fwd::conv1d_fwd(p1, conv2_w_.data_as<T>().data(),
                  conv2_b_.data_as<T>().data(), c2, config_.conv1_channels, lp,
                  config_.conv2_channels, config_.conv2_kernel, 1);
  for (std::int64_t i = 0; i < config_.conv2_channels * conv_out_len_; ++i)
    c2[i] = c2[i] > T(0) ? c2[i] : T(0);

  // ---- Classifier ---------------------------------------------------------
  // Flatten is again a view; eval-mode dropout multiplies by exactly 1.0
  // (bitwise identity), so it is elided.
  T* hidden = arena.alloc<T>(static_cast<std::size_t>(config_.dense_dim));
  fwd::linear_fwd(c2, fc1_w_.data_as<T>().data(), fc1_b_.data_as<T>().data(),
                  hidden, 1, config_.conv2_channels * conv_out_len_,
                  config_.dense_dim);
  for (std::int64_t i = 0; i < config_.dense_dim; ++i)
    hidden[i] = hidden[i] > T(0) ? hidden[i] : T(0);

  T* logits = arena.alloc<T>(static_cast<std::size_t>(config_.num_classes));
  fwd::linear_fwd(hidden, fc2_w_.data_as<T>().data(),
                  fc2_b_.data_as<T>().data(), logits, 1, config_.dense_dim,
                  config_.num_classes);
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
  if (quant_ != ag::quant::Scheme::kNone) {
    const float* logits = forward_quant(sample, arena);
    for (std::int64_t j = 0; j < config_.num_classes; ++j)
      out[j] = static_cast<double>(logits[j]);
    return;
  }
  if (config_.dtype == ag::Dtype::f32)
    run<float>(sample, arena, /*proba=*/false, out);
  else
    run<double>(sample, arena, /*proba=*/false, out);
}

void FrozenModel::predict_proba(const seal::SubgraphSample& sample,
                                Arena& arena, double* out) const {
  if (quant_ != ag::quant::Scheme::kNone) {
    const std::int64_t c = config_.num_classes;
    const float* logits = forward_quant(sample, arena);
    // Same exact f64-normalised softmax as the f32 path: the logits already
    // carry the relaxed numerics, the tiny [1, C] softmax costs nothing.
    float* pr = arena.alloc<float>(static_cast<std::size_t>(c));
    ag::fwd::softmax_rows_fwd(logits, pr, 1, c);
    for (std::int64_t j = 0; j < c; ++j) out[j] = static_cast<double>(pr[j]);
    return;
  }
  if (config_.dtype == ag::Dtype::f32)
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
