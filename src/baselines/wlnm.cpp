#include "baselines/wlnm.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "metrics/classification.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "util/worker_pool.h"

namespace amdgcnn::baselines {

std::vector<std::int32_t> palette_wl_order(
    const graph::EnclosingSubgraph& sub, std::int32_t iterations) {
  const auto n = static_cast<std::size_t>(sub.num_nodes());
  std::vector<std::vector<std::int32_t>> adj(n);
  for (const auto& e : sub.edges) {
    adj[static_cast<std::size_t>(e.src)].push_back(e.dst);
    adj[static_cast<std::size_t>(e.dst)].push_back(e.src);
  }

  // Seed colors: distance sum to the targets (unreachable counts large),
  // so the targets themselves start with the smallest color.
  std::vector<std::int64_t> color(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto da = sub.dist_a[i] < 0 ? 64 : sub.dist_a[i];
    const auto db = sub.dist_b[i] < 0 ? 64 : sub.dist_b[i];
    color[i] = da + db;
  }
  color[graph::EnclosingSubgraph::kTargetA] = 0;
  color[graph::EnclosingSubgraph::kTargetB] = 0;

  // WL refinement: signature = (own color, sorted neighbor colors),
  // recolored by sorted signature rank each round.
  for (std::int32_t it = 0; it < iterations; ++it) {
    std::vector<std::pair<std::vector<std::int64_t>, std::size_t>> sig(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::int64_t> s;
      s.reserve(adj[i].size() + 1);
      s.push_back(color[i]);
      std::vector<std::int64_t> nbr;
      nbr.reserve(adj[i].size());
      for (auto v : adj[i]) nbr.push_back(color[static_cast<std::size_t>(v)]);
      std::sort(nbr.begin(), nbr.end());
      s.insert(s.end(), nbr.begin(), nbr.end());
      sig[i] = {std::move(s), i};
    }
    std::map<std::vector<std::int64_t>, std::int64_t> rank;
    for (const auto& [s, i] : sig) rank.emplace(s, 0);
    std::int64_t next = 0;
    for (auto& [s, r] : rank) r = next++;
    for (const auto& [s, i] : sig) color[i] = rank[s];
  }

  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), std::int32_t{0});
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    // Targets always lead; then ascending final color; index breaks ties.
    const bool ta = a <= 1, tb = b <= 1;
    if (ta != tb) return ta;
    if (ta && tb) return a < b;
    if (color[static_cast<std::size_t>(a)] !=
        color[static_cast<std::size_t>(b)])
      return color[static_cast<std::size_t>(a)] <
             color[static_cast<std::size_t>(b)];
    return a < b;
  });
  return order;
}

std::vector<double> wlnm_encode(const graph::EnclosingSubgraph& sub,
                                std::int64_t vertex_budget,
                                std::int32_t wl_iterations) {
  if (vertex_budget < 2)
    throw std::invalid_argument("wlnm_encode: vertex budget must be >= 2");
  const auto order = palette_wl_order(sub, wl_iterations);
  const auto k = static_cast<std::size_t>(vertex_budget);
  const auto kept = std::min(order.size(), k);

  // Rank of each kept local vertex within the encoding.
  std::vector<std::int32_t> rank(sub.nodes.size(), -1);
  for (std::size_t i = 0; i < kept; ++i)
    rank[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);

  std::vector<double> enc(k * (k - 1) / 2, 0.0);
  auto upper_index = [&](std::int32_t i, std::int32_t j) {
    if (i > j) std::swap(i, j);
    // Row-major upper triangle without the diagonal.
    return static_cast<std::size_t>(i) * (2 * k - static_cast<std::size_t>(i) - 3) / 2 +
           static_cast<std::size_t>(j) - 1;
  };
  for (const auto& e : sub.edges) {
    const auto ri = rank[static_cast<std::size_t>(e.src)];
    const auto rj = rank[static_cast<std::size_t>(e.dst)];
    if (ri < 0 || rj < 0) continue;
    enc[upper_index(ri, rj)] = 1.0;
  }
  // Zero the target-pair entry (it is the label being predicted).
  enc[upper_index(0, 1)] = 0.0;
  return enc;
}

Wlnm::Wlnm(std::int64_t num_classes, const WlnmOptions& options)
    : num_classes_(num_classes),
      options_(options),
      input_dim_(options.vertex_budget * (options.vertex_budget - 1) / 2),
      rng_(options.seed),
      mlp_({input_dim_, options.hidden_dim, options.hidden_dim / 2,
            num_classes},
           options.dropout, rng_) {
  if (num_classes < 2)
    throw std::invalid_argument("Wlnm: need >= 2 classes");
}

std::vector<double> Wlnm::encode_links(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links) const {
  graph::ExtractOptions eo;
  eo.num_hops = options_.num_hops;
  eo.max_nodes = 4 * options_.vertex_budget;  // WL sees a little context
  std::vector<double> x(links.size() * static_cast<std::size_t>(input_dim_));
  util::parallel_for(
      "wlnm_encode", util::hardware_threads(),
      static_cast<std::int64_t>(links.size()), [&](std::int64_t i) {
        const auto sub =
            graph::extract_enclosing_subgraph(g, links[i].a, links[i].b, eo);
        const auto enc = wlnm_encode(sub, options_.vertex_budget,
                                     options_.wl_iterations);
        std::copy(enc.begin(), enc.end(), x.begin() + i * input_dim_);
      });
  return x;
}

void Wlnm::fit(const graph::KnowledgeGraph& g,
               const std::vector<seal::LinkExample>& train_links) {
  if (train_links.empty())
    throw std::invalid_argument("Wlnm::fit: no training links");
  const auto x = encode_links(g, train_links);
  const auto n = static_cast<std::int64_t>(train_links.size());
  auto xs = ag::Tensor::from_data({n, input_dim_}, x);
  std::vector<std::int64_t> targets(train_links.size());
  for (std::size_t i = 0; i < train_links.size(); ++i)
    targets[i] = train_links[i].label;

  ag::Adam opt(mlp_.parameters(), options_.learning_rate);
  mlp_.set_training(true);
  for (std::int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    opt.zero_grad();
    auto loss = ag::ops::cross_entropy(mlp_.forward(xs, rng_), targets);
    loss.backward();
    opt.step();
  }
}

std::vector<double> Wlnm::predict_proba(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links) const {
  const auto x = encode_links(g, links);
  auto xs = ag::Tensor::from_data(
      {static_cast<std::int64_t>(links.size()), input_dim_}, x);
  mlp_.set_training(false);
  auto probs = ag::ops::softmax_rows(mlp_.forward(xs, rng_));
  mlp_.set_training(true);
  return probs.data();
}

double Wlnm::evaluate_auc(const graph::KnowledgeGraph& g,
                          const std::vector<seal::LinkExample>& links) const {
  const auto probs = predict_proba(g, links);
  std::vector<std::int32_t> labels(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) labels[i] = links[i].label;
  return metrics::evaluate_multiclass(probs, num_classes_, labels).macro_auc;
}

}  // namespace amdgcnn::baselines
