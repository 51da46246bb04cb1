// Serving-runtime benchmark (DESIGN.md §2.8): batched warm-pool serving
// through serve::Server against the per-request predict_links path it
// replaces, on shared-endpoint candidate workloads.
//
// Workload shape: a small set of hot source nodes, each with a pool of
// candidate destinations; every request fans the hot sources against pool
// slices, and the same (source, destination) pairs recur across requests —
// the recommendation/monitoring pattern the serving runtime is built for
// (hot candidate sets re-scored as the stream cycles).  The baseline scores
// every request from scratch with a fresh-eyes predict_links call (the
// pre-§2.8 serving story: no cross-request state beyond the warm arena);
// the Server amortises via its three cache layers — in-batch dedup +
// cross-query score LRU skip repeat forwards entirely, endpoint frontiers
// and node rows cut the cold-link cost.
//
// Asserted gates (the binary exits non-zero on violation):
//   * speedup (full mode only) — batched warm-pool serving must clear >= 2x
//     the baseline links/sec on BOTH shapes: cora-sim (trained f32 model)
//     and the scale tier (make_scale_kg graph, randomly initialised model —
//     throughput only, accuracy is meaningless there).
//   * work saved (both modes) — the Server's counters must reconcile,
//     scored == links - deduped - score_hits, and dedup or the score cache
//     must have skipped at least one forward.  Unlike a wall-clock ratio,
//     this holds on a loaded host, so it is what the --smoke CTest gates.
//   * bit-identity — every Server response must be byte-identical to the
//     serial cold predict_links answer for the exact schemes (f32 and f64
//     storage), and byte-identical ACROSS WORKER COUNTS for every scheme
//     including the relaxed-numerics f16/q8 quantized forwards.
//
// Output: a table on stdout and BENCH_serving.json (override with --out
// PATH); rows carry per-request p50/p99 latency for both modes plus the
// Server cache hit rates.  --smoke shrinks the workload for CTest.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/link_predictor.h"
#include "datasets/kg_generator.h"
#include "models/trainer.h"
#include "serve/server.h"
#include "util/rng.h"

namespace {

using namespace amdgcnn;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

double rate(std::int64_t hits, std::int64_t misses) {
  const auto total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

bool identical(const core::LinkPredictions& a, const core::LinkPredictions& b) {
  return a.proba.size() == b.proba.size() && a.labels == b.labels &&
         std::memcmp(a.proba.data(), b.proba.data(),
                     a.proba.size() * sizeof(double)) == 0;
}

/// Hot-pool candidate stream: `hot.size()` sources, each with a `pool`-wide
/// destination set; request r, slot j scores hot[(r + j) % H] against its
/// pool entry (r * 7 + j) % P.  Within one request all pairs are distinct;
/// across requests the same pairs recur — total/distinct is the repeat
/// factor the cross-query cache can harvest.
std::vector<std::vector<seal::LinkExample>> hot_pool_requests(
    const graph::KnowledgeGraph& g, const std::vector<graph::NodeId>& hot,
    std::size_t pool, std::size_t per_request, std::size_t requests,
    std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  std::vector<std::vector<graph::NodeId>> pools(hot.size());
  for (std::size_t h = 0; h < hot.size(); ++h)
    while (pools[h].size() < pool) {
      const auto b = static_cast<graph::NodeId>(rng.uniform_int(n));
      if (b != hot[h]) pools[h].push_back(b);
    }
  std::vector<std::vector<seal::LinkExample>> out(requests);
  for (std::size_t r = 0; r < requests; ++r)
    for (std::size_t j = 0; j < per_request; ++j) {
      const auto h = (r + j) % hot.size();
      out[r].push_back({hot[h], pools[h][(r * 7 + j) % pool], 0});
    }
  return out;
}

struct ShapeRow {
  std::string shape;
  std::int64_t links = 0;     // total across all requests
  std::int64_t distinct = 0;  // unique (a, b) pairs in the stream
  double base_links_per_sec = 0.0;
  double base_p50_ms = 0.0, base_p99_ms = 0.0;
  double serve_links_per_sec = 0.0;
  double serve_p50_ms = 0.0, serve_p99_ms = 0.0;
  double speedup = 0.0;
  double score_hit_rate = 0.0;
  double endpoint_hit_rate = 0.0;
  double row_hit_rate = 0.0;
};

std::int64_t count_distinct(
    const std::vector<std::vector<seal::LinkExample>>& requests) {
  std::vector<std::uint64_t> keys;
  for (const auto& r : requests)
    for (const auto& l : r)
      keys.push_back((static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(l.a))
                      << 32) |
                     static_cast<std::uint32_t>(l.b));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return static_cast<std::int64_t>(keys.size());
}

/// Time both modes over one request stream and enforce the identity and
/// work-saved gates, plus the speedup gate unless `smoke`.  Returns false on
/// a gate violation (after printing it).
bool run_shape(const char* shape, const core::LinkPredictor& predictor,
               const graph::KnowledgeGraph& g,
               const std::vector<std::vector<seal::LinkExample>>& requests,
               bool smoke, ShapeRow& row) {
  row.shape = shape;
  row.distinct = count_distinct(requests);
  std::vector<core::LinkPredictions> base_results;
  base_results.reserve(requests.size());

  // Baseline: one fresh-eyes predict_links call per request (warm arena,
  // per-thread frontier reuse — everything the pre-serving path already had,
  // but no cross-request state).
  std::vector<double> base_ms;
  double base_seconds = 0.0;
  for (const auto& links : requests) {
    util::Stopwatch watch;
    base_results.push_back(predictor.predict_links(g, links));
    const double s = watch.seconds();
    base_seconds += s;
    base_ms.push_back(s * 1e3);
    row.links += static_cast<std::int64_t>(links.size());
  }

  // Batched warm-pool serving over the SAME stream.
  serve::Server server(predictor, g, {});
  std::vector<double> serve_ms;
  double serve_seconds = 0.0;
  std::vector<core::LinkPredictions> serve_results;
  serve_results.reserve(requests.size());
  for (const auto& links : requests) {
    util::Stopwatch watch;
    serve_results.push_back(server.score_batch(links));
    const double s = watch.seconds();
    serve_seconds += s;
    serve_ms.push_back(s * 1e3);
  }

  // Identity gate (outside the clock): every response byte-equal to the
  // serial cold path, and to a second server with a different worker count.
  serve::ServerOptions multi;
  multi.num_workers = 2;
  serve::Server server2(predictor, g, multi);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (!identical(serve_results[r], base_results[r])) {
      std::fprintf(stderr,
                   "FATAL: %s request %zu: server response diverges from the "
                   "serial cold path\n",
                   shape, r);
      return false;
    }
    if (!identical(server2.score_batch(requests[r]), base_results[r])) {
      std::fprintf(stderr,
                   "FATAL: %s request %zu: response depends on the worker "
                   "count\n",
                   shape, r);
      return false;
    }
  }

  const auto total = static_cast<double>(row.links);
  row.base_links_per_sec = base_seconds > 0.0 ? total / base_seconds : 0.0;
  row.base_p50_ms = percentile(base_ms, 0.50);
  row.base_p99_ms = percentile(base_ms, 0.99);
  row.serve_links_per_sec = serve_seconds > 0.0 ? total / serve_seconds : 0.0;
  row.serve_p50_ms = percentile(serve_ms, 0.50);
  row.serve_p99_ms = percentile(serve_ms, 0.99);
  row.speedup = row.base_links_per_sec > 0.0
                    ? row.serve_links_per_sec / row.base_links_per_sec
                    : 0.0;
  const auto s = server.stats();
  row.score_hit_rate = rate(s.score_hits, s.score_misses);
  row.endpoint_hit_rate = rate(s.endpoint_hits, s.endpoint_misses);
  row.row_hit_rate = rate(s.row_hits, s.row_misses);

  std::printf("%-10s links=%5lld distinct=%4lld  baseline %8.1f l/s "
              "(p50 %6.2fms p99 %6.2fms)  serve %8.1f l/s (p50 %6.2fms "
              "p99 %6.2fms)  speedup %.2fx  score-hit %.3f\n",
              shape, static_cast<long long>(row.links),
              static_cast<long long>(row.distinct), row.base_links_per_sec,
              row.base_p50_ms, row.base_p99_ms, row.serve_links_per_sec,
              row.serve_p50_ms, row.serve_p99_ms, row.speedup,
              row.score_hit_rate);
  if (s.links != row.links || s.scored != s.links - s.deduped - s.score_hits ||
      s.deduped + s.score_hits < 1) {
    std::fprintf(stderr,
                 "FATAL: %s: server counters links=%lld deduped=%lld "
                 "score_hits=%lld scored=%lld do not reconcile with %lld "
                 "links, or no forward was saved\n",
                 shape, static_cast<long long>(s.links),
                 static_cast<long long>(s.deduped),
                 static_cast<long long>(s.score_hits),
                 static_cast<long long>(s.scored),
                 static_cast<long long>(row.links));
    return false;
  }
  if (!smoke && row.speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: %s: batched warm-pool serving is only %.2fx the "
                 "per-request baseline (asserted floor: >= 2x)\n",
                 shape, row.speedup);
    return false;
  }
  return true;
}

void write_json(const std::string& path, bool smoke,
                const std::vector<ShapeRow>& shapes, bool identity_exact,
                bool identity_quant) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  char buf[640];
  out << "{\n  \"bench\": \"serving_throughput\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"gate\": {\"min_speedup\": 2.0},\n"
      << "  \"identity\": {\"exact_vs_cold\": "
      << (identity_exact ? "true" : "false")
      << ", \"quant_worker_invariant\": "
      << (identity_quant ? "true" : "false") << "},\n"
      << "  \"shapes\": [\n";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto& r = shapes[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"shape\": \"%s\", \"links\": %lld, \"distinct\": %lld, "
        "\"baseline_links_per_sec\": %.1f, \"baseline_p50_ms\": %.3f, "
        "\"baseline_p99_ms\": %.3f, \"serve_links_per_sec\": %.1f, "
        "\"serve_p50_ms\": %.3f, \"serve_p99_ms\": %.3f, "
        "\"speedup\": %.2f, \"score_hit_rate\": %.3f, "
        "\"endpoint_hit_rate\": %.3f, \"row_hit_rate\": %.3f}%s\n",
        r.shape.c_str(), static_cast<long long>(r.links),
        static_cast<long long>(r.distinct), r.base_links_per_sec,
        r.base_p50_ms, r.base_p99_ms, r.serve_links_per_sec, r.serve_p50_ms,
        r.serve_p99_ms, r.speedup, r.score_hit_rate, r.endpoint_hit_rate,
        r.row_hit_rate, i + 1 < shapes.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out requires a PATH argument\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "error: unknown argument '%s'\nusage: %s [--smoke] [--out "
                   "PATH]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  std::vector<ShapeRow> shapes;

  // ---- Shape 1: cora-sim, trained models (f32 gated; f64 identity) --------
  datasets::CoraSimOptions cora;
  cora.num_pos_links = smoke ? 60 : 300;
  const auto data = datasets::make_cora_sim(cora);

  auto train_model = [&](ag::Dtype dtype) {
    const auto seal_ds = core::prepare_seal_dataset(
        data, /*max_subgraph_nodes=*/32, /*max_drnl_label=*/16,
        seal::default_build_threads(), dtype);
    models::ModelConfig mc;
    mc.kind = models::GnnKind::kAMDGCNN;
    mc.node_feature_dim = seal_ds.node_feature_dim;
    mc.edge_attr_dim = seal_ds.edge_attr_dim;
    mc.num_classes = seal_ds.num_classes;
    mc.hidden_dim = 16;
    mc.sort_k = 10;
    mc.dtype = dtype;
    util::Rng rng(17);
    auto model = models::make_link_gnn(mc, rng);
    models::TrainConfig tc;
    tc.seed = 17;
    tc.dtype = dtype;
    models::Trainer trainer(*model, tc);
    (void)trainer.train_epoch(seal_ds.train);
    return model;
  };
  const auto model_f32 = train_model(ag::Dtype::f32);
  const auto model_f64 = train_model(ag::Dtype::f64);

  auto cora_options = [&](ag::Dtype dtype) {
    core::LinkPredictor::Options po;
    po.dataset.extract.num_hops = 2;
    po.dataset.extract.mode = data.neighborhood_mode;
    po.dataset.extract.max_nodes = 32;
    po.dataset.features.max_drnl_label = 16;
    po.dataset.features.dtype = dtype;
    po.warm_nodes = 32;
    po.warm_edges = 32 * 8;
    return po;
  };

  // Hot sources drawn from the held-out links so they sit inside the
  // connected component the model was trained on.
  std::vector<graph::NodeId> cora_hot;
  for (const auto& l : data.test_links) {
    if (std::find(cora_hot.begin(), cora_hot.end(), l.a) == cora_hot.end())
      cora_hot.push_back(l.a);
    if (cora_hot.size() == (smoke ? 3u : 4u)) break;
  }
  const auto cora_requests = hot_pool_requests(
      data.graph, cora_hot, /*pool=*/smoke ? 8 : 32,
      /*per_request=*/smoke ? 12 : 32, /*requests=*/smoke ? 12 : 24,
      /*seed=*/101);

  {
    const core::LinkPredictor predictor(*model_f32, cora_options(ag::Dtype::f32));
    ShapeRow row;
    if (!run_shape("cora-sim", predictor, data.graph, cora_requests, smoke,
                   row))
      return 1;
    shapes.push_back(row);
  }

  // f64 identity: a smaller stream, identity-gated but not throughput-gated
  // (the gate above already covers the serving dtype; this pins the exact
  // f64 path to the same bytes-equal contract).
  bool identity_exact = true;
  {
    const core::LinkPredictor predictor(*model_f64, cora_options(ag::Dtype::f64));
    const auto f64_requests = hot_pool_requests(
        data.graph, cora_hot, /*pool=*/6, /*per_request=*/8, /*requests=*/4,
        /*seed=*/103);
    serve::ServerOptions so;
    so.num_workers = 2;
    serve::Server server(predictor, data.graph, so);
    for (const auto& links : f64_requests)
      if (!identical(server.score_batch(links),
                     predictor.predict_links(data.graph, links))) {
        std::fprintf(stderr,
                     "FATAL: f64 server response diverges from the serial "
                     "cold path\n");
        return 1;
      }
  }

  // Quantized schemes: relaxed numerics, so the contract is worker-count
  // invariance (same bytes from 1 worker and 3), not equality with exact.
  bool identity_quant = true;
  for (const auto scheme : {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
    auto po = cora_options(ag::Dtype::f32);
    po.quantize = scheme;
    const core::LinkPredictor predictor(*model_f32, po);
    serve::ServerOptions one;
    one.num_workers = 1;
    serve::ServerOptions three;
    three.num_workers = 3;
    serve::Server s1(predictor, data.graph, one);
    serve::Server s3(predictor, data.graph, three);
    const auto quant_requests = hot_pool_requests(
        data.graph, cora_hot, /*pool=*/6, /*per_request=*/8, /*requests=*/4,
        /*seed=*/107);
    for (const auto& links : quant_requests)
      if (!identical(s1.score_batch(links), s3.score_batch(links))) {
        std::fprintf(stderr,
                     "FATAL: %s server responses depend on the worker count\n",
                     ag::quant::scheme_name(scheme));
        return 1;
      }
  }

  // ---- Shape 2: scale tier, randomly initialised model ---------------------
  {
    datasets::ScaleKGOptions o;
    o.num_nodes = smoke ? 20'000 : 200'000;
    o.seed = 7;
    const auto g = datasets::make_scale_kg(o);

    core::LinkPredictor::Options po;
    po.dataset.extract.num_hops = 2;
    po.dataset.extract.max_nodes = 32;
    po.dataset.features.max_drnl_label = 16;
    po.dataset.features.dtype = ag::Dtype::f32;
    po.warm_nodes = 32;
    po.warm_edges = 32 * 8;

    models::ModelConfig mc;
    mc.kind = models::GnnKind::kAMDGCNN;
    mc.node_feature_dim = seal::node_feature_dim(g, po.dataset.features);
    mc.edge_attr_dim = g.edge_attr_dim();
    mc.num_classes = 2;
    mc.hidden_dim = 16;
    mc.sort_k = 10;
    mc.dtype = ag::Dtype::f32;
    util::Rng rng(19);
    const auto model = models::make_link_gnn(mc, rng);
    const core::LinkPredictor predictor(*model, po);

    // Hot sources away from the low-id hubs (mid-range ids have the typical
    // degree shape; hubs would blow every subgraph to max_nodes).
    std::vector<graph::NodeId> hot;
    for (std::size_t h = 0; h < (smoke ? 3u : 4u); ++h)
      hot.push_back(static_cast<graph::NodeId>(g.num_nodes() / 2 +
                                               static_cast<std::int64_t>(h) *
                                                   997));
    const auto requests = hot_pool_requests(
        g, hot, /*pool=*/smoke ? 8 : 32, /*per_request=*/smoke ? 12 : 32,
        /*requests=*/smoke ? 12 : 24, /*seed=*/113);
    ShapeRow row;
    if (!run_shape("scale-kg", predictor, g, requests, smoke, row)) return 1;
    shapes.push_back(row);
  }

  write_json(out_path, smoke, shapes, identity_exact, identity_quant);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
