// Dynamic-graph benchmark (DESIGN.md §2.5): cost of the incremental-update
// path against full rebuilds, serving throughput under interleaved
// update/query workloads, and overlay depth vs compaction cadence.
//
// Three sections, all on the Cora simulator:
//   * update_vs_rebuild — per-update cost of insert_edge/delete_edge through
//     the DeltaOverlay vs re-running the full add_edge + finalize build
//     after every update (the only option before the overlay existed).  The
//     asserted floor: overlay updates must be >= 10x faster per update at
//     cora-sim scale.  Steady-state sits orders of magnitude above that —
//     an overlay update is O(degree) on first touch of an endpoint and O(1)
//     amortised after, while a rebuild is O(V + E) — so the floor only
//     guards against the overlay degenerating into a rebuild.
//   * serving — classification throughput of a 1-worker serve::Server (and
//     its hull-validated score LRU) while the graph mutates underneath it,
//     swept over the update rate (mutations per query batch).  Reports the
//     ServerStats score-cache hit/invalidation counters so the throughput
//     numbers can be read against cache effectiveness: at rate 0 repeat
//     batches are pure hits; higher rates dirty more hop-hulls and push the
//     path back toward cold extraction.
//   * compaction — one long update stream compacted every K updates
//     (including never), reporting updates/sec with the compaction cost
//     folded in plus the peak overlay depth, i.e. the memory-vs-throughput
//     trade the cadence knob buys.
//
// The serving section asserts that served probabilities stay bit-identical
// to cold predict_links at every sampled rate (the coherence contract of
// the score cache under mutation).
//
// Output goes to stdout as a table and to a JSON file (default
// BENCH_dynamic.json; override with --out PATH).  --smoke shrinks the
// workload so the binary doubles as a CTest smoke test.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/link_predictor.h"
#include "graph/graph_types.h"
#include "models/trainer.h"
#include "serve/server.h"
#include "util/rng.h"

namespace {

using namespace amdgcnn;

// ---- Seeded valid-update stream (bench-local; the test suite has its own
// generator in tests/test_util.h, which cannot be included here because it
// pulls in gtest).
struct UpdateStream {
  graph::KnowledgeGraph* g;
  util::Rng rng;
  explicit UpdateStream(graph::KnowledgeGraph& graph, std::uint64_t seed)
      : g(&graph), rng(seed) {}

  /// One random valid mutation: ~half deletions of existing edges, the rest
  /// inserts of fresh pairs (retrying until a valid move is found).
  void step() {
    const auto n = static_cast<std::uint64_t>(g->num_nodes());
    for (;;) {
      const auto a = static_cast<graph::NodeId>(rng.uniform_int(n));
      const auto b = static_cast<graph::NodeId>(rng.uniform_int(n));
      if (a == b) continue;
      const bool present = g->has_edge(a, b);
      if (present && rng.uniform() < 0.7) {
        g->delete_edge(a, b);
        return;
      }
      if (!present) {
        g->insert_edge(a, b,
                       static_cast<std::int32_t>(rng.uniform_int(
                           static_cast<std::uint64_t>(g->num_edge_types()))));
        return;
      }
    }
  }
};

/// The full static rebuild an update would have cost before the overlay:
/// copy every node and live edge into a fresh graph and finalize.
graph::KnowledgeGraph full_rebuild(const graph::KnowledgeGraph& g) {
  graph::KnowledgeGraph out(g.num_node_types(), g.num_edge_types(),
                            g.edge_attr_dim(), g.node_feat_dim());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes());
       ++v) {
    out.add_node(g.node_type(v));
    if (g.node_feat_dim() > 0) out.set_node_features(v, g.node_features(v));
  }
  if (g.edge_attr_dim() > 0)
    for (std::int32_t t = 0; t < g.num_edge_types(); ++t)
      out.set_edge_type_attr(t, g.edge_type_attr(t));
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges());
       ++e) {
    if (g.edge_removed(e)) continue;
    const auto& rec = g.edge(e);
    out.add_edge(rec.src, rec.dst, rec.type);
  }
  out.finalize();
  return out;
}

struct ServingRow {
  int updates_per_batch = 0;
  double links_per_sec = 0.0;
  double hit_rate = 0.0;  // hits / (hits + misses)
  std::int64_t invalidated = 0;
  double seconds = 0.0;
};

struct CompactionRow {
  std::int64_t cadence = 0;  // 0 = never compact
  double updates_per_sec = 0.0;
  std::int64_t peak_overlay_depth = 0;
  double seconds = 0.0;
};

void write_json(const std::string& path, const std::string& dataset,
                bool smoke, std::int64_t num_updates, double overlay_us,
                double rebuild_us, double speedup,
                const std::vector<ServingRow>& serving,
                const std::vector<CompactionRow>& compaction) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  char buf[512];
  out << "{\n  \"bench\": \"dynamic_graph\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"dataset\": \"" << dataset << "\",\n"
      << "  \"rebuild_gate\": {\"min_speedup\": 10.0},\n";
  std::snprintf(buf, sizeof(buf),
                "  \"update_vs_rebuild\": {\"updates\": %lld, "
                "\"overlay_us_per_update\": %.3f, "
                "\"rebuild_us_per_update\": %.3f, \"speedup\": %.1f},\n",
                static_cast<long long>(num_updates), overlay_us, rebuild_us,
                speedup);
  out << buf << "  \"serving\": [\n";
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const auto& r = serving[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"updates_per_batch\": %d, \"links_per_sec\": %.1f, "
                  "\"cache_hit_rate\": %.3f, \"invalidated\": %lld, "
                  "\"seconds\": %.4f}%s\n",
                  r.updates_per_batch, r.links_per_sec, r.hit_rate,
                  static_cast<long long>(r.invalidated), r.seconds,
                  i + 1 < serving.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"compaction\": [\n";
  for (std::size_t i = 0; i < compaction.size(); ++i) {
    const auto& r = compaction[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"compact_every\": %lld, \"updates_per_sec\": %.1f, "
                  "\"peak_overlay_depth\": %lld, \"seconds\": %.4f}%s\n",
                  static_cast<long long>(r.cadence), r.updates_per_sec,
                  static_cast<long long>(r.peak_overlay_depth), r.seconds,
                  i + 1 < compaction.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dynamic.json";
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

  datasets::CoraSimOptions cora;
  cora.num_pos_links = smoke ? 60 : 300;
  const auto data = datasets::make_cora_sim(cora);

  // ---- Section 1: overlay update vs full rebuild ---------------------------
  const std::int64_t num_updates = smoke ? 200 : 2000;
  const std::int64_t num_rebuilds = smoke ? 20 : 100;
  double overlay_us = 0.0, rebuild_us = 0.0;
  {
    auto g = data.graph;
    UpdateStream stream(g, 11);
    util::Stopwatch watch;
    for (std::int64_t i = 0; i < num_updates; ++i) stream.step();
    overlay_us = watch.seconds() * 1e6 / static_cast<double>(num_updates);

    // Rebuild cost per update: each mutation forces a full static rebuild
    // (measured on fewer iterations — it is the slow side by construction).
    util::Stopwatch rw;
    for (std::int64_t i = 0; i < num_rebuilds; ++i) {
      stream.step();
      auto fresh = full_rebuild(g);
      if (fresh.num_edges() != g.num_live_edges()) {
        std::fprintf(stderr, "FATAL: rebuild dropped edges\n");
        return 1;
      }
    }
    rebuild_us = rw.seconds() * 1e6 / static_cast<double>(num_rebuilds);
  }
  const double speedup = overlay_us > 0.0 ? rebuild_us / overlay_us : 0.0;
  std::printf("update_vs_rebuild: overlay %.3fus/update, rebuild "
              "%.3fus/update, speedup %.1fx\n",
              overlay_us, rebuild_us, speedup);
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "FATAL: overlay updates are only %.1fx faster than full "
                 "rebuilds (asserted floor: >= 10x)\n",
                 speedup);
    return 1;
  }

  // ---- Trained predictor for the serving section ---------------------------
  const auto seal_ds = core::prepare_seal_dataset(
      data, /*max_subgraph_nodes=*/32, /*max_drnl_label=*/16,
      seal::default_build_threads(), ag::Dtype::f64);
  models::ModelConfig mc;
  mc.kind = models::GnnKind::kAMDGCNN;
  mc.node_feature_dim = seal_ds.node_feature_dim;
  mc.edge_attr_dim = seal_ds.edge_attr_dim;
  mc.num_classes = seal_ds.num_classes;
  mc.hidden_dim = 16;
  mc.sort_k = 10;
  util::Rng rng(17);
  auto model = models::make_link_gnn(mc, rng);
  models::TrainConfig tc;
  tc.seed = 17;
  models::Trainer trainer(*model, tc);
  (void)trainer.train_epoch(seal_ds.train);

  core::LinkPredictor::Options po;
  po.dataset.extract.num_hops = 2;
  po.dataset.extract.mode = data.neighborhood_mode;
  po.dataset.extract.max_nodes = 32;
  po.dataset.features.max_drnl_label = 16;
  po.warm_nodes = 32;
  po.warm_edges = 32 * 8;

  // ---- Section 2: serving throughput vs update rate ------------------------
  // Each round applies `rate` mutations and then classifies one batch drawn
  // round-robin from a small pool of candidate batches; the pool re-queries
  // the same links so the cache's hit path matters.
  const int rounds = smoke ? 10 : 60;
  const std::size_t batch = smoke ? 8 : 24;
  const std::size_t pool = 3;  // distinct batches cycled round-robin
  std::vector<ServingRow> serving;
  for (const int rate : {0, 1, 4, 16}) {
    auto g = data.graph;
    UpdateStream stream(g, 23);
    const core::LinkPredictor predictor(*model, po);
    serve::ServerOptions so;
    so.num_workers = 1;
    serve::Server server(predictor, g, so);

    // Candidate batches from the held-out links (wraps if the pool runs
    // past the end).
    std::vector<std::vector<seal::LinkExample>> batches(pool);
    for (std::size_t p = 0; p < pool; ++p)
      for (std::size_t j = 0; j < batch; ++j)
        batches[p].push_back(
            data.test_links[(p * batch + j) % data.test_links.size()]);

    ServingRow row;
    row.updates_per_batch = rate;
    std::int64_t served = 0;
    for (int r = 0; r < rounds; ++r) {
      for (int u = 0; u < rate; ++u) stream.step();
      const auto& links = batches[static_cast<std::size_t>(r) % pool];
      util::Stopwatch watch;  // only the served call is in the clock
      const auto got = server.score_batch(links);
      row.seconds += watch.seconds();
      served += static_cast<std::int64_t>(links.size());
      // Coherence gate, sampled so the bench stays affordable; the cold
      // pass runs outside the clock.
      if (r % 5 == 0 &&
          got.proba != predictor.predict_links(g, links).proba) {
        std::fprintf(stderr,
                     "FATAL: served scores diverge from cold path at "
                     "rate %d round %d\n",
                     rate, r);
        return 1;
      }
    }
    row.links_per_sec =
        row.seconds > 0.0 ? static_cast<double>(served) / row.seconds : 0.0;
    const auto st = server.stats();
    row.hit_rate = st.score_hits + st.score_misses > 0
                       ? static_cast<double>(st.score_hits) /
                             static_cast<double>(st.score_hits +
                                                 st.score_misses)
                       : 0.0;
    row.invalidated = st.score_invalidated;
    serving.push_back(row);
    std::printf("serving: rate=%2d  %8.1f links/sec  hit_rate=%.3f  "
                "invalidated=%lld\n",
                rate, row.links_per_sec, row.hit_rate,
                static_cast<long long>(row.invalidated));
  }

  // ---- Section 3: overlay depth vs compaction cadence ----------------------
  const std::int64_t stream_len = smoke ? 400 : 4000;
  std::vector<CompactionRow> compaction;
  for (const std::int64_t cadence : {std::int64_t{0}, std::int64_t{64},
                                     std::int64_t{256}}) {
    auto g = data.graph;
    UpdateStream stream(g, 31);
    CompactionRow row;
    row.cadence = cadence;
    util::Stopwatch watch;
    for (std::int64_t i = 1; i <= stream_len; ++i) {
      stream.step();
      row.peak_overlay_depth =
          std::max(row.peak_overlay_depth, g.overlay_depth());
      if (cadence > 0 && i % cadence == 0) g.compact();
    }
    row.seconds = watch.seconds();
    row.updates_per_sec =
        row.seconds > 0.0 ? static_cast<double>(stream_len) / row.seconds
                          : 0.0;
    compaction.push_back(row);
    std::printf("compaction: every %4lld  %8.1f updates/sec  "
                "peak_depth=%lld\n",
                static_cast<long long>(cadence), row.updates_per_sec,
                static_cast<long long>(row.peak_overlay_depth));
  }

  write_json(out_path, data.name, smoke, num_updates, overlay_us, rebuild_us,
             speedup, serving, compaction);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
