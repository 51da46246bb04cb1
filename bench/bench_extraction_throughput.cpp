// Throughput benchmark for the SEAL dataset-build pipeline (DESIGN.md §2.2).
//
// For each dataset it measures end-to-end links/sec of build_samples under
//   * the legacy serial loop            (num_threads = 0),
//   * the deterministic parallel path with 1 worker, and
//   * the parallel path with all hardware workers (on a multi-core host);
// the parallel rows must be bit-identical to the serial build — the
// benchmark asserts this over every tensor byte, edge list and label.
// Alongside, it times the three pipeline stages in isolation on the serial
// path: enclosing-subgraph extraction, DRNL labeling, and feature-tensor
// construction (the feature stage re-runs DRNL internally, so the three
// stage times slightly exceed the end-to-end time).
//
// The scale tier (DESIGN.md §2.6) then runs the same extraction on
// 10^5- and 10^6-node streaming-generated graphs, comparing the legacy
// clear-per-link kernel against the epoch kernel (gated at >= 5x at a
// million nodes) and the frontier-reuse cache on a shared-endpoint candidate
// batch, plus snapshot save / mmap-load timings (mmap load gated at >= 20x
// over the generator build).  The gates are asserted in full mode only;
// --smoke shrinks the tier to one small graph and checks bytes, not speed.
//
// Output goes to stdout as a table and to a JSON file (default
// BENCH_extraction.json in the current directory; override with --out PATH).
// --smoke shrinks everything so the binary doubles as a CTest smoke test.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datasets/kg_generator.h"
#include "graph/subgraph.h"
#include "seal/drnl.h"
#include "util/rng.h"

namespace {

using namespace amdgcnn;

struct RunResult {
  std::string mode;  // "serial" or "parallel"
  int threads = 0;   // SealDatasetOptions::num_threads
  double links_per_sec = 0.0;
  double seconds = 0.0;
};

struct StageResult {
  std::string stage;
  double seconds = 0.0;
  double links_per_sec = 0.0;
};

struct DatasetResult {
  std::string dataset;
  std::size_t num_links = 0;
  std::vector<RunResult> runs;
  std::vector<StageResult> stages;  // serial per-stage breakdown
  ag::PoolStats i32_pool;           // int32 scratch pool after the runs
};

seal::SealDatasetOptions build_options(const datasets::LinkDataset& data) {
  seal::SealDatasetOptions o;
  o.extract.num_hops = 2;
  o.extract.mode = data.neighborhood_mode;
  o.extract.max_nodes = 32;
  o.features.max_drnl_label = 24;
  return o;
}

bool samples_identical(const std::vector<seal::SubgraphSample>& a,
                       const std::vector<seal::SubgraphSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].num_nodes != b[i].num_nodes || a[i].label != b[i].label ||
        a[i].src != b[i].src || a[i].dst != b[i].dst)
      return false;
    if (a[i].node_feat.shape() != b[i].node_feat.shape() ||
        a[i].node_feat.data() != b[i].node_feat.data())
      return false;
    if (a[i].edge_attr.defined() != b[i].edge_attr.defined()) return false;
    if (a[i].edge_attr.defined() &&
        (a[i].edge_attr.shape() != b[i].edge_attr.shape() ||
         a[i].edge_attr.data() != b[i].edge_attr.data()))
      return false;
  }
  return true;
}

RunResult time_build(const graph::KnowledgeGraph& g,
                     const std::vector<seal::LinkExample>& links,
                     seal::SealDatasetOptions options, std::int64_t threads,
                     int reps, std::vector<seal::SubgraphSample>* keep) {
  options.num_threads = threads;
  seal::build_samples(g, links, options);  // warmup: fills the scratch pool
  util::Stopwatch watch;
  std::vector<seal::SubgraphSample> samples;
  for (int r = 0; r < reps; ++r)
    samples = seal::build_samples(g, links, options);
  RunResult result;
  result.mode = threads == 0 ? "serial" : "parallel";
  result.threads = static_cast<int>(threads);
  result.seconds = watch.seconds();
  result.links_per_sec =
      static_cast<double>(links.size()) * reps / result.seconds;
  if (keep != nullptr) *keep = std::move(samples);
  return result;
}

/// Serial per-stage timings: extraction alone, DRNL over the cached
/// subgraphs, and feature-tensor construction over the cached subgraphs.
std::vector<StageResult> time_stages(const graph::KnowledgeGraph& g,
                                     const std::vector<seal::LinkExample>& links,
                                     const seal::SealDatasetOptions& options,
                                     int reps) {
  std::vector<StageResult> stages;
  const double n = static_cast<double>(links.size()) * reps;

  std::vector<graph::EnclosingSubgraph> subs;
  subs.reserve(links.size());
  {
    util::Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      subs.clear();
      for (const auto& link : links)
        subs.push_back(graph::extract_enclosing_subgraph(g, link.a, link.b,
                                                         options.extract));
    }
    const double s = watch.seconds();
    stages.push_back({"extract", s, n / s});
  }
  {
    util::Stopwatch watch;
    for (int r = 0; r < reps; ++r)
      for (const auto& sub : subs) seal::drnl_labels(sub);
    const double s = watch.seconds();
    stages.push_back({"drnl", s, n / s});
  }
  {
    util::Stopwatch watch;
    for (int r = 0; r < reps; ++r)
      for (std::size_t i = 0; i < subs.size(); ++i)
        seal::build_sample(g, subs[i], links[i].label, options.features);
    const double s = watch.seconds();
    stages.push_back({"features_f64", s, n / s});
  }
  {
    // Same stage with f32 storage (FeatureOptions::dtype) — records the
    // tensor-construction side of the f32-vs-f64 bandwidth comparison that
    // bench_training_throughput makes for the training hot path.
    auto f32_features = options.features;
    f32_features.dtype = ag::Dtype::f32;
    util::Stopwatch watch;
    for (int r = 0; r < reps; ++r)
      for (std::size_t i = 0; i < subs.size(); ++i)
        seal::build_sample(g, subs[i], links[i].label, f32_features);
    const double s = watch.seconds();
    stages.push_back({"features_f32", s, n / s});
  }
  return stages;
}

// ---- Scale tier (DESIGN.md §2.6) --------------------------------------------

struct ScaleResult {
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  std::size_t num_links = 0;
  double build_seconds = 0.0;      // streaming generator + finalize()
  double save_seconds = 0.0;       // save_snapshot
  double load_map_seconds = 0.0;   // load_snapshot(kMap)
  double load_copy_seconds = 0.0;  // load_snapshot(kCopy)
  double clear_links_per_sec = 0.0;     // legacy clear-per-link kernel
  double epoch_links_per_sec = 0.0;     // epoch kernel (default)
  double frontier_links_per_sec = 0.0;  // epoch + reuse on a candidate batch
  double epoch_speedup = 0.0;           // epoch vs clear
  double load_speedup = 0.0;            // build vs mmap load
};

bool subgraphs_equal(const graph::EnclosingSubgraph& x,
                     const graph::EnclosingSubgraph& y) {
  if (x.nodes != y.nodes || x.dist_a != y.dist_a || x.dist_b != y.dist_b ||
      x.edges.size() != y.edges.size())
    return false;
  for (std::size_t i = 0; i < x.edges.size(); ++i)
    if (x.edges[i].src != y.edges[i].src ||
        x.edges[i].dst != y.edges[i].dst ||
        x.edges[i].orig != y.edges[i].orig)
      return false;
  return true;
}

/// Links/sec of extraction over `links`, repeating whole passes until the
/// clock has accumulated enough signal (>= 3 passes and >= 0.25 s).
double time_extraction(const graph::KnowledgeGraph& g,
                       const std::vector<seal::LinkExample>& links,
                       const graph::ExtractOptions& opt) {
  graph::extract_enclosing_subgraph(g, links[0].a, links[0].b, opt);  // warmup
  util::Stopwatch watch;
  int passes = 0;
  do {
    for (const auto& l : links)
      graph::extract_enclosing_subgraph(g, l.a, l.b, opt);
    ++passes;
  } while (passes < 3 || watch.seconds() < 0.25);
  return static_cast<double>(links.size()) * passes / watch.seconds();
}

ScaleResult run_scale_tier(std::int64_t num_nodes, bool smoke) {
  datasets::ScaleKGOptions o;
  o.num_nodes = num_nodes;
  o.seed = 7;
  util::Stopwatch build_watch;
  const auto g = datasets::make_scale_kg(o);
  ScaleResult r;
  r.build_seconds = build_watch.seconds();
  r.num_nodes = g.num_nodes();
  r.num_edges = g.num_edges();

  // Snapshot round trip: save once, then time both load modes.  The byte-
  // exactness of the loaded graphs is covered by the scale test tier; here
  // only the cheap shape invariants are asserted.
  const std::string snap_path =
      "bench_scale_" + std::to_string(num_nodes) + ".snap";
  {
    util::Stopwatch w;
    g.save_snapshot(snap_path);
    r.save_seconds = w.seconds();
  }
  {
    util::Stopwatch w;
    const auto mapped = graph::KnowledgeGraph::load_snapshot(
        snap_path, graph::SnapshotLoadMode::kMap);
    r.load_map_seconds = w.seconds();
    if (mapped.num_nodes() != g.num_nodes() ||
        mapped.num_edges() != g.num_edges()) {
      std::fprintf(stderr, "FATAL: mapped snapshot shape mismatch\n");
      std::exit(1);
    }
  }
  {
    util::Stopwatch w;
    const auto copied = graph::KnowledgeGraph::load_snapshot(
        snap_path, graph::SnapshotLoadMode::kCopy);
    r.load_copy_seconds = w.seconds();
    if (copied.num_edges() != g.num_edges()) {
      std::fprintf(stderr, "FATAL: copied snapshot shape mismatch\n");
      std::exit(1);
    }
  }
  std::remove(snap_path.c_str());
  r.load_speedup = r.build_seconds / std::max(r.load_map_seconds, 1e-9);

  const auto links =
      datasets::sample_scale_links(g, smoke ? 24 : 40, /*seed=*/11);
  r.num_links = links.size();
  graph::ExtractOptions ex;
  ex.num_hops = 2;
  ex.max_nodes = 32;

  // Both kernels must produce identical subgraphs before their speeds mean
  // anything.
  for (const auto& l : links) {
    auto clear_opt = ex;
    clear_opt.clear_per_link = true;
    const auto a = graph::extract_enclosing_subgraph(g, l.a, l.b, clear_opt);
    const auto b = graph::extract_enclosing_subgraph(g, l.a, l.b, ex);
    if (!subgraphs_equal(a, b)) {
      std::fprintf(stderr,
                   "FATAL: epoch kernel differs from clear-per-link on "
                   "(%d, %d) at %lld nodes\n",
                   l.a, l.b, static_cast<long long>(num_nodes));
      std::exit(1);
    }
  }

  auto clear_opt = ex;
  clear_opt.clear_per_link = true;
  r.clear_links_per_sec = time_extraction(g, links, clear_opt);
  r.epoch_links_per_sec = time_extraction(g, links, ex);
  r.epoch_speedup = r.epoch_links_per_sec / r.clear_links_per_sec;

  // Serving-shaped candidate batch: one source fanned out against many
  // destinations — the frontier cache's hit case.
  std::vector<seal::LinkExample> batch;
  {
    util::Rng rng(23);
    const auto src = links[0].a;
    while (batch.size() < links.size()) {
      const auto v = static_cast<graph::NodeId>(
          rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes())));
      if (v != src) batch.push_back({src, v, 0});
    }
  }
  auto reuse_opt = ex;
  reuse_opt.reuse_frontiers = true;
  r.frontier_links_per_sec = time_extraction(g, batch, reuse_opt);
  return r;
}

void write_json(const std::string& path,
                const std::vector<DatasetResult>& datasets,
                const std::vector<ScaleResult>& scale, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"bench\": \"extraction_throughput\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"datasets\": [\n";
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const auto& ds = datasets[d];
    out << "    {\n      \"dataset\": \"" << ds.dataset << "\",\n"
        << "      \"num_links\": " << ds.num_links << ",\n"
        << "      \"runs\": [\n";
    for (std::size_t r = 0; r < ds.runs.size(); ++r) {
      const auto& run = ds.runs[r];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "        {\"mode\": \"%s\", \"threads\": %d, "
                    "\"links_per_sec\": %.1f, \"seconds\": %.4f}%s\n",
                    run.mode.c_str(), run.threads, run.links_per_sec,
                    run.seconds, r + 1 < ds.runs.size() ? "," : "");
      out << buf;
    }
    out << "      ],\n      \"serial_stages\": [\n";
    for (std::size_t s = 0; s < ds.stages.size(); ++s) {
      const auto& st = ds.stages[s];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "        {\"stage\": \"%s\", \"seconds\": %.4f, "
                    "\"links_per_sec\": %.1f}%s\n",
                    st.stage.c_str(), st.seconds, st.links_per_sec,
                    s + 1 < ds.stages.size() ? "," : "");
      out << buf;
    }
    const double acq =
        static_cast<double>(ds.i32_pool.hits + ds.i32_pool.misses);
    out << "      ],\n      \"i32_pool\": {"
        << "\"peak_in_use_bytes\": " << ds.i32_pool.peak_in_use_bytes
        << ", \"peak_pooled_bytes\": " << ds.i32_pool.peak_pooled_bytes
        << ", \"hit_rate\": "
        << (acq > 0.0 ? static_cast<double>(ds.i32_pool.hits) / acq : 0.0)
        << "}\n    }" << (d + 1 < datasets.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"scale_tier\": [\n";
  for (std::size_t s = 0; s < scale.size(); ++s) {
    const auto& sc = scale[s];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"num_nodes\": %lld, \"num_edges\": %lld, \"num_links\": %zu,\n"
        "     \"build_seconds\": %.4f, \"save_seconds\": %.4f, "
        "\"load_map_seconds\": %.6f, \"load_copy_seconds\": %.4f,\n"
        "     \"clear_links_per_sec\": %.1f, \"epoch_links_per_sec\": %.1f, "
        "\"frontier_links_per_sec\": %.1f,\n"
        "     \"epoch_speedup\": %.2f, \"load_speedup\": %.1f}%s\n",
        static_cast<long long>(sc.num_nodes),
        static_cast<long long>(sc.num_edges), sc.num_links, sc.build_seconds,
        sc.save_seconds, sc.load_map_seconds, sc.load_copy_seconds,
        sc.clear_links_per_sec, sc.epoch_links_per_sec,
        sc.frontier_links_per_sec, sc.epoch_speedup, sc.load_speedup,
        s + 1 < scale.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_extraction.json";
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
                   "error: unknown argument '%s'\nusage: %s [--smoke] [--out PATH]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  const int reps = smoke ? 1 : 3;
  const auto max_threads = seal::default_build_threads();

  std::vector<datasets::LinkDataset> data;
  {
    datasets::CoraSimOptions o;
    o.num_pos_links = smoke ? 60 : 500;
    data.push_back(datasets::make_cora_sim(o));
  }
  {
    datasets::WordNetSimOptions o;
    o.num_nodes = smoke ? 500 : 2000;
    o.num_train = smoke ? 150 : 1300;
    o.num_test = smoke ? 40 : 300;
    data.push_back(datasets::make_wordnet_sim(o));
  }

  std::vector<DatasetResult> results;
  for (const auto& dset : data) {
    // Train + test links together: the build path is the same and more
    // links mean steadier timings.
    std::vector<seal::LinkExample> links = dset.train_links;
    links.insert(links.end(), dset.test_links.begin(), dset.test_links.end());
    const auto options = build_options(dset);

    DatasetResult dr;
    dr.dataset = dset.name;
    dr.num_links = links.size();

    std::vector<seal::SubgraphSample> serial_samples, one_thread_samples;
    dr.runs.push_back(time_build(dset.graph, links, options, /*threads=*/0,
                                 reps, &serial_samples));
    dr.runs.push_back(time_build(dset.graph, links, options, /*threads=*/1,
                                 reps, &one_thread_samples));
    if (!samples_identical(serial_samples, one_thread_samples)) {
      std::fprintf(stderr,
                   "FATAL: 1-worker build differs from the serial build on %s\n",
                   dset.name.c_str());
      return 1;
    }
    if (max_threads > 1) {
      std::vector<seal::SubgraphSample> parallel_samples;
      dr.runs.push_back(time_build(dset.graph, links, options, max_threads,
                                   reps, &parallel_samples));
      // Determinism contract: N workers must reproduce the serial bytes.
      if (!samples_identical(serial_samples, parallel_samples)) {
        std::fprintf(stderr,
                     "FATAL: %d-worker build differs from the serial build "
                     "on %s\n",
                     static_cast<int>(max_threads), dset.name.c_str());
        return 1;
      }
    }
    dr.stages = time_stages(dset.graph, links, options, reps);
    dr.i32_pool = ag::detail::i32_buffer_pool().stats();

    for (const auto& run : dr.runs)
      std::printf("%-12s %-8s threads=%d  %8.1f links/sec  (%.4fs)\n",
                  dr.dataset.c_str(), run.mode.c_str(), run.threads,
                  run.links_per_sec, run.seconds);
    for (const auto& st : dr.stages)
      std::printf("%-12s stage %-9s %8.1f links/sec  (%.4fs)\n",
                  dr.dataset.c_str(), st.stage.c_str(), st.links_per_sec,
                  st.seconds);
    results.push_back(std::move(dr));
  }

  // Scale tier: smoke uses one small graph (byte checks only); full runs
  // 10^5 and 10^6 nodes and asserts the DESIGN.md §2.6 gates.
  std::vector<ScaleResult> scale_results;
  const std::vector<std::int64_t> tiers =
      smoke ? std::vector<std::int64_t>{20'000}
            : std::vector<std::int64_t>{100'000, 1'000'000};
  for (const auto tier : tiers) {
    auto sc = run_scale_tier(tier, smoke);
    std::printf(
        "scale %-9lld build=%.2fs save=%.2fs mmap=%.5fs (%.0fx) "
        "clear=%.1f epoch=%.1f (%.1fx) frontier=%.1f links/sec\n",
        static_cast<long long>(sc.num_nodes), sc.build_seconds,
        sc.save_seconds, sc.load_map_seconds, sc.load_speedup,
        sc.clear_links_per_sec, sc.epoch_links_per_sec, sc.epoch_speedup,
        sc.frontier_links_per_sec);
    if (!smoke) {
      if (sc.load_speedup < 20.0) {
        std::fprintf(stderr,
                     "FATAL: mmap load only %.1fx faster than the generator "
                     "build at %lld nodes (gate: 20x)\n",
                     sc.load_speedup, static_cast<long long>(sc.num_nodes));
        return 1;
      }
      if (sc.num_nodes >= 1'000'000 && sc.epoch_speedup < 5.0) {
        std::fprintf(stderr,
                     "FATAL: epoch kernel only %.2fx over clear-per-link at "
                     "%lld nodes (gate: 5x)\n",
                     sc.epoch_speedup, static_cast<long long>(sc.num_nodes));
        return 1;
      }
    }
    scale_results.push_back(sc);
  }

  write_json(out_path, results, scale_results, smoke);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
