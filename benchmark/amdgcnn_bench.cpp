// amdgcnn_bench — the repository benchmark program (benchmark/README.md).
//
//   amdgcnn_bench --workload W --seed S --seconds N [--trace FILE] [--smoke]
//                 [--out FILE] [--scratch DIR]
//
// Runs one workload in this process and writes one result JSON object (to
// --out, else stdout): host metadata, the correctness verdict, attempted and
// failed operation counts, and every metric measured.  The program only calls
// the library's public API and times it from outside.  Every input is made
// from --seed.  With --trace the run also records spans around each call it
// makes, replays the per-link pipeline stage by stage, and writes the spans
// to FILE as Chrome trace-event JSON.  --smoke shrinks every input so the
// whole workload takes seconds.  Exit status: 0 when every correctness gate
// held, 1 otherwise, 2 on bad arguments.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/link_predictor.h"
#include "datasets/kg_generator.h"
#include "datasets/primekg_sim.h"
#include "graph/knowledge_graph.h"
#include "graph/subgraph.h"
#include "infer/arena.h"
#include "models/trainer.h"
#include "seal/dataset.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/rng.h"

#ifndef AMDGCNN_BENCH_COMPILER
#define AMDGCNN_BENCH_COMPILER "unknown"
#endif
#ifndef AMDGCNN_BENCH_BUILD_TYPE
#define AMDGCNN_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace amdgcnn;
using amdgcnn_bench::Clock;
using amdgcnn_bench::mean;
using amdgcnn_bench::percentile;
using amdgcnn_bench::ratio;
using amdgcnn_bench::seconds_between;
using amdgcnn_bench::Tracer;
using Scope = amdgcnn_bench::Tracer::Scope;

// Program thread counts are fixed so runs compare across hosts: the Trainer,
// the dataset build and predict_links use 4 OpenMP threads, the Server 4 pool
// workers.  The load generator is the single main thread.
constexpr int kThreads = 4;
constexpr std::size_t kRequestLinks = 32;
constexpr std::int64_t kCheckEvery = 16;  // identity-checked requests: 1 in 16
constexpr int kEpochs = 10;
constexpr std::size_t kReplayLinks = 2000;
constexpr std::size_t kReplayTrainSamples = 512;
constexpr int kChurnTogglesPerRequest = 4;
constexpr std::int64_t kCompactEvery = 256;  // updates between compact() calls
constexpr int kReplayUpdates = 1024;
constexpr std::size_t kSlices = 10;  // serve links_per_s: median over slices

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  // empty: untraced
  bool smoke = false;
  std::string out_path;    // empty: stdout
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  explicit Run(Args a) : args(std::move(a)), tracer(!args.trace_path.empty()) {}

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one operation that cannot fail by itself (epoch, update).
  void op() { ++attempted; }
  /// Count one checked operation; a failure is reported on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  Args args;
  Tracer tracer;
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

std::uint64_t pair_key(graph::NodeId a, graph::NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}
std::uint64_t pair_key(const seal::LinkExample& l) { return pair_key(l.a, l.b); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Every probability finite and every row summing to 1 within 1e-6.  The
/// workloads run at f32: each probability is an f32 softmax output widened
/// to double, so a row sum is exact only to f32 rounding (~1e-7).
bool rows_valid(const std::vector<double>& proba, std::size_t links,
                std::int64_t classes) {
  const auto c = static_cast<std::size_t>(classes);
  if (c == 0 || proba.size() != links * c) return false;
  for (std::size_t i = 0; i < links; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      if (!std::isfinite(proba[i * c + j])) return false;
      sum += proba[i * c + j];
    }
    if (std::fabs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Extraction, DRNL and feature options shared by every workload: the
/// paper's k = 2 hops, subgraphs capped at 32 nodes, f32 features.
seal::SealDatasetOptions dataset_options(graph::NeighborhoodMode mode,
                                         std::int64_t threads) {
  seal::SealDatasetOptions o;
  o.extract.num_hops = 2;
  o.extract.mode = mode;
  o.extract.max_nodes = 32;
  o.features.max_drnl_label = 24;
  o.features.dtype = ag::Dtype::f32;
  o.num_threads = threads;
  return o;
}

/// AM-DGCNN at f32 with the PrimeKG-tuned shape (hidden 32, sort_k 24).
models::ModelConfig model_config(const graph::KnowledgeGraph& g,
                                 const seal::FeatureOptions& features,
                                 std::int64_t classes) {
  models::ModelConfig mc;
  mc.kind = models::GnnKind::kAMDGCNN;
  mc.node_feature_dim = seal::node_feature_dim(g, features);
  mc.edge_attr_dim = g.edge_attr_dim();
  mc.num_classes = classes;
  mc.hidden_dim = 32;
  mc.sort_k = 24;
  mc.dtype = ag::Dtype::f32;
  return mc;
}

core::LinkPredictor::Options predictor_options(
    const seal::SealDatasetOptions& dataset) {
  core::LinkPredictor::Options po;
  po.dataset = dataset;
  po.warm_nodes = 32;
  po.warm_edges = 32 * 8;
  return po;
}

/// Run `setup` `reps` times and return its median duration in seconds.
/// `teardown` releases the previous repetition's objects outside the clock.
template <typename Teardown, typename Fn>
double median_setup_s(Run& run, int reps, Teardown&& teardown, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const Scope scope(run.tracer, "setup");
    const auto t0 = Clock::now();
    setup();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return percentile(s, 0.5);
}

/// Requests in one run's timed phase: `rate` per second of --seconds.  The
/// work is fixed rather than the duration, so cache states, counters and peak
/// RSS do not depend on the speed of the commit under test; each rate is sized
/// so the phase lasts about --seconds on a 4-core x86-64 host.
std::int64_t request_count(const Args& args, double rate) {
  return std::max<std::int64_t>(1, std::llround(args.seconds * rate));
}

/// Median, over kSlices equal slices of the timed requests, of links per
/// busy second; a stall confined to one slice does not move it.
double sliced_links_per_s(const std::vector<double>& busy_s,
                          double links_per_request) {
  const std::size_t per = std::max<std::size_t>(1, busy_s.size() / kSlices);
  std::vector<double> rates;
  for (std::size_t i = 0; i + per <= busy_s.size(); i += per) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + per; ++j) sum += busy_s[j];
    rates.push_back(ratio(static_cast<double>(per) * links_per_request, sum));
  }
  return percentile(rates, 0.5);
}

/// Measured cost of recording one span, the only work tracing adds to a
/// timed loop (the loop reads the clock either way).
double span_cost_s() {
  Tracer probe(true);
  constexpr int kProbes = 100000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kProbes; ++i) probe.add("probe", t0, t0);
  return seconds_between(t0, Clock::now()) / kProbes;
}

/// What the timed phase of a workload measured.
struct Timed {
  std::vector<double> latency_ms;  // per request
  double links_per_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;        // high-water mark at the end of the phase
  std::size_t spans = 0;           // spans recorded inside the timed phase
  std::int64_t links = 0;
  std::unordered_set<std::uint64_t> distinct;
};

/// The end-to-end metrics, and the per-layer ones the timed phase measures.
/// request_p99_ms is per-layer: on a shared host its spread across runs
/// exceeds any usable bound.
void emit_timed(Run& run, double setup_s, const Timed& t) {
  run.metric("setup_s", setup_s, "s");
  run.metric("peak_rss_mb", t.peak_rss_mb, "MB");
  run.metric("links_per_s", t.links_per_s, "1/s");
  run.metric("request_p50_ms", percentile(t.latency_ms, 0.50), "ms");
  run.metric("request_p99_ms", percentile(t.latency_ms, 0.99), "ms");
  run.metric("harness.requests", static_cast<double>(t.latency_ms.size()),
             "count");
  run.metric("harness.repeat_factor",
             ratio(static_cast<double>(t.links),
                   static_cast<double>(t.distinct.size())),
             "ratio");
  if (run.tracer.enabled())
    run.metric("harness.tracing_overhead_frac",
               ratio(static_cast<double>(t.spans) * span_cost_s(), t.wall_s),
               "ratio");
}

/// Server counters as deltas over the timed phase.  Without a Server (the
/// offline screen) every link is one cold forward and nothing is cached.
void emit_serve_counters(Run& run, const serve::ServerStats* before,
                         const serve::ServerStats* after,
                         const graph::FrontierCacheStats& f0,
                         const graph::FrontierCacheStats& f1) {
  const auto d = [&](std::int64_t serve::ServerStats::*field) {
    return before == nullptr ? 0.0
                             : static_cast<double>(after->*field - before->*field);
  };
  using S = serve::ServerStats;
  const double links = d(&S::links);
  run.metric("serve.score_hit_rate",
             ratio(d(&S::score_hits), d(&S::score_hits) + d(&S::score_misses)),
             "ratio");
  run.metric("serve.dedup_frac", ratio(d(&S::deduped), links), "ratio");
  run.metric("serve.forwards_per_link",
             before == nullptr ? 1.0 : ratio(d(&S::scored), links), "ratio");
  run.metric("serve.score_evictions", d(&S::score_evictions), "count");
  run.metric("serve.score_invalidated", d(&S::score_invalidated), "count");
  run.metric("serve.endpoint_hit_rate",
             ratio(d(&S::endpoint_hits),
                   d(&S::endpoint_hits) + d(&S::endpoint_misses)),
             "ratio");
  run.metric("serve.endpoint_invalidated", d(&S::endpoint_invalidated),
             "count");
  run.metric("seal.row_hit_rate",
             ratio(d(&S::row_hits), d(&S::row_hits) + d(&S::row_misses)),
             "ratio");
  const auto hits = static_cast<double>(f1.hits - f0.hits);
  const auto misses = static_cast<double>(f1.misses - f0.misses);
  run.metric("graph.frontier_hit_rate", ratio(hits, hits + misses), "ratio");
}

/// Edge toggles around anchor nodes: each step deletes a single edge one hop
/// out from a random anchor (so it lies inside the anchor's 2-hop hull) or
/// reinserts the oldest deleted edge, keeping the graph size level.
class Toggler {
 public:
  Toggler(graph::KnowledgeGraph& g, std::vector<graph::NodeId> anchors,
          std::uint64_t seed)
      : g_(g), anchors_(std::move(anchors)), rng_(seed) {
    if (anchors_.empty()) throw std::invalid_argument("Toggler: no anchors");
  }

  /// One insert_edge or delete_edge; returns its duration in seconds.
  double step(Tracer& tracer) {
    bool insert = !removed_.empty() &&
                  (removed_.size() >= kMaxRemoved || rng_.bernoulli(0.5));
    graph::EdgeRecord e;
    if (!insert && !pick(e)) {
      if (removed_.empty())
        throw std::runtime_error("toggle: no deletable edge near the anchors");
      insert = true;
    }
    if (insert) {
      e = removed_.front();
      removed_.pop_front();
    }
    const auto t0 = Clock::now();
    if (insert)
      g_.insert_edge(e.src, e.dst, e.type);
    else
      g_.delete_edge(e.src, e.dst);
    const auto t1 = Clock::now();
    tracer.add(insert ? "graph.insert_edge" : "graph.delete_edge", t0, t1);
    if (!insert) removed_.push_back(e);
    ++updates_;
    max_depth_ = std::max(max_depth_, g_.overlay_depth());
    return seconds_between(t0, t1);
  }

  double compact(Tracer& tracer) {
    const auto t0 = Clock::now();
    g_.compact();
    const auto t1 = Clock::now();
    tracer.add("graph.compact", t0, t1);
    return seconds_between(t0, t1);
  }

  std::int64_t updates() const { return updates_; }
  std::int64_t max_overlay_depth() const { return max_depth_; }

 private:
  static constexpr std::size_t kMaxRemoved = 32;

  bool pick(graph::EdgeRecord& out) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto h = anchors_[rng_.uniform_int(anchors_.size())];
      const auto hn = g_.neighbors(h);
      if (hn.empty()) continue;
      const auto n = hn[rng_.uniform_int(hn.size())].node;
      const auto nn = g_.neighbors(n);  // non-empty: holds h
      const auto adj = nn[rng_.uniform_int(nn.size())];
      // Only single edges: reinserting one of a parallel pair would be
      // rejected as a duplicate.
      const auto copies = std::count_if(
          nn.begin(), nn.end(),
          [&](const graph::Adjacent& x) { return x.node == adj.node; });
      if (adj.node == n || copies != 1) continue;
      out = {n, adj.node, g_.edge(adj.edge).type};
      return true;
    }
    return false;
  }

  graph::KnowledgeGraph& g_;
  std::vector<graph::NodeId> anchors_;
  util::Rng rng_;
  std::deque<graph::EdgeRecord> removed_;
  std::int64_t updates_ = 0;
  std::int64_t max_depth_ = 0;
};

/// Traced runs only: per-stage costs of the cold per-link pipeline.  Serially
/// for up to kReplayLinks of the workload's links, time extraction, then
/// build_sample, then predict_proba on a warm arena, and a cold single-link
/// predict_links call on the same link, whose bytes must match.  Also time
/// the batch build, and kReplayTrainSamples samples through the training
/// forward and backward.
void replay_stages(Run& run, const graph::KnowledgeGraph& g,
                   models::LinkGNN& model,
                   const seal::SealDatasetOptions& dataset,
                   std::vector<seal::LinkExample> links,
                   const std::vector<seal::SubgraphSample>& train_samples) {
  auto& tr = run.tracer;
  const Scope replay(tr, "replay");
  if (links.size() > kReplayLinks) links.resize(kReplayLinks);
  auto serial_options = predictor_options(dataset);
  serial_options.dataset.num_threads = 0;
  const core::LinkPredictor serial(model, serial_options);
  // The predictor's own extraction options (it turns on frontier reuse).
  const auto& extract = serial.options().dataset.extract;
  infer::Arena arena;
  serial.frozen().warm_up(arena, serial_options.warm_nodes,
                          serial_options.warm_edges);

  const auto c = static_cast<std::size_t>(model.config().num_classes);
  std::vector<double> staged(links.size() * c), cold(links.size() * c);
  std::vector<seal::SubgraphSample> samples;
  double nodes = 0.0;
  const auto run_staged = [&](std::size_t i) {
    const auto& l = links[i];
    graph::EnclosingSubgraph sub;
    {
      const Scope s(tr, "replay.extract");
      sub = graph::extract_enclosing_subgraph(g, l.a, l.b, extract);
    }
    nodes += static_cast<double>(sub.num_nodes());
    seal::SubgraphSample sample;
    {
      const Scope s(tr, "replay.build_sample");
      sample = seal::build_sample(g, sub, l.label, dataset.features);
    }
    {
      const Scope s(tr, "replay.forward");
      serial.frozen().predict_proba(sample, arena, staged.data() + i * c);
    }
    if (samples.size() < kReplayTrainSamples) samples.push_back(std::move(sample));
  };
  const auto run_cold = [&](std::size_t i) {
    core::LinkPredictions p;
    {
      const Scope s(tr, "replay.predict_links");
      p = serial.predict_links(g, {links[i]});
    }
    std::copy(p.proba.begin(), p.proba.end(), cold.begin() + i * c);
  };
  // Alternate which path runs first, so neither systematically finds the
  // link's graph pages and cache lines warmed by the other.
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i % 2 == 0) {
      run_staged(i);
      run_cold(i);
    } else {
      run_cold(i);
      run_staged(i);
    }
  }
  run.check(same_bytes(staged, cold),
            "replay: staged pipeline bytes differ from cold predict_links");

  auto parallel = dataset;
  parallel.num_threads = kThreads;
  double build_s = 0.0;
  {
    const Scope s(tr, "replay.build_samples");
    const auto t0 = Clock::now();
    const auto built = seal::build_samples(g, links, parallel);
    build_s = seconds_between(t0, Clock::now());
  }

  const auto& train = train_samples.empty() ? samples : train_samples;
  const std::size_t n_train = std::min(train.size(), kReplayTrainSamples);
  const auto pool_counts = [] {
    const auto f64 = ag::pool_stats();
    const auto& f32 = ag::detail::f32_buffer_pool().stats();
    return std::pair{f64.hits + f32.hits, f64.misses + f32.misses};
  };
  const auto [hits0, misses0] = pool_counts();
  model.set_training(true);
  util::Rng dropout(run.args.seed);
  for (std::size_t i = 0; i < n_train; ++i) {
    ag::Tensor loss;
    {
      const Scope s(tr, "replay.model_forward");
      loss = ag::ops::cross_entropy(model.forward(train[i], dropout),
                                    {static_cast<std::int64_t>(train[i].label)});
    }
    {
      const Scope s(tr, "replay.backward");
      loss.backward();
    }
    ag::release_graph(loss);
  }
  const auto [hits1, misses1] = pool_counts();

  const auto extract_us = tr.durations_us("replay.extract");
  const auto build_us = tr.durations_us("replay.build_sample");
  const auto forward_us = tr.durations_us("replay.forward");
  const auto cold_us = tr.durations_us("replay.predict_links");
  run.metric("graph.extract_us_p50", percentile(extract_us, 0.50), "us");
  run.metric("graph.extract_us_p99", percentile(extract_us, 0.99), "us");
  run.metric("graph.subgraph_nodes_mean",
             ratio(nodes, static_cast<double>(links.size())), "count");
  run.metric("seal.build_sample_us_p50", percentile(build_us, 0.50), "us");
  run.metric("seal.build_samples_links_per_s",
             ratio(static_cast<double>(links.size()), build_s), "1/s");
  run.metric("infer.forward_us_p50", percentile(forward_us, 0.50), "us");
  run.metric("infer.forward_us_p99", percentile(forward_us, 0.99), "us");
  run.metric("infer.arena_peak_bytes", static_cast<double>(arena.peak_bytes()),
             "bytes");
  run.metric("core.predict_links_us_per_link", mean(cold_us), "us");
  run.metric("replay.coverage",
             ratio(mean(extract_us) + mean(build_us) + mean(forward_us),
                   mean(cold_us)),
             "ratio");
  run.metric("models.forward_us_p50",
             percentile(tr.durations_us("replay.model_forward"), 0.50), "us");
  run.metric("tensor.backward_us_p50",
             percentile(tr.durations_us("replay.backward"), 0.50), "us");
  run.metric("tensor.pool_hit_rate",
             ratio(static_cast<double>(hits1 - hits0),
                   static_cast<double>(hits1 - hits0 + misses1 - misses0)),
             "ratio");
}

/// Traced runs only: kReplayUpdates toggles with compact() every
/// kCompactEvery updates, then the mutation metrics over every update span of
/// the run (serve-churn's timed loop included).
void replay_mutations(Run& run, Toggler& toggler) {
  {
    const Scope s(run.tracer, "replay.mutations");
    for (int i = 0; i < kReplayUpdates; ++i) {
      toggler.step(run.tracer);
      run.op();
      if (toggler.updates() % kCompactEvery == 0) toggler.compact(run.tracer);
    }
  }
  const auto inserts = run.tracer.durations_us("graph.insert_edge");
  const auto deletes = run.tracer.durations_us("graph.delete_edge");
  auto updates = inserts;
  updates.insert(updates.end(), deletes.begin(), deletes.end());
  run.metric("graph.insert_edge_us_p50", percentile(inserts, 0.50), "us");
  run.metric("graph.delete_edge_us_p50", percentile(deletes, 0.50), "us");
  run.metric("graph.update_us_p99", percentile(updates, 0.99), "us");
  run.metric("graph.compact_ms_p50",
             percentile(run.tracer.durations_us("graph.compact"), 0.50) / 1e3,
             "ms");
  run.metric("graph.overlay_depth_max",
             static_cast<double>(toggler.max_overlay_depth()), "count");
}

// ---- train-primekg -----------------------------------------------------------

/// Every drug x disease pair that is not a labelled link, shuffled: the
/// candidates a researcher screens after training.
std::vector<seal::LinkExample> screen_candidates(const datasets::LinkDataset& d,
                                                 std::uint64_t seed) {
  std::vector<graph::NodeId> drugs, diseases;
  for (graph::NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    if (d.graph.node_type(v) == datasets::kDrug) drugs.push_back(v);
    if (d.graph.node_type(v) == datasets::kDisease) diseases.push_back(v);
  }
  std::unordered_set<std::uint64_t> labelled;
  for (const auto* links : {&d.train_links, &d.test_links})
    for (const auto& l : *links) labelled.insert(pair_key(l));
  std::vector<seal::LinkExample> out;
  for (const auto a : drugs)
    for (const auto b : diseases)
      if (labelled.count(pair_key(a, b)) == 0) out.push_back({a, b, 0});
  util::Rng rng(seed);
  rng.shuffle(out);
  return out;
}

void run_train(Run& run) {
  const auto& args = run.args;
  auto& tr = run.tracer;
  datasets::PrimeKGSimOptions po;
  po.seed = args.seed;
  po.num_train = args.smoke ? 1200 : 6000;  // paper split: 6000 / 2000
  po.num_test = args.smoke ? 400 : 2000;
  const auto dataset =
      dataset_options(graph::NeighborhoodMode::kIntersection, kThreads);

  struct Stack {
    datasets::LinkDataset data;
    seal::SealDataset ds;
    std::unique_ptr<models::LinkGNN> model;
    std::unique_ptr<models::Trainer> trainer;  // holds a reference to model

    void reset() {
      trainer.reset();
      model.reset();
      ds = {};
      data = {};
    }
  } st;
  // The first set-up also starts the OpenMP threads and is about 3x slower;
  // the median of five is one of the four warm repetitions.
  const double setup_s = median_setup_s(run, 5, [&] { st.reset(); }, [&] {
    {
      const Scope s(tr, "setup.generate");
      st.data = datasets::make_primekg_sim(po);
    }
    {
      const Scope s(tr, "setup.build_samples");
      st.ds = seal::build_seal_dataset(st.data.graph, st.data.train_links,
                                       st.data.test_links,
                                       st.data.num_classes, dataset);
    }
    const Scope s(tr, "setup.model");
    util::Rng init(args.seed);
    st.model = models::make_link_gnn(
        model_config(st.data.graph, dataset.features, st.data.num_classes),
        init);
    models::TrainConfig tc;
    tc.learning_rate = 3e-3;
    tc.epochs = kEpochs;
    tc.seed = args.seed;
    tc.dtype = ag::Dtype::f32;
    tc.num_threads = kThreads;
    st.trainer = std::make_unique<models::Trainer>(*st.model, tc);
  });
  const auto candidates = screen_candidates(st.data, args.seed);
  const auto& g = st.data.graph;

  // Timed phase: kEpochs training epochs, then 32-link screening requests.
  Timed t;
  const int epochs = args.smoke ? 5 : kEpochs;
  const std::int64_t requests = request_count(args, 128.0);
  std::vector<double> epoch_s;
  std::unique_ptr<core::LinkPredictor> predictor;
  graph::FrontierCacheStats f0, f1;
  {
    const Scope timed(tr, "timed");
    const std::size_t spans0 = tr.size();
    const auto start = Clock::now();
    for (int e = 0; e < epochs; ++e) {
      const auto t0 = Clock::now();
      st.trainer->train_epoch(st.ds.train);
      const auto t1 = Clock::now();
      tr.add("epoch", t0, t1);
      epoch_s.push_back(seconds_between(t0, t1));
      run.op();
    }
    predictor = std::make_unique<core::LinkPredictor>(
        *st.model, predictor_options(dataset));
    f0 = graph::frontier_cache_stats();
    std::size_t next = 0;
    for (std::int64_t r = 0;
         r < requests && next + kRequestLinks <= candidates.size(); ++r) {
      const std::vector<seal::LinkExample> batch(
          candidates.begin() + static_cast<std::ptrdiff_t>(next),
          candidates.begin() + static_cast<std::ptrdiff_t>(next + kRequestLinks));
      next += kRequestLinks;
      const auto t0 = Clock::now();
      const auto p = predictor->predict_links(g, batch);
      const auto t1 = Clock::now();
      tr.add("request", t0, t1);
      t.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
      run.check(rows_valid(p.proba, batch.size(), p.num_classes),
                "screen probabilities finite and summing to 1");
      for (const auto& l : batch) t.distinct.insert(pair_key(l));
      t.links += static_cast<std::int64_t>(batch.size());
    }
    f1 = graph::frontier_cache_stats();
    t.wall_s = seconds_between(start, Clock::now());
    t.peak_rss_mb = peak_rss_mb();
    t.spans = tr.size() - spans0;
  }
  t.links_per_s = ratio(static_cast<double>(st.ds.train.size()),
                        percentile(epoch_s, 0.50));

  // Correctness gates, outside the clock.
  double auc = 0.0;
  {
    const Scope s(tr, "check");
    auc = st.trainer->evaluate(st.ds.test).metrics.macro_auc;
    run.check(auc >= 0.90, "test AUC " + std::to_string(auc) + " >= 0.90");
    const auto reference = st.trainer->predict_proba(st.ds.test);
    const auto served = predictor->predict_links(g, st.data.test_links);
    run.check(same_bytes(reference, served.proba),
              "predict_links bytes equal Trainer::predict_proba on the test "
              "split");
    run.check(rows_valid(served.proba, st.data.test_links.size(),
                         served.num_classes),
              "test probabilities finite and summing to 1");
  }

  emit_timed(run, setup_s, t);
  emit_serve_counters(run, nullptr, nullptr, f0, f1);
  run.metric("metrics.test_auc", auc, "ratio");
  if (!tr.enabled()) return;
  replay_stages(run, g, *st.model, dataset, candidates, st.ds.train);
  std::vector<graph::NodeId> anchors;
  for (std::size_t i = 0; i < 64 && i < candidates.size(); ++i)
    anchors.push_back(candidates[i].a);
  Toggler toggler(st.data.graph, anchors, args.seed ^ 0x5EEDu);
  replay_mutations(run, toggler);
}

// ---- serve-cold / serve-hot / serve-churn -------------------------------------

/// Build the workload graph in a child process and write it as a CSR
/// snapshot, so the measured process only maps it (graph generation is not
/// part of serving set-up, and its memory does not count in peak_rss_mb).
/// Must run before this process starts any thread.
void write_snapshot(const std::string& path, std::int64_t nodes,
                    std::uint64_t seed) {
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no generator behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) std::_Exit(1);
    int code = 0;
    try {
      datasets::ScaleKGOptions o;
      o.num_nodes = nodes;
      o.seed = seed;
      datasets::make_scale_kg(o).save_snapshot(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snapshot: %s\n", e.what());
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("snapshot generation failed");
}

/// Distinct candidates (repeat factor 1): existing edges alternating with
/// uniformly random pairs, as datasets::sample_scale_links draws them, with
/// every repeat dropped.
class ColdStream {
 public:
  ColdStream(const graph::KnowledgeGraph& g, std::uint64_t seed)
      : g_(g), rng_(seed) {}

  std::vector<seal::LinkExample> next(std::size_t n) {
    std::vector<seal::LinkExample> out;
    while (out.size() < n) {
      if (pos_ == buffer_.size()) {
        buffer_ = datasets::sample_scale_links(g_, 4096, rng_.next_u64());
        pos_ = 0;
      }
      const auto& l = buffer_[pos_++];
      if (seen_.insert(pair_key(l)).second) out.push_back(l);
    }
    return out;
  }

 private:
  const graph::KnowledgeGraph& g_;
  util::Rng rng_;
  std::vector<seal::LinkExample> buffer_;
  std::size_t pos_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

/// Zipf(1.0) traffic over a fixed universe of (hot source, destination)
/// pairs: `sources` random hot nodes, each paired with `pool` random
/// destinations.  Rank r of a seeded shuffle of the universe is drawn with
/// weight 1 / (r + 1), so hot sources are shared across requests.
class ZipfStream {
 public:
  ZipfStream(const graph::KnowledgeGraph& g, std::uint64_t seed,
             std::size_t sources, std::size_t pool)
      : rng_(seed) {
    const auto n = static_cast<std::uint64_t>(g.num_nodes());
    std::unordered_set<graph::NodeId> chosen;
    while (sources_.size() < sources) {
      const auto v = static_cast<graph::NodeId>(rng_.uniform_int(n));
      if (g.degree(v) > 0 && chosen.insert(v).second) sources_.push_back(v);
    }
    std::unordered_set<std::uint64_t> seen;
    for (const auto h : sources_)
      for (std::size_t k = 0; k < pool;) {
        const auto b = static_cast<graph::NodeId>(rng_.uniform_int(n));
        if (b != h && seen.insert(pair_key(h, b)).second) {
          pairs_.push_back({h, b, 0});
          ++k;
        }
      }
    rng_.shuffle(pairs_);
    double acc = 0.0;
    for (std::size_t r = 0; r < pairs_.size(); ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(acc);
    }
  }

  std::vector<seal::LinkExample> next(std::size_t n) {
    std::vector<seal::LinkExample> out;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it =
          std::upper_bound(cdf_.begin(), cdf_.end(), rng_.uniform() * cdf_.back());
      out.push_back(pairs_[std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf_.begin()), pairs_.size() - 1)]);
    }
    return out;
  }

  const std::vector<graph::NodeId>& sources() const { return sources_; }

 private:
  util::Rng rng_;
  std::vector<graph::NodeId> sources_;
  std::vector<seal::LinkExample> pairs_;
  std::vector<double> cdf_;
};

struct ServeStack {
  // Destroyed bottom-up: the Server borrows the predictor and the graph.
  std::unique_ptr<graph::KnowledgeGraph> graph;
  std::unique_ptr<models::LinkGNN> model;
  std::unique_ptr<core::LinkPredictor> predictor;
  std::unique_ptr<serve::Server> server;

  void reset() {
    server.reset();
    predictor.reset();
    model.reset();
    graph.reset();
  }
};

struct RemoveFile {
  std::string path;
  ~RemoveFile() { std::remove(path.c_str()); }
};

enum class Traffic { kCold, kHot, kChurn };

void run_serve(Run& run, Traffic traffic) {
  const auto& args = run.args;
  auto& tr = run.tracer;
  const bool hot = traffic != Traffic::kCold;
  // serve-cold's working set (10^6 nodes) far exceeds the CPU caches; the hot
  // workloads use 10^5 nodes so compact() stays a small share of churn.
  const std::int64_t nodes = args.smoke ? 20'000 : hot ? 100'000 : 1'000'000;
  const RemoveFile snapshot{args.scratch + "/amdgcnn_bench_" +
                            std::to_string(getpid()) + ".snap"};
  write_snapshot(snapshot.path, nodes, args.seed);

  // Set-up: map the snapshot, build and freeze the model (random weights:
  // the serving cost does not depend on their values), start the Server.
  // The score LRU holds 8192 entries so serve-hot's universe (65536 pairs)
  // overflows it and reaches a steady hit rate after a short warm-up.
  // One set-up takes about 1 ms.  On a shared host, spells of 0.1-0.2 s run
  // every set-up up to 1.5x slower, so the median of a short series is
  // bimodal across runs; the median of 1001 (about 1.5 s) is steady.
  const auto dataset = dataset_options(graph::NeighborhoodMode::kUnion, 0);
  serve::ServerOptions so;
  so.num_workers = kThreads;
  so.score_cache_capacity = 8192;
  ServeStack st;
  const double setup_s = median_setup_s(run, 1001, [&] { st.reset(); }, [&] {
    {
      const Scope s(tr, "setup.load_snapshot");
      st.graph = std::make_unique<graph::KnowledgeGraph>(
          graph::KnowledgeGraph::load_snapshot(snapshot.path,
                                               graph::SnapshotLoadMode::kMap));
    }
    {
      const Scope s(tr, "setup.freeze");
      util::Rng init(args.seed);
      st.model = models::make_link_gnn(
          model_config(*st.graph, dataset.features, 2), init);
      st.predictor = std::make_unique<core::LinkPredictor>(
          *st.model, predictor_options(dataset));
    }
    const Scope s(tr, "setup.server");
    st.server = std::make_unique<serve::Server>(*st.predictor, *st.graph, so);
  });
  auto& g = *st.graph;
  auto& server = *st.server;
  const auto& predictor = *st.predictor;

  std::function<std::vector<seal::LinkExample>()> next_request;
  std::vector<graph::NodeId> anchors;
  std::unique_ptr<ColdStream> cold;
  std::unique_ptr<ZipfStream> zipf;
  if (hot) {
    zipf = std::make_unique<ZipfStream>(g, args.seed, args.smoke ? 16 : 64,
                                        args.smoke ? 256 : 1024);
    next_request = [&] { return zipf->next(kRequestLinks); };
    anchors = zipf->sources();
  } else {
    cold = std::make_unique<ColdStream>(g, args.seed);
    next_request = [&] { return cold->next(kRequestLinks); };
  }
  std::unique_ptr<Toggler> toggler;
  if (traffic == Traffic::kChurn)
    toggler = std::make_unique<Toggler>(g, anchors, args.seed ^ 0x5EEDu);

  // Warm-up, outside the clock: worker arenas and threads, and for the hot
  // traffic the score LRU up to its steady state.
  {
    const Scope s(tr, "warmup");
    const int warmup = args.smoke || !hot ? 64 : 1000;
    for (int r = 0; r < warmup; ++r) (void)server.score_batch(next_request());
  }

  // Timed phase: a closed loop with one client.  serve-churn applies its
  // toggles after every response, as the single writer, and its update time
  // counts in links_per_s.
  Timed t;
  std::vector<seal::LinkExample> replay_links;
  std::vector<std::pair<std::vector<seal::LinkExample>, core::LinkPredictions>>
      kept;  // identity-checked after the loop (graph unchanged)
  const std::int64_t requests = request_count(
      args, traffic == Traffic::kCold  ? 400.0
            : traffic == Traffic::kHot ? 1600.0
                                       : 600.0);
  const auto s0 = server.stats();
  const auto f0 = graph::frontier_cache_stats();
  const auto check_slot = static_cast<std::int64_t>(args.seed % kCheckEvery);
  std::vector<double> busy_s;  // per request, its updates included
  {
    const Scope timed(tr, "timed");
    const std::size_t spans0 = tr.size();
    const auto start = Clock::now();
    for (std::int64_t r = 0; r < requests; ++r) {
      auto links = next_request();
      const auto t0 = Clock::now();
      auto p = server.score_batch(links);
      const auto t1 = Clock::now();
      tr.add("request", t0, t1);
      busy_s.push_back(seconds_between(t0, t1));
      t.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
      run.check(rows_valid(p.proba, links.size(), p.num_classes),
                "response probabilities finite and summing to 1");
      for (const auto& l : links) t.distinct.insert(pair_key(l));
      t.links += static_cast<std::int64_t>(links.size());
      for (std::size_t i = 0; i < links.size() && replay_links.size() < kReplayLinks; ++i)
        replay_links.push_back(links[i]);
      if (r % kCheckEvery == check_slot) {
        if (toggler) {
          run.check(same_bytes(p.proba, predictor.predict_links(g, links).proba),
                    "server response equals cold predict_links on the "
                    "mutated graph");
        } else {
          kept.emplace_back(std::move(links), std::move(p));
        }
      }
      if (!toggler) continue;
      for (int k = 0; k < kChurnTogglesPerRequest; ++k) {
        busy_s.back() += toggler->step(tr);
        run.op();
        if (toggler->updates() % kCompactEvery == 0)
          busy_s.back() += toggler->compact(tr);
      }
    }
    t.wall_s = seconds_between(start, Clock::now());
    t.peak_rss_mb = peak_rss_mb();
    t.spans = tr.size() - spans0;
  }
  const auto s1 = server.stats();
  const auto f1 = graph::frontier_cache_stats();
  t.links_per_s = sliced_links_per_s(busy_s, kRequestLinks);
  if (!kept.empty()) {
    // One batched call on a 4-thread predictor: the parallel path is
    // bit-identical to the serial one, and this keeps the check short.
    const Scope s(tr, "check");
    const core::LinkPredictor reference(
        *st.model,
        predictor_options(dataset_options(graph::NeighborhoodMode::kUnion,
                                          kThreads)));
    std::vector<seal::LinkExample> links;
    std::vector<double> served;
    for (const auto& [l, p] : kept) {
      links.insert(links.end(), l.begin(), l.end());
      served.insert(served.end(), p.proba.begin(), p.proba.end());
    }
    run.check(same_bytes(served, reference.predict_links(g, links).proba),
              "server responses equal cold predict_links (" +
                  std::to_string(kept.size()) + " requests)");
  }

  emit_timed(run, setup_s, t);
  emit_serve_counters(run, &s0, &s1, f0, f1);
  run.metric("metrics.test_auc", 0.0, "ratio");  // no trained model here
  if (!tr.enabled()) return;
  // No request is outstanding, so the replay may read and then mutate the
  // graph the Server is bound to.
  replay_stages(run, g, *st.model, dataset, replay_links, {});
  if (!toggler) {
    for (std::size_t i = 0; i < 64 && i < replay_links.size(); ++i)
      anchors.push_back(replay_links[i].a);
    toggler = std::make_unique<Toggler>(g, anchors, args.seed ^ 0x5EEDu);
  }
  replay_mutations(run, *toggler);
}

// ---- output -------------------------------------------------------------------

void write_result(const Run& run, std::FILE* f) {
  const auto& a = run.args;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
               "\"smoke\": %s, \"traced\": %s, \"meta\": {\"nproc\": %u, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\"}, "
               "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
               "\"metrics\": {",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.seconds, a.smoke ? "true" : "false",
               run.tracer.enabled() ? "true" : "false",
               std::thread::hardware_concurrency(), AMDGCNN_BENCH_COMPILER,
               AMDGCNN_BENCH_BUILD_TYPE, run.failed == 0 ? "true" : "false",
               static_cast<long long>(run.attempted),
               static_cast<long long>(run.failed));
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& m = run.metrics[i];
    char value[64] = "null";  // JSON has no NaN or infinity
    if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
    std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::fprintf(f, "}}\n");
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload train-primekg|serve-cold|serve-hot|"
               "serve-churn --seed S --seconds N [--trace FILE] [--smoke] "
               "[--out FILE] [--scratch DIR]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace_path = value;
      else if (flag == "--out") args.out_path = value;
      else if (flag == "--scratch") args.scratch = value;
      else return usage(argv[0]);
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  const std::vector<std::pair<std::string, std::function<void(Run&)>>>
      workloads = {
          {"train-primekg", run_train},
          {"serve-cold", [](Run& r) { run_serve(r, Traffic::kCold); }},
          {"serve-hot", [](Run& r) { run_serve(r, Traffic::kHot); }},
          {"serve-churn", [](Run& r) { run_serve(r, Traffic::kChurn); }},
      };
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const auto& w) { return w.first == args.workload; });
  if (it == workloads.end() || !(args.seconds > 0.0)) return usage(argv[0]);

  Run run(args);
  try {
    it->second(run);
  } catch (const std::exception& e) {
    run.check(false, std::string("workload aborted: ") + e.what());
  }
  if (run.tracer.enabled() &&
      !run.tracer.write_chrome_json(args.trace_path, args.workload))
    run.check(false, "write trace " + args.trace_path);

  std::FILE* out = args.out_path.empty() ? stdout
                                         : std::fopen(args.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  write_result(run, out);
  if (out != stdout && std::fclose(out) != 0) return 1;
  return run.failed == 0 ? 0 : 1;
}
