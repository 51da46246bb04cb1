// Inference-throughput benchmark for the forward-only engine (DESIGN.md
// §2.4).
//
// Trains both models (AM-DGCNN, Vanilla-DGCNN) briefly on the Cora simulator
// at each storage precision, then measures single-link query cost three
// ways:
//   * trainer_forward — the training-path forward (autograd graph + buffer
//     pool) via Trainer::predict_proba on one sample at a time,
//   * arena_forward   — the frozen arena forward on the same prebuilt
//     samples (core::LinkPredictor::predict_proba_sample),
//   * pipeline        — the full predict_links serving path per query
//     (extract -> DRNL -> featurize -> forward), serial and 1-worker rows.
// Trainer and arena queries are interleaved (trainer query, then the same
// arena query back to back) and the reported speedup is the median of the
// per-query trainer/arena latency ratios: each pair samples the same
// host-frequency phase, so the estimate survives the throttling and
// multi-millisecond stalls of shared CI hosts that wreck a totals-based
// ratio.
//
// The benchmark asserts that trainer and arena probabilities agree
// bit-for-bit, that the serial and 1-worker pipeline batches agree
// bit-for-bit, and — in full mode — that the AM-DGCNN f64 arena forward (the
// paper's model at reference precision) clears a >= 1.5x speedup floor over
// the trainer forward.  Steady-state measurements sit around 1.9x.  Roughly
// half of the f64 forward is scalar-libm tanh, shared by both paths and
// pinned by the bit-identity contract, so the f64 ratio is bounded near 2x
// even with every removable byte of autograd, pool and copy overhead gone
// from the arena path.  f32 replaces libm with the exact vectorized
// fwd::tanh_inplace in both paths; its ratio and the vanilla model's are
// reported unasserted.
//
// The f32 iteration additionally measures the quantized serving modes
// (DESIGN.md §2.7): f16 and q8 arena forwards timed pairwise against the
// exact f32 arena forward (same paired-ratio-median estimator), plus the
// storage story — v3 checkpoint bytes and resident weight bytes against the
// f64 reference checkpoint.  Two floors are asserted for the paper's model:
// in full mode the q8 arena forward must never be slower than the exact f32
// arena forward (>= 1x; the exact forward's tanh is vectorized too now, so
// q8 keeps only its f32-lane reductions and smaller weights), and in both
// modes the q8 checkpoint + resident weights must shrink >= 4x vs the f64
// reference (expected ~7.1x; f16 is exactly 4x and is reported unasserted).
// Serial vs 1-worker determinism is asserted per quantized mode — the modes
// are not bit-identical to f32, but each one is bit-identical to itself for
// any worker count.
//
// Output goes to stdout as a table and to a JSON file (default
// BENCH_inference.json in the current directory; override with --out PATH).
// --smoke shrinks everything so the binary doubles as a CTest smoke test;
// it keeps every byte-identity and storage gate but no wall-clock floor, which
// a loaded parallel ctest run cannot hold reliably.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/link_predictor.h"
#include "models/serialize.h"
#include "models/trainer.h"

namespace {

using namespace amdgcnn;

struct RunRow {
  std::string mode;   // "trainer_forward", "arena_forward" or "pipeline"
  std::string dtype;  // "f32" or "f64"
  int threads = 0;    // pipeline worker count (0 = serial)
  double p50_us = 0.0;
  double p99_us = 0.0;
  double links_per_sec = 0.0;
  double seconds = 0.0;          // total wall time of the timed queries
  std::size_t arena_peak_bytes = 0;  // 0 for the trainer baseline
};

struct QuantStats {
  double speedup_f16 = 0.0;  // median per-query f32-arena/quant-arena ratio
  double speedup_q8 = 0.0;
  std::size_t ckpt_f64 = 0;  // v2 f64 reference checkpoint bytes
  std::size_t ckpt_f16 = 0;  // v3 checkpoint bytes per scheme
  std::size_t ckpt_q8 = 0;
  std::size_t weight_f64 = 0;  // resident frozen weight bytes per mode
  std::size_t weight_f32 = 0;
  std::size_t weight_f16 = 0;
  std::size_t weight_q8 = 0;
};

struct ModelResult {
  std::string model;
  double speedup_f64 = 0.0;  // median per-query trainer/arena latency ratio
  double speedup_f32 = 0.0;
  QuantStats quant;
  std::vector<RunRow> runs;
};

double percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

void fill_latency_stats(RunRow& row, const std::vector<double>& latencies_s) {
  double total = 0.0;
  std::vector<double> us;
  us.reserve(latencies_s.size());
  for (double s : latencies_s) {
    total += s;
    us.push_back(s * 1e6);
  }
  row.seconds = total;
  row.p50_us = percentile(us, 0.50);
  row.p99_us = percentile(us, 0.99);
  row.links_per_sec =
      total > 0.0 ? static_cast<double>(latencies_s.size()) / total : 0.0;
}

struct ForwardPair {
  RunRow trainer;
  RunRow arena;
  double speedup = 0.0;  // median per-query trainer/arena latency ratio
};

/// Times the training-path forward (one autograd forward + softmax per
/// sample, exactly what serving on the Trainer would do) and the frozen
/// arena forward back to back on each query, for `rounds` passes over the
/// sample set.  The speedup is the median of the per-query latency ratios:
/// the two halves of a pair run microseconds apart under the same host
/// conditions, so frequency drift cancels per pair and the median sheds
/// scheduler stalls.
ForwardPair time_forward_pair(const models::Trainer& trainer,
                              const core::LinkPredictor& predictor,
                              const std::vector<seal::SubgraphSample>& samples,
                              int rounds, ag::Dtype dtype) {
  std::vector<seal::SubgraphSample> one(1);
  std::vector<double> out(
      static_cast<std::size_t>(predictor.config().num_classes));
  std::vector<double> lat_t, lat_a, ratios;
  lat_t.reserve(samples.size() * static_cast<std::size_t>(rounds));
  lat_a.reserve(lat_t.capacity());
  ratios.reserve(lat_t.capacity());
  ForwardPair pair;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& s : samples) {
      one[0] = s;  // shallow tensor copies
      util::Stopwatch tw;
      (void)trainer.predict_proba(one);
      const double t = tw.seconds();
      util::Stopwatch aw;
      predictor.predict_proba_sample(s, out.data());
      const double a = aw.seconds();
      lat_t.push_back(t);
      lat_a.push_back(a);
      if (a > 0.0) ratios.push_back(t / a);
    }
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    pair.speedup = ratios[ratios.size() / 2];
  }
  pair.trainer.mode = "trainer_forward";
  pair.trainer.dtype = ag::dtype_name(dtype);
  fill_latency_stats(pair.trainer, lat_t);
  pair.arena.mode = "arena_forward";
  pair.arena.dtype = ag::dtype_name(dtype);
  fill_latency_stats(pair.arena, lat_a);
  pair.arena.arena_peak_bytes = predictor.arena_peak_bytes();
  return pair;
}

/// Times the exact f32 arena forward and a quantized arena forward back to
/// back on each query (same pairing rationale as time_forward_pair) and
/// returns the quantized row; `*speedup` receives the median per-query
/// f32/quantized latency ratio.
RunRow time_quant_arena(const core::LinkPredictor& exact,
                        const core::LinkPredictor& quant,
                        const std::vector<seal::SubgraphSample>& samples,
                        int rounds, const char* qname, double* speedup) {
  std::vector<double> out(
      static_cast<std::size_t>(exact.config().num_classes));
  std::vector<double> lat_q, ratios;
  lat_q.reserve(samples.size() * static_cast<std::size_t>(rounds));
  ratios.reserve(lat_q.capacity());
  for (int r = 0; r < rounds; ++r) {
    for (const auto& s : samples) {
      util::Stopwatch ew;
      exact.predict_proba_sample(s, out.data());
      const double e = ew.seconds();
      util::Stopwatch qw;
      quant.predict_proba_sample(s, out.data());
      const double q = qw.seconds();
      lat_q.push_back(q);
      if (q > 0.0) ratios.push_back(e / q);
    }
  }
  *speedup = 0.0;
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    *speedup = ratios[ratios.size() / 2];
  }
  RunRow row;
  row.mode = "arena_forward";
  row.dtype = qname;
  fill_latency_stats(row, lat_q);
  row.arena_peak_bytes = quant.arena_peak_bytes();
  return row;
}

/// Per-query latencies of the full serving pipeline: each timed call is
/// predict_links on a single candidate link, so extraction, DRNL labelling,
/// featurisation and the forward are all inside the clock.
RunRow time_pipeline(const core::LinkPredictor& predictor,
                     const graph::KnowledgeGraph& g,
                     const std::vector<seal::LinkExample>& links,
                     std::int64_t threads, ag::Dtype dtype) {
  std::vector<seal::LinkExample> one(1);
  std::vector<double> lat;
  lat.reserve(links.size());
  for (const auto& link : links) {
    one[0] = link;
    util::Stopwatch watch;
    (void)predictor.predict_links(g, one);
    lat.push_back(watch.seconds());
  }
  RunRow row;
  row.mode = "pipeline";
  row.dtype = ag::dtype_name(dtype);
  row.threads = static_cast<int>(threads);
  fill_latency_stats(row, lat);
  row.arena_peak_bytes = predictor.arena_peak_bytes();
  return row;
}

void write_json(const std::string& path, const std::string& dataset,
                std::size_t forward_queries, std::size_t pipeline_queries,
                const std::vector<ModelResult>& models, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"bench\": \"inference_throughput\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"speedup_gate\": {\"model\": \"AM-DGCNN\", \"dtype\": \"f64\", "
         "\"min\": 1.5},\n"
      << "  \"quant_gates\": {\"q8_arena_speedup_vs_f32_min\": 1.0, "
         "\"q8_shrink_vs_f64_min\": 4.0},\n"
      << "  \"dataset\": \"" << dataset << "\",\n"
      << "  \"forward_queries\": " << forward_queries << ",\n"
      << "  \"pipeline_queries\": " << pipeline_queries << ",\n"
      << "  \"models\": [\n";
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& mr = models[m];
    char head[768];
    std::snprintf(
        head, sizeof(head),
        "    {\n      \"model\": \"%s\",\n"
        "      \"arena_speedup_vs_trainer\": "
        "{\"f64\": %.2f, \"f32\": %.2f},\n"
        "      \"quant\": {\n"
        "        \"arena_speedup_vs_f32\": {\"f16\": %.2f, \"q8\": %.2f},\n"
        "        \"checkpoint_bytes\": "
        "{\"f64_v2\": %zu, \"f16_v3\": %zu, \"q8_v3\": %zu},\n"
        "        \"resident_weight_bytes\": "
        "{\"f64\": %zu, \"f32\": %zu, \"f16\": %zu, \"q8\": %zu}\n"
        "      },\n"
        "      \"runs\": [\n",
        mr.model.c_str(), mr.speedup_f64, mr.speedup_f32,
        mr.quant.speedup_f16, mr.quant.speedup_q8, mr.quant.ckpt_f64,
        mr.quant.ckpt_f16, mr.quant.ckpt_q8, mr.quant.weight_f64,
        mr.quant.weight_f32, mr.quant.weight_f16, mr.quant.weight_q8);
    out << head;
    for (std::size_t r = 0; r < mr.runs.size(); ++r) {
      const auto& run = mr.runs[r];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "        {\"mode\": \"%s\", \"dtype\": \"%s\", "
                    "\"threads\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                    "\"links_per_sec\": %.1f, \"seconds\": %.4f, "
                    "\"arena_peak_bytes\": %zu}%s\n",
                    run.mode.c_str(), run.dtype.c_str(), run.threads,
                    run.p50_us, run.p99_us, run.links_per_sec, run.seconds,
                    run.arena_peak_bytes,
                    r + 1 < mr.runs.size() ? "," : "");
      out << buf;
    }
    out << "      ]\n    }" << (m + 1 < models.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_inference.json";
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
  const int train_epochs = smoke ? 1 : 2;
  const int rounds = smoke ? 2 : 3;  // interleaved passes over the query set
  const std::size_t max_pipeline_links = smoke ? 12 : 100;

  datasets::CoraSimOptions cora;
  cora.num_pos_links = smoke ? 60 : 500;
  const auto data = datasets::make_cora_sim(cora);

  // Candidate links for the end-to-end pipeline rows: the held-out test
  // links, capped so the extraction-dominated rows stay affordable.
  std::vector<seal::LinkExample> pipeline_links(
      data.test_links.begin(),
      data.test_links.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(max_pipeline_links, data.test_links.size())));
  if (pipeline_links.size() < data.test_links.size())
    std::fprintf(stderr,
                 "pipeline rows use the first %zu of %zu test links\n",
                 pipeline_links.size(), data.test_links.size());

  const auto hp = core::cora_tuned_defaults();
  std::vector<ModelResult> results;
  std::size_t forward_queries = 0;  // test samples x passes, set below
  for (auto kind :
       {models::GnnKind::kAMDGCNN, models::GnnKind::kVanillaDGCNN}) {
    ModelResult mr;
    mr.model = models::gnn_kind_name(kind);
    for (ag::Dtype dtype : {ag::Dtype::f64, ag::Dtype::f32}) {
      // Native-dtype dataset build: the f32 rows measure f32 compute, not
      // boundary casts.
      const auto seal_ds = core::prepare_seal_dataset(
          data, /*max_subgraph_nodes=*/48, /*max_drnl_label=*/24,
          seal::default_build_threads(), dtype);

      models::ModelConfig mc;
      mc.kind = kind;
      mc.node_feature_dim = seal_ds.node_feature_dim;
      mc.edge_attr_dim = seal_ds.edge_attr_dim;
      mc.num_classes = seal_ds.num_classes;
      mc.hidden_dim = hp.hidden_dim;
      mc.sort_k = hp.sort_k;
      mc.dtype = dtype;
      util::Rng rng(17);
      auto model = models::make_link_gnn(mc, rng);

      models::TrainConfig tc;
      tc.learning_rate = hp.learning_rate;
      tc.seed = 17;
      tc.dtype = dtype;
      models::Trainer trainer(*model, tc);
      for (int e = 0; e < train_epochs; ++e)
        (void)trainer.train_epoch(seal_ds.train);

      core::LinkPredictor::Options po;
      po.dataset.extract.num_hops = 2;
      po.dataset.extract.mode = data.neighborhood_mode;
      po.dataset.extract.max_nodes = 48;
      po.dataset.features.max_drnl_label = 24;
      po.dataset.features.dtype = dtype;
      po.warm_nodes = 48;
      po.warm_edges = 48 * 8;
      core::LinkPredictor predictor(*model, po);

      // Contract check: frozen arena probabilities must equal the training
      // forward's bit-for-bit on every query sample.
      {
        const auto want = trainer.predict_proba(seal_ds.test);
        const auto c = static_cast<std::size_t>(mc.num_classes);
        std::vector<double> got(c);
        for (std::size_t i = 0; i < seal_ds.test.size(); ++i) {
          predictor.predict_proba_sample(seal_ds.test[i], got.data());
          for (std::size_t j = 0; j < c; ++j)
            if (want[i * c + j] != got[j]) {
              std::fprintf(stderr,
                           "FATAL: %s %s arena proba diverges from trainer "
                           "at sample %zu class %zu (%.17g vs %.17g)\n",
                           mr.model.c_str(), ag::dtype_name(dtype), i, j,
                           want[i * c + j], got[j]);
              return 1;
            }
        }
      }

      forward_queries =
          seal_ds.test.size() * static_cast<std::size_t>(rounds);
      const ForwardPair fwd =
          time_forward_pair(trainer, predictor, seal_ds.test, rounds, dtype);
      const RunRow& trainer_row = fwd.trainer;
      const RunRow& arena_row = fwd.arena;
      const double speedup = fwd.speedup;
      (dtype == ag::Dtype::f64 ? mr.speedup_f64 : mr.speedup_f32) = speedup;
      std::printf("%-14s arena/trainer forward speedup (%s): %.2fx "
                  "(trainer p50=%.1fus arena p50=%.1fus)\n",
                  mr.model.c_str(), ag::dtype_name(dtype), speedup,
                  trainer_row.p50_us, arena_row.p50_us);
      // The asserted floor (see the header comment): the paper's model at
      // reference precision must clear 1.5x — set below the ~1.9x
      // steady-state so host throttling cannot flake the full run.  Other
      // combos are reported unasserted.
      if (!smoke && kind == models::GnnKind::kAMDGCNN &&
          dtype == ag::Dtype::f64 && speedup < 1.5) {
        std::fprintf(stderr,
                     "FATAL: %s %s arena forward is only %.2fx the trainer "
                     "forward (asserted floor: >= 1.5x)\n",
                     mr.model.c_str(), ag::dtype_name(dtype), speedup);
        return 1;
      }

      // Serving rows: serial (threads = 0) and deterministic 1-worker
      // pipeline, which must agree bit-for-bit on the whole batch.
      auto serial_row =
          time_pipeline(predictor, data.graph, pipeline_links, 0, dtype);
      core::LinkPredictor::Options po1 = po;
      po1.dataset.num_threads = 1;
      core::LinkPredictor predictor1(*model, po1);
      auto worker_row =
          time_pipeline(predictor1, data.graph, pipeline_links, 1, dtype);
      {
        const auto a = predictor.predict_links(data.graph, pipeline_links);
        const auto b = predictor1.predict_links(data.graph, pipeline_links);
        if (a.proba != b.proba) {
          std::fprintf(stderr,
                       "FATAL: %s %s pipeline is not deterministic across "
                       "worker counts\n",
                       mr.model.c_str(), ag::dtype_name(dtype));
          return 1;
        }
      }

      for (const auto& row :
           {trainer_row, arena_row, serial_row, worker_row}) {
        std::printf("%-14s %-16s %s threads=%d  p50=%8.1fus  p99=%8.1fus  "
                    "%8.1f links/sec  arena_peak=%zuB\n",
                    mr.model.c_str(), row.mode.c_str(), row.dtype.c_str(),
                    row.threads, row.p50_us, row.p99_us, row.links_per_sec,
                    row.arena_peak_bytes);
        mr.runs.push_back(row);
      }
      std::printf("%-14s arena/trainer forward speedup (%s): %.2fx\n",
                  mr.model.c_str(), ag::dtype_name(dtype), speedup);

      // Quantized serving modes (DESIGN.md §2.7).  The f64 iteration pins
      // the reference storage story (v2 checkpoint + resident bytes); the
      // f32 iteration times f16/q8 against the exact f32 arena forward and
      // checks per-mode worker-count determinism.
      const std::string ckpt_tmp =
          out_path + "." + ag::dtype_name(dtype) + ".ckpt.tmp";
      if (dtype == ag::Dtype::f64) {
        models::save_weights(*model, ckpt_tmp);
        mr.quant.ckpt_f64 =
            static_cast<std::size_t>(std::filesystem::file_size(ckpt_tmp));
        std::filesystem::remove(ckpt_tmp);
        mr.quant.weight_f64 = predictor.weight_bytes();
      } else {
        mr.quant.weight_f32 = predictor.weight_bytes();
        for (auto scheme :
             {ag::quant::Scheme::kF16, ag::quant::Scheme::kQ8}) {
          const char* qname = ag::quant::scheme_name(scheme);
          core::LinkPredictor::Options qo = po;
          qo.quantize = scheme;
          core::LinkPredictor qpred(*model, qo);

          models::save_weights_quantized(*model, ckpt_tmp, scheme);
          const auto ckpt_bytes =
              static_cast<std::size_t>(std::filesystem::file_size(ckpt_tmp));
          std::filesystem::remove(ckpt_tmp);

          double qspeed = 0.0;
          auto qrow = time_quant_arena(predictor, qpred, seal_ds.test,
                                       rounds, qname, &qspeed);

          // Each quantized mode must be bit-identical to itself across
          // worker counts (it is NOT bit-identical to the exact f32 path —
          // that is the relaxed-numerics contract, checked for accuracy in
          // bench_table3_accuracy).
          core::LinkPredictor::Options qo1 = qo;
          qo1.dataset.num_threads = 1;
          core::LinkPredictor qpred1(*model, qo1);
          const auto qa = qpred.predict_links(data.graph, pipeline_links);
          const auto qb = qpred1.predict_links(data.graph, pipeline_links);
          if (qa.proba != qb.proba) {
            std::fprintf(stderr,
                         "FATAL: %s %s quantized pipeline is not "
                         "deterministic across worker counts\n",
                         mr.model.c_str(), qname);
            return 1;
          }

          if (scheme == ag::quant::Scheme::kF16) {
            mr.quant.speedup_f16 = qspeed;
            mr.quant.ckpt_f16 = ckpt_bytes;
            mr.quant.weight_f16 = qpred.weight_bytes();
          } else {
            mr.quant.speedup_q8 = qspeed;
            mr.quant.ckpt_q8 = ckpt_bytes;
            mr.quant.weight_q8 = qpred.weight_bytes();
          }
          std::printf("%-14s %-16s %s threads=0  p50=%8.1fus  p99=%8.1fus  "
                      "%8.1f links/sec  arena_peak=%zuB  (%.2fx vs f32 "
                      "arena, ckpt=%zuB, resident=%zuB)\n",
                      mr.model.c_str(), qrow.mode.c_str(), qname, qrow.p50_us,
                      qrow.p99_us, qrow.links_per_sec, qrow.arena_peak_bytes,
                      qspeed, ckpt_bytes, qpred.weight_bytes());
          mr.runs.push_back(qrow);
        }
      }
    }

    // Shrink gate (paper model only; the ratio is shape-independent):
    // q8 checkpoint and resident weights must shrink >= 4x vs the f64
    // reference — expected ~7.1x (1 byte + a shared f32 scale per 32 values
    // against 8-byte doubles), so 4x leaves margin for per-tensor framing
    // overhead on small models.
    {
      const auto& q = mr.quant;
      const double ckpt_shrink = q.ckpt_q8 > 0
                                     ? static_cast<double>(q.ckpt_f64) /
                                           static_cast<double>(q.ckpt_q8)
                                     : 0.0;
      const double weight_shrink = q.weight_q8 > 0
                                       ? static_cast<double>(q.weight_f64) /
                                             static_cast<double>(q.weight_q8)
                                       : 0.0;
      std::printf("%-14s quant storage: ckpt f64=%zuB f16=%zuB q8=%zuB "
                  "(q8 shrink %.2fx), resident f64=%zuB f32=%zuB f16=%zuB "
                  "q8=%zuB (q8 shrink %.2fx)\n",
                  mr.model.c_str(), q.ckpt_f64, q.ckpt_f16, q.ckpt_q8,
                  ckpt_shrink, q.weight_f64, q.weight_f32, q.weight_f16,
                  q.weight_q8, weight_shrink);
      if (kind == models::GnnKind::kAMDGCNN &&
          (ckpt_shrink < 4.0 || weight_shrink < 4.0)) {
        std::fprintf(stderr,
                     "FATAL: %s q8 shrink vs f64 reference is ckpt %.2fx / "
                     "resident %.2fx (asserted floor: >= 4x both)\n",
                     mr.model.c_str(), ckpt_shrink, weight_shrink);
        return 1;
      }
    }
    results.push_back(std::move(mr));
  }

  // Speed gate (full mode): the q8 arena forward is never slower than the
  // exact f32 arena forward, on every model shape.  Both run vectorized
  // tanh; what q8 keeps is its relaxed softmax/reductions and 4x smaller
  // weights, so the floor is parity, not a multiple.
  for (const auto& mr : results) {
    std::printf("%-14s q8 arena speedup vs f32 arena: %.2fx\n",
                mr.model.c_str(), mr.quant.speedup_q8);
    if (!smoke && mr.quant.speedup_q8 < 1.0) {
      std::fprintf(stderr,
                   "FATAL: %s q8 arena forward is only %.2fx the f32 arena "
                   "forward (asserted floor: >= 1x)\n",
                   mr.model.c_str(), mr.quant.speedup_q8);
      return 1;
    }
  }

  write_json(out_path, data.name, forward_queries, pipeline_links.size(),
             results, smoke);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
