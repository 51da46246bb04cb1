// amdgcnn_serve — answer link-classification queries with a trained model.
//
//   amdgcnn_serve --dataset primekg|biokg|wordnet|cora --weights FILE
//                 [--model am|vanilla]   (default am; must match the save)
//                 [--hidden N] [--sort-k N] [--dtype f32|f64]
//                 [--quantize none|f16|q8]  (default none = exact forward)
//                 [--queries FILE]       (default: read stdin)
//                 [--threads N]          (0 = serial batch, default)
//                 [--workers N]          (0 = one-shot predict_links, default;
//                                         N>0 = persistent serve::Server)
//                 [--batch N]            (links per request; 0 = all in one)
//                 [--repeat N]           (replay the query stream N times)
//                 [--proba]              (print per-class probabilities)
//
// Loads the checkpoint ONCE into a frozen inference engine
// (core::LinkPredictor — arena-allocated forward pass, no autograd), then
// classifies one "<node-a> <node-b>" query per input line.  Blank lines and
// '#' comments are skipped.  Output, one line per query:
//
//   <node-a> <node-b> <predicted-class> [p0 p1 ...]
//
// With --workers N the queries flow through the persistent serving runtime
// (serve::Server, DESIGN.md §2.8): warm pooled workers, batched
// endpoint-grouped scoring and the cross-query score/frontier caches.  Both
// paths produce bit-identical predictions; --repeat replays the stream so
// cache-hit steady state is visible in the counters.  The stderr summary
// reports per-request p50/p99 latency and cache hit rates.
//
// The model flags must reproduce the configuration the checkpoint was saved
// with (amdgcnn_cli --save); mismatches are rejected at load time with the
// offending parameter spelled out.  Summary statistics go to stderr so the
// classification stream stays pipeable.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/link_predictor.h"
#include "serve/server.h"
#include "datasets/biokg_sim.h"
#include "datasets/cora_sim.h"
#include "datasets/primekg_sim.h"
#include "datasets/wordnet_sim.h"
#include "graph/subgraph.h"
#include "models/serialize.h"
#include "util/stopwatch.h"

using namespace amdgcnn;

namespace {

struct ServeOptions {
  std::string dataset = "primekg";
  std::string model = "am";
  std::string weights;
  std::string queries_path;  // empty = stdin
  std::int64_t hidden = 0;   // 0 = dataset default (matches amdgcnn_cli)
  std::int64_t sort_k = 0;
  std::int64_t threads = 0;
  std::int64_t workers = 0;  // 0 = one-shot predict_links path
  std::int64_t batch = 0;    // links per request; 0 = whole stream at once
  std::int64_t repeat = 1;
  std::string dtype = "f32";
  std::string quantize = "none";
  bool proba = false;
};

void usage() {
  std::cerr << "usage: amdgcnn_serve --dataset primekg|biokg|wordnet|cora "
               "--weights FILE\n"
               "  [--model am|vanilla] [--hidden N] [--sort-k N]\n"
               "  [--dtype f32|f64] [--quantize none|f16|q8]\n"
               "  [--queries FILE] [--threads N] [--workers N] [--batch N]\n"
               "  [--repeat N] [--proba]\n";
}

bool parse(int argc, char** argv, ServeOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--dataset") opts.dataset = next();
    else if (arg == "--model") opts.model = next();
    else if (arg == "--weights") opts.weights = next();
    else if (arg == "--queries") opts.queries_path = next();
    else if (arg == "--hidden") opts.hidden = std::atoll(next());
    else if (arg == "--sort-k") opts.sort_k = std::atoll(next());
    else if (arg == "--threads") opts.threads = std::atoll(next());
    else if (arg == "--workers") opts.workers = std::atoll(next());
    else if (arg == "--batch") opts.batch = std::atoll(next());
    else if (arg == "--repeat") opts.repeat = std::atoll(next());
    else if (arg == "--dtype") opts.dtype = next();
    else if (arg == "--quantize") opts.quantize = next();
    else if (arg == "--proba") opts.proba = true;
    else if (arg == "--help" || arg == "-h") return false;
    else throw std::runtime_error("unknown flag: " + arg);
  }
  if (opts.weights.empty()) throw std::runtime_error("--weights is required");
  if (opts.workers < 0) throw std::runtime_error("--workers must be >= 0");
  if (opts.batch < 0) throw std::runtime_error("--batch must be >= 0");
  if (opts.repeat < 1) throw std::runtime_error("--repeat must be >= 1");
  return true;
}

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

ag::Dtype parse_dtype(const std::string& name) {
  if (name == "f32") return ag::Dtype::f32;
  if (name == "f64") return ag::Dtype::f64;
  throw std::runtime_error("--dtype must be f32 or f64, got: " + name);
}

ag::quant::Scheme parse_quantize(const std::string& name) {
  if (name == "none") return ag::quant::Scheme::kNone;
  if (name == "f16") return ag::quant::Scheme::kF16;
  if (name == "q8") return ag::quant::Scheme::kQ8;
  throw std::runtime_error("--quantize must be none, f16 or q8, got: " + name);
}

// The simulated datasets are deterministic generators, so rebuilding with the
// amdgcnn_cli defaults reproduces the exact graph the model was trained on.
datasets::LinkDataset build_dataset(const std::string& name) {
  if (name == "primekg") {
    datasets::PrimeKGSimOptions o;
    o.scale = 0.5;
    o.num_train = 800;
    o.num_test = 200;
    return datasets::make_primekg_sim(o);
  }
  if (name == "biokg") {
    datasets::BioKGSimOptions o;
    o.scale = 0.5;
    o.num_train = 650;
    o.num_test = 200;
    return datasets::make_biokg_sim(o);
  }
  if (name == "wordnet") {
    datasets::WordNetSimOptions o;
    o.num_nodes = 2000;
    o.num_train = 1300;
    o.num_test = 300;
    return datasets::make_wordnet_sim(o);
  }
  if (name == "cora") {
    datasets::CoraSimOptions o;
    o.num_pos_links = 500;
    return datasets::make_cora_sim(o);
  }
  throw std::runtime_error("unknown dataset: " + name);
}

std::int64_t default_hidden(const std::string& dataset) {
  if (dataset == "primekg") return 32;
  if (dataset == "biokg" || dataset == "wordnet") return 64;
  return core::cora_tuned_defaults().hidden_dim;
}

std::int64_t default_sort_k(const std::string& dataset) {
  if (dataset == "primekg") return 24;
  if (dataset == "wordnet") return 20;
  return core::cora_tuned_defaults().sort_k;
}

std::vector<seal::LinkExample> read_queries(std::istream& in,
                                            std::int64_t num_nodes) {
  std::vector<seal::LinkExample> links;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream row(line);
    seal::LinkExample link;
    if (!(row >> link.a >> link.b))
      throw std::runtime_error("query line " + std::to_string(lineno) +
                               ": expected '<node-a> <node-b>', got: " + line);
    if (link.a < 0 || link.a >= num_nodes || link.b < 0 || link.b >= num_nodes)
      throw std::runtime_error("query line " + std::to_string(lineno) +
                               ": node id out of range [0, " +
                               std::to_string(num_nodes) + ")");
    if (link.a == link.b)
      throw std::runtime_error("query line " + std::to_string(lineno) +
                               ": self-links are not classifiable");
    links.push_back(link);
  }
  return links;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  try {
    if (!parse(argc, argv, opts)) {
      usage();
      return 0;
    }
    const ag::Dtype dtype = parse_dtype(opts.dtype);

    util::Stopwatch watch;
    const auto data = build_dataset(opts.dataset);

    // Same extraction / feature recipe as core::prepare_seal_dataset, minus
    // the sample builds — serve only needs the graph and the feature widths.
    core::LinkPredictor::Options predictor_options;
    auto& ds = predictor_options.dataset;
    ds.extract.num_hops = 2;
    ds.extract.mode = data.neighborhood_mode;
    ds.extract.max_nodes = 48;
    ds.features.max_drnl_label = 24;
    ds.features.dtype = dtype;
    ds.num_threads = opts.threads;
    predictor_options.warm_nodes = ds.extract.max_nodes;
    predictor_options.warm_edges = ds.extract.max_nodes * 8;
    predictor_options.quantize = parse_quantize(opts.quantize);

    models::ModelConfig mc;
    mc.kind = opts.model == "vanilla" ? models::GnnKind::kVanillaDGCNN
                                      : models::GnnKind::kAMDGCNN;
    mc.node_feature_dim = seal::node_feature_dim(data.graph, ds.features);
    mc.edge_attr_dim = data.graph.edge_attr_dim();
    mc.num_classes = data.num_classes;
    mc.hidden_dim = opts.hidden > 0 ? opts.hidden : default_hidden(opts.dataset);
    mc.sort_k = opts.sort_k > 0 ? opts.sort_k : default_sort_k(opts.dataset);
    mc.dtype = dtype;

    util::Rng rng(1);  // overwritten by the checkpoint
    auto model = models::make_link_gnn(mc, rng);
    models::load_weights(*model, opts.weights,
                         std::string(models::gnn_kind_name(mc.kind)) + " " +
                             opts.dataset + " " + opts.dtype);
    core::LinkPredictor predictor(*model, predictor_options);
    model.reset();  // the frozen engine shares the parameter storage
    std::cerr << "amdgcnn_serve: " << opts.dataset << " graph ("
              << data.graph.num_nodes() << " nodes), "
              << models::gnn_kind_name(mc.kind) << " " << opts.dtype;
    if (predictor_options.quantize != ag::quant::Scheme::kNone)
      std::cerr << " (quantized " << ag::quant::scheme_name(
                       predictor_options.quantize)
                << ", " << predictor.weight_bytes() << " B resident)";
    std::cerr << " checkpoint loaded in " << watch.seconds() << " s\n";

    std::vector<seal::LinkExample> links;
    if (opts.queries_path.empty()) {
      links = read_queries(std::cin, data.graph.num_nodes());
    } else {
      std::ifstream in(opts.queries_path);
      if (!in)
        throw std::runtime_error("cannot open queries file: " +
                                 opts.queries_path);
      links = read_queries(in, data.graph.num_nodes());
    }
    if (links.empty()) {
      std::cerr << "amdgcnn_serve: no queries\n";
      return 0;
    }

    // Chunk the stream into requests of --batch links (0 = one request) and
    // replay it --repeat times.  Every pass scores every link; later passes
    // show the caches at steady state.  Predictions are taken from the last
    // pass — bit-identical to the first by the §2.8 cache contract.
    const std::size_t batch =
        opts.batch > 0 ? static_cast<std::size_t>(opts.batch) : links.size();
    std::unique_ptr<serve::Server> server;
    if (opts.workers > 0) {
      serve::ServerOptions so;
      so.num_workers = static_cast<int>(opts.workers);
      server = std::make_unique<serve::Server>(predictor, data.graph, so);
    }

    const std::int64_t c = predictor.config().num_classes;
    core::LinkPredictions predictions;
    predictions.num_classes = c;
    predictions.labels.resize(links.size());
    predictions.proba.resize(links.size() * static_cast<std::size_t>(c));
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<std::size_t>(opts.repeat) *
                         ((links.size() + batch - 1) / batch));

    watch = util::Stopwatch();
    for (std::int64_t pass = 0; pass < opts.repeat; ++pass) {
      for (std::size_t begin = 0; begin < links.size(); begin += batch) {
        const auto end = std::min(begin + batch, links.size());
        const std::vector<seal::LinkExample> request(links.begin() + begin,
                                                     links.begin() + end);
        util::Stopwatch request_watch;
        const auto part = server
                              ? server->score_batch(request)
                              : predictor.predict_links(data.graph, request);
        latencies_ms.push_back(request_watch.seconds() * 1e3);
        std::copy(part.labels.begin(), part.labels.end(),
                  predictions.labels.begin() + begin);
        std::copy(part.proba.begin(), part.proba.end(),
                  predictions.proba.begin() + begin * c);
      }
    }
    const double seconds = watch.seconds();

    for (std::size_t i = 0; i < links.size(); ++i) {
      std::cout << links[i].a << " " << links[i].b << " "
                << predictions.labels[i];
      if (opts.proba)
        for (std::int64_t j = 0; j < c; ++j)
          std::cout << " " << predictions.proba[i * c + j];
      std::cout << "\n";
    }

    const auto total_links = links.size() * static_cast<std::size_t>(opts.repeat);
    std::cerr << "amdgcnn_serve: " << total_links << " links ("
              << links.size() << " x" << opts.repeat << ") in "
              << seconds << " s ("
              << static_cast<double>(total_links) / seconds << " links/s, "
              << latencies_ms.size() << " requests, p50 "
              << percentile(latencies_ms, 0.50) << " ms, p99 "
              << percentile(latencies_ms, 0.99) << " ms)\n";
    if (server) {
      const auto s = server->stats();
      std::cerr << "amdgcnn_serve: server workers=" << server->num_workers()
                << " scored=" << s.scored << "/" << s.links
                << " deduped=" << s.deduped
                << " score-hit=" << rate(s.score_hits, s.score_misses)
                << " endpoint-hit=" << rate(s.endpoint_hits, s.endpoint_misses)
                << " row-hit=" << rate(s.row_hits, s.row_misses) << "\n";
      server->shutdown();
    } else {
      const auto f = graph::frontier_cache_stats();
      std::cerr << "amdgcnn_serve: predictor frontier-hit="
                << rate(f.hits, f.misses) << " arena peak "
                << predictor.arena_peak_bytes() << " B\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return 1;
  }
}
