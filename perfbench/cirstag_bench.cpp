// perfbench_cirstag — the in-process half of the benchmark (see README.md).
//
//   perfbench_cirstag gen     --gates G --seed S --out F
//       write the workload netlist for seed S (what the daemon is given),
//       and report the build facts of the fingerprint and the shared
//       settings of workload.hpp
//   perfbench_cirstag analyze --gates G --seed S --seconds T [--gnn-seed R]
//       untraced analyze workload: kSetups timed set-ups and
//       CirStag::analyze repeated while the next call is expected to end
//       within T seconds of call time (at least kMinAnalyzeCalls calls,
//       unless the next would end past kMaxAnalyzeWallSeconds of wall
//       time), then the canary ranking
//   perfbench_cirstag trace   --gates G --seed S [--gnn-seed R]
//       traced run: after one warm-up call, up to kTracePairs alternating
//       pairs of analyze() (counter deltas around the first) and the
//       pipeline composed from the public functions that analyze() calls
//       (the program's own graph spans recorded inside the manifold
//       builds), reported as medians; then a 1-thread repeat
//   perfbench_cirstag canary
//       print the canary circuit's top-decile ranking (the committed
//       reference_ranking.json is this output)
//
// Every subcommand prints one JSON object on stdout; run.py turns it into
// metrics and applies the correctness checks. Timing uses steady_clock from
// this file only: nothing is instrumented inside the program.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/cell_library.hpp"
#include "circuit/generator.hpp"
#include "circuit/io.hpp"
#include "circuit/sta.hpp"
#include "circuit/views.hpp"
#include "core/cirstag.hpp"
#include "core/manifold.hpp"
#include "core/spectral_embedding.hpp"
#include "core/stability.hpp"
#include "gnn/timing_gnn.hpp"
#include "graphs/solver_cache.hpp"
#include "kernels/kernels.hpp"
#include "obs/health.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace cirstag;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- options ------------------------------------------------------------------

using Options = std::map<std::string, std::string>;

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_cirstag: bad option '%s'\n", argv[i]);
      std::exit(2);
    }
    opts[argv[i] + 2] = argv[i + 1];
  }
  return opts;
}

const std::string& opt(const Options& o, const std::string& k) {
  const auto it = o.find(k);
  if (it == o.end()) throw std::runtime_error("--" + k + " is required");
  return it->second;
}

std::size_t opt_size(const Options& o, const std::string& k) {
  return std::stoull(opt(o, k));
}

// -- JSON output --------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Flat JSON object writer: fields are appended in call order.
class JsonObject {
 public:
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
  }
  void number(const std::string& key, double v) { raw(key, num(v)); }
  void string(const std::string& key, const std::string& v) {
    raw(key, quoted(v));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -- process / program facts --------------------------------------------------

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Build facts of the fingerprint and the shared settings (workload.hpp).
void add_facts(JsonObject& out) {
  const obs::BuildInfo& build = obs::build_info();
  out.string("simd", kernels::active_isa());
  out.string("build_type", build.build_type);
  out.string("git_describe", build.git_describe);
  out.number("threads", static_cast<double>(kThreads));
  out.number("workers", static_cast<double>(kWorkers));
  out.number("epochs", static_cast<double>(kEpochs));
  out.number("hidden", static_cast<double>(kHidden));
  out.number("setups", static_cast<double>(kSetups));
  out.string("circuit", kCircuitName);
}

/// Counter totals of the program's own registry (obs::MetricsRegistry).
using Counters = std::map<std::string, double>;

Counters read_counters() {
  Counters out;
  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters)
    out[name] = static_cast<double>(value);
  return out;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- workload inputs ----------------------------------------------------------

const circuit::CellLibrary& library() {
  static const circuit::CellLibrary lib = circuit::CellLibrary::standard();
  return lib;
}

/// The workload circuit: the CLI generator's shape (`cirstag_cli generate`)
/// at `gates` gates, drawn from `seed`.
circuit::Netlist make_circuit(std::size_t gates, std::uint64_t seed) {
  circuit::RandomCircuitSpec spec;
  spec.name = "perfbench";
  spec.num_gates = gates;
  spec.num_inputs = std::max<std::size_t>(16, gates / 40);
  spec.num_outputs = std::max<std::size_t>(8, gates / 80);
  spec.num_levels = 12;
  spec.seed = seed;
  return circuit::generate_random_logic(library(), spec);
}

/// The GNN settings of the serve workloads' /load body. --gnn-seed draws
/// the surrogate's initial weights, i.e. which trained model CirSTAG
/// analyzes; without it (and in the daemon) the default seed is used.
gnn::TimingGnnOptions gnn_options(const Options& o) {
  gnn::TimingGnnOptions g;
  g.epochs = kEpochs;
  g.hidden_dim = kHidden;
  if (o.count("gnn-seed") != 0) g.seed = opt_size(o, "gnn-seed");
  return g;
}

/// Everything analyze() consumes, plus how long each set-up step took.
struct Prepared {
  circuit::Netlist netlist;
  graphs::Graph graph;
  linalg::Matrix features;
  linalg::Matrix embedding;
  double r2 = 0.0;
  double sta_s = 0.0, train_s = 0.0, embed_s = 0.0;
  double total_s = 0.0;
};

/// The designer's set-up before a stability report: generate, golden STA,
/// surrogate training, embedding.
Prepared prepare(std::size_t gates, std::uint64_t seed,
                 const gnn::TimingGnnOptions& gopts) {
  const auto t0 = Clock::now();
  Prepared p{make_circuit(gates, seed), {}, {}, {}};
  auto t = Clock::now();
  const circuit::TimingReport sta = circuit::run_sta(p.netlist);
  p.sta_s = since(t);
  if (sta.arrival.empty()) throw std::runtime_error("STA produced no arrivals");
  t = Clock::now();
  gnn::TimingGnn model(p.netlist, gopts);
  p.r2 = model.train().r2;
  p.train_s = since(t);
  t = Clock::now();
  p.features = model.base_features();
  p.embedding = model.embed(p.features);
  p.graph = circuit::pin_graph(p.netlist);
  p.embed_s = since(t);
  p.total_s = since(t0);
  return p;
}

std::size_t nonfinite(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [](double x) { return !std::isfinite(x); }));
}

std::size_t health_errors(const core::CirStagReport& r) {
  return r.health.count(obs::HealthSeverity::error);
}

// -- canary -------------------------------------------------------------------

/// Node ids of the top tenth of a score vector, highest first (ties by id).
std::vector<std::size_t> top_decile(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  order.resize((scores.size() + 9) / 10);
  return order;
}

/// Fixed canary circuit: its ranking is compared against the committed
/// reference, independent of the workload seed.
constexpr std::size_t kCanaryGates = 400;
constexpr std::uint64_t kCanarySeed = 2025;

std::string canary_json() {
  const Prepared p = prepare(kCanaryGates, kCanarySeed, gnn_options({}));
  const core::CirStag analyzer;
  const auto report = analyzer.analyze(p.graph, p.features, p.embedding);
  std::string ids = "[";
  const auto top = top_decile(report.node_scores);
  for (std::size_t i = 0; i < top.size(); ++i)
    ids += (i ? ", " : "") + std::to_string(top[i]);
  ids += "]";
  JsonObject out;
  out.number("gates", kCanaryGates);
  out.number("seed", kCanarySeed);
  out.number("pins", static_cast<double>(report.node_scores.size()));
  out.raw("top_decile", ids);
  return out.str();
}

// -- subcommands --------------------------------------------------------------

int cmd_gen(const Options& o) {
  const circuit::Netlist nl =
      make_circuit(opt_size(o, "gates"), opt_size(o, "seed"));
  circuit::save_netlist(opt(o, "out"), nl);
  JsonObject out;
  out.number("pins", static_cast<double>(nl.num_pins()));
  out.number("gates", static_cast<double>(nl.num_gates()));
  add_facts(out);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int cmd_analyze(const Options& o) {
  const std::size_t gates = opt_size(o, "gates");
  const std::uint64_t seed = opt_size(o, "seed");
  const double seconds = std::stod(opt(o, "seconds"));
  const gnn::TimingGnnOptions gopts = gnn_options(o);
  runtime::set_global_threads(kThreads);
  const auto begin = Clock::now();

  std::vector<double> setup_s, sta_s, train_s, embed_s, analyze_s;
  std::optional<Prepared> prepared;
  const auto set_up = [&] {
    prepared.emplace(prepare(gates, seed, gopts));
    setup_s.push_back(prepared->total_s);
    sta_s.push_back(prepared->sta_s);
    train_s.push_back(prepared->train_s);
    embed_s.push_back(prepared->embed_s);
  };

  core::CirStagConfig cfg;
  cfg.threads = kThreads;
  const core::CirStag analyzer(cfg);
  std::string checksums = "[";
  std::vector<double> bad_scores, errors;
  const auto call = [&] {
    const Prepared& p = *prepared;
    const auto t = Clock::now();
    const auto report = analyzer.analyze(p.graph, p.features, p.embedding);
    analyze_s.push_back(since(t));
    checksums += (analyze_s.size() > 1 ? ", " : "") +
                 quoted(hex(report.checksums.node_scores));
    bad_scores.push_back(static_cast<double>(nonfinite(report.node_scores)));
    errors.push_back(static_cast<double>(health_errors(report)));
  };

  // Peak RSS is read after one set-up and one call, before the repeated
  // set-ups and calls: that is the footprint of one stability report, and
  // later rounds only add allocator slack that varies run to run.
  set_up();
  call();
  const double rss = peak_rss_mb();
  while (setup_s.size() < kSetups) set_up();
  // Calls continue while another one is expected to end within `seconds`
  // of summed call time. On a host so contended that the next call would
  // end past kMaxAnalyzeWallSeconds of wall time, fewer than
  // kMinAnalyzeCalls are made: the run still reports instead of being
  // killed.
  double measured_s = analyze_s.back();
  while ((analyze_s.size() < kMinAnalyzeCalls ||
          measured_s + analyze_s.back() <= seconds) &&
         since(begin) + analyze_s.back() <= kMaxAnalyzeWallSeconds) {
    call();
    measured_s += analyze_s.back();
  }
  checksums += "]";
  const Prepared& p = *prepared;

  JsonObject out;
  out.number("pins", static_cast<double>(p.netlist.num_pins()));
  out.raw("setup_s", num_list(setup_s));
  out.raw("sta_s", num_list(sta_s));
  out.raw("train_s", num_list(train_s));
  out.raw("embed_s", num_list(embed_s));
  out.raw("analyze_s", num_list(analyze_s));
  out.number("measured_s", measured_s);
  out.raw("checksums", checksums);
  out.raw("nonfinite_scores", num_list(bad_scores));
  out.raw("health_errors", num_list(errors));
  out.number("r2", p.r2);
  out.number("peak_rss_mb", rss);
  add_facts(out);
  out.raw("canary", canary_json());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Summed durations (s) of the events the program's own spans recorded
/// under `name` while the global tracer was on.
double span_seconds(const std::vector<obs::Tracer::Event>& events,
                    const std::string& name) {
  double us = 0.0;
  for (const auto& e : events)
    if (e.name == name) us += e.dur_us;
  return us * 1e-6;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Wall times (s) of one run of the pipeline composed from the public
/// functions analyze() calls, keyed by per-layer metric name.
using PhaseTimes = std::map<std::string, double>;

/// The traced run makes at most this many analyze()/composed pairs.
constexpr std::size_t kTracePairs = 3;

int cmd_trace(const Options& o) {
  const auto begin = Clock::now();
  runtime::set_global_threads(kThreads);
  const Prepared p = prepare(opt_size(o, "gates"), opt_size(o, "seed"),
                             gnn_options(o));

  JsonObject layer;  // per-layer metrics, named as in BENCHMARK.json
  layer.number("gnn.train_s", p.train_s);
  layer.number("gnn.embed_s", p.embed_s);
  layer.number("circuit.sta_s", p.sta_s);

  core::CirStagConfig cfg;
  cfg.threads = kThreads;
  const core::CirStag analyzer(cfg);

  // One untimed call, so that first-call costs (page faults, arena and pool
  // start-up) fall in none of the timed calls compared below.
  (void)analyzer.analyze(p.graph, p.features, p.embedding);

  // analyze() as the workload calls it. core.remainder_s comes from each
  // call itself: its wall time minus the phase times its report records.
  std::vector<double> analyze_s, remainder_s;
  std::optional<core::CirStagReport> report;
  bool analyze_checksums_agree = true;
  Counters c0, c1;
  const auto timed_analyze = [&] {
    const Counters before = read_counters();
    const auto t = Clock::now();
    auto r = analyzer.analyze(p.graph, p.features, p.embedding);
    analyze_s.push_back(since(t));
    remainder_s.push_back(analyze_s.back() - r.timings.total());
    if (!report) {  // counter deltas of the first timed call
      c0 = before;
      c1 = read_counters();
      report.emplace(std::move(r));
    } else if (r.checksums.node_scores != report->checksums.node_scores) {
      analyze_checksums_agree = false;
    }
  };

  // The same computation composed from the public functions analyze()
  // calls, in its order; each phase timed on its own. The program's
  // knn.build, sketch.reff and sparsify.pgm spans are recorded during the
  // manifold builds, which times those functions on their real inputs.
  std::map<std::string, std::vector<double>> phases;
  std::uint64_t composed_checksum = 0;
  Counters c2, c_manifolds, c3;
  obs::Tracer& tracer = obs::Tracer::global();
  const auto composed = [&] {
    const Counters before = read_counters();
    PhaseTimes times;
    const auto start = Clock::now();
    auto t = Clock::now();
    const linalg::Matrix u = core::spectral_embedding(p.graph, cfg.embedding);
    const linalg::Matrix x = core::augment_embedding(
        u, core::apply_feature_stats(
               p.features,
               core::fit_feature_stats(p.features, cfg.feature_weight)));
    times["core.embedding_s"] = since(t);
    graphs::LaplacianSolverCache cache;
    tracer.clear();
    tracer.set_enabled(true);
    t = Clock::now();
    const graphs::Graph mx = core::build_manifold(x, cfg.manifold, &cache);
    times["core.manifold_x_s"] = since(t);
    t = Clock::now();
    const graphs::Graph my =
        core::build_manifold(p.embedding, cfg.manifold, &cache);
    times["core.manifold_y_s"] = since(t);
    tracer.set_enabled(false);
    const Counters after_manifolds = read_counters();
    t = Clock::now();
    const core::StabilityResult stab =
        core::stability_scores(mx, my, cfg.stability, &cache);
    times["core.stability_s"] = since(t);
    times["composed_s"] = since(start);
    const auto events = tracer.events();
    tracer.clear();
    times["graphs.knn_s"] = span_seconds(events, "knn.build");
    times["graphs.sketch_s"] = span_seconds(events, "sketch.reff");
    times["graphs.sparsify_s"] = span_seconds(events, "sparsify.pgm");
    for (const auto& [name, seconds] : times) phases[name].push_back(seconds);
    const std::uint64_t checksum = obs::fnv1a_doubles(stab.node_scores);
    if (phases["composed_s"].size() == 1) {  // counter deltas of the first
      composed_checksum = checksum;
      c2 = before;
      c_manifolds = after_manifolds;
      c3 = read_counters();
    } else if (checksum != composed_checksum) {
      composed_checksum = 0;  // never equal to analyze()'s: the check fails
    }
  };

  // Alternating pairs, so that the medians compare calls made under the
  // same host load. Another pair is made only while it, and the 1-thread
  // call after it (budgeted at two 4-thread calls), are expected to end
  // within kMaxAnalyzeWallSeconds.
  do {
    timed_analyze();
    composed();
  } while (analyze_s.size() < kTracePairs &&
           since(begin) + 3.0 * analyze_s.back() +
                   phases["composed_s"].back() <=
               kMaxAnalyzeWallSeconds);
  const double analyze_med = median(analyze_s);
  const double busy = delta(c0, c1, "runtime.pool.busy_ns") * 1e-9;
  layer.number("runtime.pool_regions", delta(c0, c1, "runtime.pool.runs"));
  layer.number("runtime.pool_tasks", delta(c0, c1, "runtime.pool.tasks"));
  layer.number("runtime.busy_s", busy);
  layer.number("runtime.idle_s", delta(c0, c1, "runtime.pool.idle_ns") * 1e-9);
  layer.number("runtime.efficiency",
               ratio(busy, analyze_s.front() * static_cast<double>(kThreads)));
  layer.number("linalg.blockcg_col_iters",
               delta(c0, c1, "blockcg.column_iterations"));
  layer.number("linalg.blockcg_sweeps", delta(c0, c1, "blockcg.sweeps"));
  layer.number("linalg.eigen_subspace_iters",
               delta(c0, c1, "eigen.subspace_iterations"));
  layer.number("linalg.ritz_refine_sweeps",
               delta(c0, c1, "eigen.ritz_refine_sweeps"));
  layer.number("linalg.lanczos_restarts", delta(c0, c1, "lanczos.restarts"));
  const double reused = delta(c0, c1, "arena.bytes_reused");
  layer.number("util.arena_reuse_frac",
               ratio(reused, reused + delta(c0, c1, "arena.bytes_allocated")));
  layer.number("core.remainder_s", median(remainder_s));
  for (const auto& [name, seconds] : phases)
    if (name != "composed_s") layer.number(name, median(seconds));
  const double composed_med = median(phases["composed_s"]);
  layer.number("trace.overhead_frac", composed_med / analyze_med - 1.0);
  layer.number("graphs.knn_edges", delta(c2, c_manifolds, "knn.edges"));
  layer.number("graphs.sketch_cg_iters",
               delta(c2, c_manifolds, "sketch.cg_iterations"));
  layer.number("graphs.sparsify_kept_frac",
               ratio(delta(c2, c_manifolds, "sparsify.kept_edges"),
                     delta(c2, c_manifolds, "sparsify.input_edges")));
  const double hits = delta(c2, c3, "solver_cache.hits");
  layer.number("graphs.solver_cache_hit_frac",
               ratio(hits, hits + delta(c2, c3, "solver_cache.misses")));

  // The same analyze() on one thread.
  core::CirStagConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  const auto t = Clock::now();
  const auto serial = core::CirStag(serial_cfg).analyze(p.graph, p.features,
                                                        p.embedding);
  const double serial_s = since(t);
  runtime::set_global_threads(kThreads);
  layer.number("runtime.speedup_t4_vs_t1", serial_s / analyze_med);

  JsonObject out;
  out.number("pins", static_cast<double>(p.netlist.num_pins()));
  out.number("r2", p.r2);
  out.number("pairs", static_cast<double>(analyze_s.size()));
  out.number("analyze_s", analyze_med);
  out.number("composed_s", composed_med);
  out.number("serial_analyze_s", serial_s);
  out.string("analyze_checksum", hex(report->checksums.node_scores));
  out.raw("analyze_checksums_agree", analyze_checksums_agree ? "true" : "false");
  out.string("composed_checksum", hex(composed_checksum));
  out.string("serial_checksum", hex(serial.checksums.node_scores));
  out.number("nonfinite_scores",
             static_cast<double>(nonfinite(report->node_scores)));
  out.number("health_errors", static_cast<double>(health_errors(*report)));
  add_facts(out);
  out.raw("layers", layer.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_cirstag gen|analyze|trace|canary "
                 "[--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Options opts = parse_options(argc, argv);
  try {
    if (cmd == "gen") return cmd_gen(opts);
    if (cmd == "analyze") return cmd_analyze(opts);
    if (cmd == "trace") return cmd_trace(opts);
    if (cmd == "canary") {
      std::printf("%s\n", canary_json().c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cirstag %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_cirstag: unknown command '%s'\n",
               cmd.c_str());
  return 2;
}
