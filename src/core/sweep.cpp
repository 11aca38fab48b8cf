#include "core/sweep.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/perturb.hpp"
#include "circuit/views.hpp"
#include "graphs/laplacian.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace cirstag::core {

namespace {

/// Rows of `a` that moved from the same row of `b` (same shape assumed):
/// a positive squared L2 row distance.
std::vector<std::uint32_t> changed_rows(const linalg::Matrix& a,
                                        const linalg::Matrix& b) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    double d2 = 0.0;
    for (std::size_t c = 0; c < ra.size(); ++c) {
      const double d = ra[c] - rb[c];
      d2 += d * d;
    }
    if (d2 > 0.0) out.push_back(static_cast<std::uint32_t>(r));
  }
  return out;
}

}  // namespace

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  if (!netlist.finalized())
    throw std::invalid_argument("SweepEngine: netlist must be finalized");
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.baseline", "sweep");
  obs::WallTimer timer;

  pin_graph_ = circuit::pin_graph(netlist);
  const linalg::Matrix features0 = circuit::pin_features(netlist);
  snap_ = model.snapshot(features0);
  sta_ = std::make_unique<circuit::IncrementalSta>(netlist);
  baseline_timing_ = sta_->baseline_report();

  build_baseline(pin_graph_, features0,
                 snap_.layer_outputs.empty() ? snap_.std_features
                                             : snap_.layer_outputs.back());
  stats_.baseline_seconds = timer.elapsed_seconds();
}

SweepEngine::SweepEngine(const graphs::Graph& input_graph,
                         const linalg::Matrix& node_features,
                         const linalg::Matrix& output_embedding,
                         SweepOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.baseline", "sweep");
  obs::WallTimer timer;
  build_baseline(input_graph, node_features, output_embedding);
  stats_.baseline_seconds = timer.elapsed_seconds();
}

SweepEngine::SweepEngine(const circuit::Netlist& netlist, gnn::TimingGnn& model,
                         SweepOptions opts, SweepBaselineState state)
    : opts_(std::move(opts)), netlist_(&netlist), model_(&model) {
  if (!netlist.finalized())
    throw std::invalid_argument("SweepEngine: netlist must be finalized");
  if (opts_.config.threads != 0)
    runtime::set_global_threads(opts_.config.threads);
  const obs::TraceSpan span("sweep.restore", "sweep");
  static const obs::Counter restores("sweep.baseline_restores");
  restores.add();
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();
  obs::WallTimer timer;

  // Cheap derived state — recomputed, not serialized: the pin graph and
  // feature matrix are pure functions of the netlist, the GNN snapshot is
  // one forward pass on the already-trained model, and the incremental-STA
  // baseline is one levelized traversal. None of them touch an eigensolver.
  pin_graph_ = circuit::pin_graph(netlist);
  snap_ = model.snapshot(circuit::pin_features(netlist));
  sta_ = std::make_unique<circuit::IncrementalSta>(netlist);
  baseline_timing_ = sta_->baseline_report();

  // Adopt the warm state after shape validation against this netlist/model.
  const std::size_t n = pin_graph_.num_nodes();
  const CirStagConfig& cfg = opts_.config;
  if (state.baseline.node_scores.size() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot node scores do not match the netlist (" +
        std::to_string(state.baseline.node_scores.size()) + " vs " +
        std::to_string(n) + " pins)");
  if (cfg.use_dimension_reduction && state.u0.rows() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot spectral embedding does not match the netlist");
  if (state.baseline.manifold_x.num_nodes() != n ||
      state.baseline.manifold_y.num_nodes() != n)
    throw std::invalid_argument(
        "SweepEngine: snapshot manifolds do not match the netlist");
  u0_ = std::move(state.u0);
  mx_base_ = std::move(state.mx);
  my_base_ = std::move(state.my);
  hier0_ = std::move(state.hier0);
  baseline_ = std::move(state.baseline);
  // Re-derive the adopted report's checksums and re-run its sentinels, so
  // the restored baseline carries provenance and a health window of its own.
  seal_report(pin_graph_, baseline_);

  // Pre-seed the solver cache with the variant-phase (L_Y + I/σ²) solver,
  // reattaching the snapshot's factored spanning-tree preconditioner so the
  // first variant skips the Kruskal + BFS + LDLᵀ build too. The Laplacian
  // assembly itself is O(m) and recomputed here.
  if (!state.variant_tree.empty()) {
    const graphs::SolverOptions vopts =
        ly_solver_options(variant_stability_options());
    if (state.variant_tree.dimension() == n) {
      auto solver = std::make_shared<const linalg::LaplacianSolver>(
          graphs::laplacian(baseline_.manifold_y), vopts.regularization,
          vopts.cg, std::move(state.variant_tree));
      cache_.insert(baseline_.manifold_y, vopts, std::move(solver));
    }
  }
  baseline_.health = obs::HealthMonitor::global().collect_since(health_begin);
  stats_.baseline_seconds = timer.elapsed_seconds();
}

StabilityOptions SweepEngine::variant_stability_options() const {
  StabilityOptions so = opts_.config.stability;
  if (!opts_.exact) {
    // Phase-3 levers, each keeping the cold deterministic start: the
    // spanning-tree preconditioner and kFastCgTolerance for the inner
    // solves (Phase 3 makes no discrete decisions, so they move scores at
    // tolerance level only), plus the kFastRitzTolerance early stop (the
    // whole drift budget).
    so.preconditioner = graphs::SolverPreconditioner::spanning_tree;
    so.cg_tolerance = kFastCgTolerance;
    so.ritz_tolerance = kFastRitzTolerance;
  }
  return so;
}

SweepBaselineState SweepEngine::export_baseline_state() {
  if (netlist_ == nullptr)
    throw std::logic_error(
        "SweepEngine: snapshot export needs a Case-A engine");
  SweepBaselineState state;
  state.baseline = baseline_;
  state.u0 = u0_;
  state.mx = mx_base_;
  state.my = my_base_;
  state.hier0 = hier0_;
  // Export the variant-phase solver's tree factorization (builds through
  // the shared cache when no variant has demanded it yet — snapshot-write
  // time, so the one-off cost is fine).
  const graphs::SolverOptions vopts =
      ly_solver_options(variant_stability_options());
  if (vopts.preconditioner == graphs::SolverPreconditioner::spanning_tree) {
    const auto solver = cache_.solver(baseline_.manifold_y, vopts);
    if (solver->has_tree_preconditioner()) {
      const linalg::TreeFactorization& t = solver->tree();
      state.variant_tree = linalg::TreeFactorization::from_state(
          {t.parent().begin(), t.parent().end()},
          {t.order().begin(), t.order().end()},
          {t.multipliers().begin(), t.multipliers().end()},
          {t.inv_diag().begin(), t.inv_diag().end()});
    }
  }
  return state;
}

const circuit::TimingReport& SweepEngine::baseline_timing() const {
  if (netlist_ == nullptr)
    throw std::logic_error("SweepEngine: no netlist (graph-mode engine)");
  return baseline_timing_;
}

void SweepEngine::build_baseline(const graphs::Graph& input_graph,
                                 const linalg::Matrix& node_features,
                                 const linalg::Matrix& output_embedding) {
  static const obs::Counter baselines("sweep.baselines");
  baselines.add();
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();

  // The baseline is analyze() on the unperturbed inputs plus captures: the
  // spectral embedding every Case-A variant reuses, in fast mode the kNN
  // baselines of the variants' delta re-queries, and the multilevel pair
  // hierarchy (when that path engages) that fast variants reuse. Phase 3
  // runs the config's own trajectory, so the report is byte-identical to
  // CirStag::analyze in both modes.
  PipelineHooks hooks;
  hooks.spectral_out = &u0_;
  if (!opts_.exact) {
    hooks.manifold = [this](const linalg::Matrix& embedding,
                            ManifoldSide side) {
      ManifoldBaseline& base =
          side == ManifoldSide::input ? mx_base_ : my_base_;
      base = capture_manifold_baseline(embedding, opts_.config.manifold,
                                       &cache_);
      return base.manifold;
    };
  }
  StabilityOptions so = opts_.config.stability;
  so.hierarchy_capture = &hier0_;
  hooks.stability = &so;
  baseline_ = run_pipeline(opts_.config, input_graph, node_features,
                           output_embedding, cache_, hooks);
  baseline_.health = obs::HealthMonitor::global().collect_since(health_begin);
}

std::vector<SweepVariantResult> SweepEngine::run(
    std::span<const SweepVariant> variants) {
  const obs::TraceSpan span("sweep.run", "sweep");
  static const obs::Counter runs("sweep.runs");
  static const obs::Counter variant_count("sweep.variants");
  static const obs::Counter exact_count("sweep.variants_exact");
  runs.add();
  variant_count.add(variants.size());
  if (opts_.exact) exact_count.add(variants.size());

  obs::WallTimer timer;
  const std::size_t cache_hits_before = cache_.hits();
  const std::uint64_t health_begin = obs::HealthMonitor::global().next_index();

  std::vector<SweepVariantResult> results(variants.size());
  // One task per variant: inner phases' nested parallel_for calls run
  // serially inline, so per-variant results are bit-identical at any pool
  // width, and all reused state comes from the baseline only — sibling
  // variants never feed each other.
  runtime::parallel_for(0, variants.size(), 1, [&](std::size_t i) {
    results[i] = run_variant(variants[i], i);
  });

  // The variants recorded into the one global HealthMonitor concurrently,
  // so no event can be pinned on one of them: every report of this call
  // carries the call's whole window.
  const obs::HealthReport health =
      obs::HealthMonitor::global().collect_since(health_begin);
  for (SweepVariantResult& r : results) r.report.health = health;

  stats_.sweep_seconds = timer.elapsed_seconds();
  stats_.variants = results.size();
  stats_.solver_cache_hits = cache_.hits() - cache_hits_before;
  double sta_sum = 0.0, gnn_sum = 0.0, knn_sum = 0.0, sweep_sum = 0.0;
  std::size_t sta_n = 0, gnn_n = 0, knn_n = 0, sweep_n = 0;
  const double sweep_budget =
      static_cast<double>(opts_.config.stability.subspace_iterations);
  for (const SweepVariantResult& r : results) {
    if (r.stats.subspace_sweeps > 0 && sweep_budget > 0.0) {
      sweep_sum += static_cast<double>(r.stats.subspace_sweeps) / sweep_budget;
      ++sweep_n;
    }
    if (r.stats.sta.total_gates > 0) {
      sta_sum += r.stats.sta.cone_fraction();
      ++sta_n;
    }
    if (r.stats.gnn.total_rows > 0) {
      gnn_sum += r.stats.gnn.row_fraction();
      ++gnn_n;
    }
    for (const graphs::KnnUpdateStats* k : {&r.stats.knn_x, &r.stats.knn_y}) {
      if (k->total_points > 0) {
        knn_sum += static_cast<double>(k->requeried_points) /
                   static_cast<double>(k->total_points);
        ++knn_n;
      }
    }
  }
  stats_.avg_sta_cone_fraction = sta_n ? sta_sum / sta_n : 1.0;
  stats_.avg_gnn_row_fraction = gnn_n ? gnn_sum / gnn_n : 1.0;
  stats_.avg_knn_requery_fraction = knn_n ? knn_sum / knn_n : 1.0;
  stats_.avg_subspace_sweep_fraction = sweep_n ? sweep_sum / sweep_n : 1.0;

  static const obs::Gauge g_sta("sweep.sta_cone_fraction");
  static const obs::Gauge g_gnn("sweep.gnn_row_fraction");
  static const obs::Gauge g_knn("sweep.knn_requery_fraction");
  static const obs::Gauge g_sweeps("sweep.subspace_sweep_fraction");
  static const obs::Gauge g_hits("sweep.solver_cache_hits");
  g_sta.set(stats_.avg_sta_cone_fraction);
  g_gnn.set(stats_.avg_gnn_row_fraction);
  g_knn.set(stats_.avg_knn_requery_fraction);
  g_sweeps.set(stats_.avg_subspace_sweep_fraction);
  g_hits.set(static_cast<double>(stats_.solver_cache_hits));
  return results;
}

SweepVariantResult SweepEngine::run_variant(const SweepVariant& v,
                                            std::size_t index) {
  if (v.input_graph != nullptr || v.output_embedding != nullptr)
    return run_case_b(v, index);
  return run_case_a(v, index);
}

SweepVariantResult SweepEngine::run_case_a(const SweepVariant& v,
                                           std::size_t index) {
  if (netlist_ == nullptr || model_ == nullptr)
    throw std::invalid_argument(
        "SweepEngine: Case-A variant on a graph-mode engine");
  const obs::TraceSpan span("sweep.variant_a", "sweep");
  SweepVariantResult out;

  // Perturbed netlist + the physically-consistent feature view (net loads
  // move together with the caps — the Table-I protocol).
  circuit::Netlist nlv = *netlist_;
  std::vector<circuit::PinId> touched;
  touched.reserve(v.cap_scalings.size());
  for (const CapScaling& cs : v.cap_scalings) {
    nlv.scale_pin_capacitance(cs.pin, cs.factor);
    touched.push_back(cs.pin);
  }
  const linalg::Matrix fv = circuit::pin_features(nlv);

  const circuit::TimingReport rep = sta_->run(nlv, touched, &out.stats.sta);
  out.worst_arrival = rep.worst_arrival;

  // Incremental GNN forward (bit-identical to a full forward).
  gnn::GnnIncrementalResult inc =
      model_->forward_incremental(snap_, fv, &out.stats.gnn);
  out.prediction = std::move(inc.prediction);

  // The pin graph is untouched by capacitance edits, so the baseline
  // spectral embedding is reused verbatim in both modes; only the feature
  // channel moves (refit on the variant, as analyze() does).
  finish_variant(out, pin_graph_, fv, inc.embedding, &u0_);
  if (!opts_.exact && opts_.audit_drift)
    audit_variant_drift(out, pin_graph_, fv, inc.embedding, index);
  return out;
}

SweepVariantResult SweepEngine::run_case_b(const SweepVariant& v,
                                           std::size_t index) {
  if (v.input_graph == nullptr || v.output_embedding == nullptr)
    throw std::invalid_argument(
        "SweepEngine: Case-B variant needs input_graph and output_embedding");
  const obs::TraceSpan span("sweep.variant_b", "sweep");
  SweepVariantResult out;
  // The topology changed, so the spectrum is recomputed.
  static const linalg::Matrix no_features;
  const linalg::Matrix& features =
      v.node_features != nullptr ? *v.node_features : no_features;
  finish_variant(out, *v.input_graph, features, *v.output_embedding, nullptr);
  if (!opts_.exact && opts_.audit_drift)
    audit_variant_drift(out, *v.input_graph, features, *v.output_embedding,
                        index);
  return out;
}

void SweepEngine::audit_variant_drift(SweepVariantResult& out,
                                      const graphs::Graph& input_graph,
                                      const linalg::Matrix& node_features,
                                      const linalg::Matrix& output_embedding,
                                      std::size_t index) const {
  // The reference is the naive per-variant loop: a fresh CirStag::analyze
  // with the sweep's own config. threads is zeroed because the audit runs
  // inside run()'s parallel region — resizing the global pool from a worker
  // would tear down the pool mid-flight; the nested analyze simply runs
  // serially inline like every nested parallel region.
  CirStagConfig naive_cfg = opts_.config;
  naive_cfg.threads = 0;
  const CirStag naive(naive_cfg);
  const CirStagReport ref =
      naive.analyze(input_graph, node_features, output_embedding);

  const std::vector<double>& fast_scores = out.report.node_scores;
  const std::vector<double>& ref_scores = ref.node_scores;
  double diff2 = 0.0, ref2 = 0.0;
  const std::size_t n = std::min(fast_scores.size(), ref_scores.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = fast_scores[i] - ref_scores[i];
    diff2 += d * d;
    ref2 += ref_scores[i] * ref_scores[i];
  }
  const double drift =
      ref2 > 0.0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
  out.stats.audited_drift = drift;

  static const obs::Counter audits("sweep.drift_audits");
  audits.add();
  const bool over = drift > kFastScoreDriftTolerance ||
                    fast_scores.size() != ref_scores.size();
  obs::record_health_event(
      "sweep.drift",
      "variant " + std::to_string(index) +
          ": fast-vs-naive node-score drift " + std::to_string(drift) +
          " (documented bound " + std::to_string(kFastScoreDriftTolerance) +
          ")",
      drift, kFastScoreDriftTolerance,
      over ? obs::HealthSeverity::error : obs::HealthSeverity::info);
}

void SweepEngine::finish_variant(SweepVariantResult& out,
                                 const graphs::Graph& input_graph,
                                 const linalg::Matrix& node_features,
                                 const linalg::Matrix& output_embedding,
                                 const linalg::Matrix* spectral) {
  const CirStagConfig& cfg = opts_.config;
  PipelineHooks hooks;
  hooks.spectral = spectral;
  StabilityOptions so = variant_stability_options();
  if (!opts_.exact) {
    // Adaptive kNN delta: each side re-queries only around the rows that
    // moved relative to the captured baseline — worthwhile only when a
    // minority moved, otherwise a full build is both faster and free of the
    // delta's one-sided-neighbor approximation.
    hooks.manifold = [&](const linalg::Matrix& embedding, ManifoldSide side) {
      const bool input = side == ManifoldSide::input;
      const ManifoldBaseline& base = input ? mx_base_ : my_base_;
      if (base.knn.points.rows() == embedding.rows() &&
          base.knn.points.cols() == embedding.cols()) {
        const std::vector<std::uint32_t> moved =
            changed_rows(embedding, base.knn.points);
        if (moved.size() * 2 < embedding.rows())
          return build_manifold_delta(base, embedding, moved, cfg.manifold,
                                      &cache_,
                                      input ? &out.stats.knn_x
                                            : &out.stats.knn_y);
      }
      return build_manifold(embedding, cfg.manifold, &cache_);
    };
    // Hierarchy reuse (DESIGN.md §13): variants perturb manifold
    // weights/edges but keep the node set, so the baseline's prolongation
    // maps stay valid and the multilevel path only re-aggregates edge
    // weights through them instead of re-matching every level (it checks
    // the node count itself). Exact mode stays on the fresh-matching path
    // for byte-identity with the naive loop.
    so.hierarchy_reuse = &hier0_;
  }
  hooks.stability = &so;
  hooks.subspace_sweeps_out = &out.stats.subspace_sweeps;
  out.report = run_pipeline(cfg, input_graph, node_features, output_embedding,
                            cache_, hooks);
}

std::vector<double> SweepEngine::predict_case_a(
    std::span<const std::size_t> pins, double factor) const {
  if (netlist_ == nullptr || model_ == nullptr)
    throw std::logic_error("SweepEngine: predict_case_a needs a netlist");
  const linalg::Matrix fv =
      circuit::perturbed_pin_features(*netlist_, pins, factor);
  return model_->forward_incremental(snap_, fv).prediction;
}

}  // namespace cirstag::core
