#pragma once

#include <functional>
#include <span>

#include "core/manifold.hpp"
#include "core/spectral_embedding.hpp"
#include "core/stability.hpp"
#include "graphs/graph.hpp"
#include "graphs/solver_cache.hpp"
#include "linalg/matrix.hpp"
#include "obs/health.hpp"
#include "obs/manifest.hpp"

namespace cirstag::core {

/// Full pipeline configuration (Algorithm 1).
struct CirStagConfig {
  SpectralEmbeddingOptions embedding;  ///< Phase 1 (input side)
  ManifoldOptions manifold;            ///< Phase 2 (both sides)
  StabilityOptions stability;          ///< Phase 3
  /// When false, skip the Phase-1 spectral dimensionality reduction and use
  /// the original input graph directly as the input manifold — the paper's
  /// Fig. 4 ablation, which degrades ranking quality.
  bool use_dimension_reduction = true;
  /// Weight of the (column-standardized) node features appended to the
  /// spectral coordinates when features are supplied to analyze(). This is
  /// how CirSTAG considers "both graph structure and node feature
  /// perturbations": input-manifold neighbors must agree on structure AND
  /// features, so a large output distance between them flags genuine
  /// mapping instability. 0 disables the feature channel.
  double feature_weight = 2.0;
  /// Width of the parallel runtime pool used by analyze(): 0 keeps the
  /// current global pool (CIRSTAG_THREADS env var or hardware concurrency
  /// on first use); any other value resizes the global pool. Scores are
  /// bit-identical at every setting — the runtime's chunked reductions fix
  /// chunk boundaries independent of thread count.
  std::size_t threads = 0;
};

/// Wall-clock per phase (Fig. 5 scalability series). Busy time is not kept
/// here: the `runtime.pool.busy_ns` counter is the one source, read as a
/// delta around the call (DESIGN.md §8). A restored snapshot baseline keeps
/// the defaults — no phase ran in the restoring process.
struct PhaseTimings {
  double embedding_seconds = 0.0;
  double manifold_seconds = 0.0;
  double stability_seconds = 0.0;
  std::size_t threads = 1;  ///< pool width the analysis ran with
  [[nodiscard]] double total() const {
    return embedding_seconds + manifold_seconds + stability_seconds;
  }
};

/// Everything CirSTAG produces for one (graph, GNN-embedding) pair.
struct CirStagReport {
  std::vector<double> node_scores;   ///< Eq. 9, per input-graph node
  std::vector<double> edge_scores;   ///< per manifold_x edge
  std::vector<double> eigenvalues;   ///< DMD spectrum (descending)
  /// √ζ-weighted eigensubspace V_s; lets callers score arbitrary node
  /// pairs — e.g. the original circuit's edges for topology studies.
  linalg::Matrix weighted_subspace;
  graphs::Graph manifold_x;
  graphs::Graph manifold_y;
  linalg::Matrix input_embedding;    ///< U_M (empty when reduction disabled)
  PhaseTimings timings;
  /// Numerical-health events recorded while this report was produced
  /// (NaN/Inf sentinels, unconverged solves, Ritz residuals, …). health.ok()
  /// means nothing above info severity fired. The window is the call that
  /// produced the report: one analyze(), one sweep-baseline capture or
  /// snapshot restore, or — for sweep variants, which run concurrently
  /// against the one global HealthMonitor — the whole SweepEngine::run()
  /// call, shared by every variant of that call. Empty when the global
  /// HealthMonitor is disabled.
  obs::HealthReport health;
  /// FNV-1a checksums of each phase boundary's produced doubles — the run
  /// manifest's per-phase provenance (equal checksums certify bitwise-equal
  /// intermediates across thread counts / machines).
  obs::PhaseChecksums checksums;

  /// Design-wide mean of node_scores, cached at report assembly so localized
  /// queries (core::score_region / score_cone) answer without an O(n) scan
  /// over the whole design. Serial summation in node order — bit-equal to
  /// the scan it replaces. Negative = not cached (hand-built reports);
  /// queries then fall back to the scan.
  double node_score_mean = -1.0;

  /// Edge-stability score ‖V_sᵀ e_pq‖² for any node pair (p, q).
  [[nodiscard]] double pair_score(std::size_t p, std::size_t q) const {
    return weighted_subspace.row_distance2(p, q);
  }
};

/// Canonical design-mean of a node-score vector: strictly serial summation
/// in node order. CirStagReport::node_score_mean is always computed through
/// this, and so is the localized-query fallback scan, so cached and scanned
/// means are bit-equal.
[[nodiscard]] double mean_node_score(std::span<const double> scores);

/// Column standardization used by the Phase-1 feature augmentation: per-
/// column mean and multiplier (feature_weight / sd, or 0 for a constant
/// column, which is dropped to zero), refit on every pipeline run.
struct FeatureColumnStats {
  std::vector<double> mean;
  std::vector<double> scale;
};

/// Fit mean/scale on the columns of `x` exactly as analyze() does.
[[nodiscard]] FeatureColumnStats fit_feature_stats(const linalg::Matrix& x,
                                                   double weight);

/// Apply fitted stats: out(r,c) = (x(r,c) - mean[c]) * scale[c], with
/// constant columns (scale 0) left at zero. Row-local: rows equal in `x`
/// produce equal output rows.
[[nodiscard]] linalg::Matrix apply_feature_stats(
    const linalg::Matrix& x, const FeatureColumnStats& stats);

/// Row-concatenation [u ‖ f] used by analyze() for the augmented input
/// embedding.
[[nodiscard]] linalg::Matrix augment_embedding(const linalg::Matrix& u,
                                               const linalg::Matrix& f);

/// Which side's manifold a Phase-2 builder is asked for.
enum class ManifoldSide : std::uint8_t { input, output };

/// The points where a run_pipeline caller departs from analyze(). The sweep
/// engine uses them for what really differs per variant: reusing the
/// baseline spectral embedding, capturing or delta-updating the kNN graphs,
/// and the fast-mode Phase-3 overrides. Every default is analyze()'s own
/// behaviour.
struct PipelineHooks {
  /// Phase 1: the input graph's spectral embedding, already computed.
  /// Null = compute it.
  const linalg::Matrix* spectral = nullptr;
  /// Receives the Phase-1 spectral embedding (before the feature channel).
  linalg::Matrix* spectral_out = nullptr;
  /// Phase 2: builds one side's manifold from its embedding. Empty =
  /// build_manifold(embedding, config.manifold, &cache).
  std::function<graphs::Graph(const linalg::Matrix&, ManifoldSide)> manifold;
  /// Phase 3 options. Null = config.stability.
  const StabilityOptions* stability = nullptr;
  /// Receives the Phase-3 subspace sweeps executed — the one part of the
  /// StabilityResult the report does not take.
  std::size_t* subspace_sweeps_out = nullptr;
};

/// Algorithm 1, Phases 1-3, plus report assembly: the one implementation
/// behind CirStag::analyze, the sweep-engine baseline and every sweep
/// variant. Phase 1 is the spectral embedding augmented with the
/// standardized features (skipped without dimension reduction, when the
/// input graph itself is the input manifold); Phase 2 the two manifolds;
/// Phase 3 the DMD spectrum and scores. Records PhaseTimings and ends with
/// seal_report. `cache` keys the Phase-2 sketch solvers and the Phase-3 L_Y
/// solver, so a manifold reused across phases is assembled once.
///
/// Never resizes the thread pool (sweep variants call this from inside a
/// parallel region; only the public entry points set the width) and leaves
/// CirStagReport::health empty: the caller owns the health window.
[[nodiscard]] CirStagReport run_pipeline(const CirStagConfig& config,
                                         const graphs::Graph& input_graph,
                                         const linalg::Matrix& node_features,
                                         const linalg::Matrix& output_embedding,
                                         graphs::LaplacianSolverCache& cache,
                                         const PipelineHooks& hooks = {});

/// Provenance of a finished report: fills the seven per-phase checksums and
/// node_score_mean from the report's own contents (`input_graph` is the
/// graph it was computed on, which the report does not keep) and runs the
/// NaN/Inf sentinels over every phase output. run_pipeline ends with it; a
/// restored snapshot baseline re-runs it, so its checksums and health are
/// derived rather than trusted.
void seal_report(const graphs::Graph& input_graph, CirStagReport& report);

/// CirSTAG: node/edge stability analysis of a black-box GNN on graph-based
/// manifolds (DAC 2025). Usage:
///
///   core::CirStag analyzer(config);
///   auto report = analyzer.analyze(input_graph, gnn_node_embeddings);
///   // report.node_scores[i] large  =>  node i is unstable/sensitive
///
/// `input_graph` is the circuit graph the GNN consumed (pins or gates);
/// `output_embedding` is the GNN's node-embedding matrix (rows = nodes).
class CirStag {
 public:
  explicit CirStag(CirStagConfig config = {}) : config_(std::move(config)) {}

  /// Structure-only analysis (no node features on the input side).
  [[nodiscard]] CirStagReport analyze(const graphs::Graph& input_graph,
                                      const linalg::Matrix& output_embedding) const;

  /// Full analysis with node features: the Phase-1 input embedding is
  /// [U_M ‖ feature_weight · standardize(node_features)], making the input
  /// manifold sensitive to both structure and features (the configuration
  /// the Case-A capacitance-perturbation study requires).
  [[nodiscard]] CirStagReport analyze(const graphs::Graph& input_graph,
                                      const linalg::Matrix& node_features,
                                      const linalg::Matrix& output_embedding) const;

  [[nodiscard]] const CirStagConfig& config() const { return config_; }

 private:
  CirStagConfig config_;
};

}  // namespace cirstag::core
