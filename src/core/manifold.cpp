#include "core/manifold.hpp"

#include <algorithm>
#include <vector>

#include "graphs/components.hpp"
#include "obs/metrics.hpp"

namespace cirstag::core {

namespace {

/// Rescale all edge weights so the median weight becomes 1.
graphs::Graph normalize_median_weight(const graphs::Graph& g) {
  if (g.num_edges() == 0) return g;
  std::vector<double> weights;
  weights.reserve(g.num_edges());
  for (const auto& e : g.edges()) weights.push_back(e.weight);
  std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                   weights.end());
  const double median = weights[weights.size() / 2];
  if (median <= 0.0) return g;
  graphs::Graph out(g.num_nodes());
  for (const auto& e : g.edges()) out.add_edge(e.u, e.v, e.weight / median);
  return out;
}

}  // namespace

namespace {

/// Shared tail of every manifold build: median normalization, component
/// bridging, PGM sparsification.
graphs::Graph finish_manifold(graphs::Graph knn, const ManifoldOptions& opts,
                              graphs::LaplacianSolverCache* cache) {
  static const obs::Counter builds("manifold.builds");
  static const obs::Counter knn_edges("manifold.knn_edges");
  static const obs::Counter final_edges("manifold.final_edges");
  builds.add();
  // Stability scores are invariant to a global rescaling of each manifold,
  // but the absolute scale of 1/dist² weights varies wildly across
  // embeddings and would otherwise wreck the conditioning of the Laplacian
  // solves in Phase 3.
  knn = normalize_median_weight(knn);
  knn = graphs::connect_components(knn, opts.bridge_weight);
  knn_edges.add(knn.num_edges());
  if (!opts.apply_sparsification) {
    final_edges.add(knn.num_edges());
    return knn;
  }
  graphs::SparsifyResult sparse =
      graphs::sparsify_pgm(knn, opts.sparsify, cache);
  final_edges.add(sparse.graph.num_edges());
  return std::move(sparse.graph);
}

}  // namespace

graphs::Graph build_manifold(const linalg::Matrix& embedding,
                             const ManifoldOptions& opts,
                             graphs::LaplacianSolverCache* cache) {
  return finish_manifold(graphs::build_knn_graph(embedding, opts.knn), opts,
                         cache);
}

ManifoldBaseline capture_manifold_baseline(const linalg::Matrix& embedding,
                                           const ManifoldOptions& opts,
                                           graphs::LaplacianSolverCache* cache) {
  ManifoldBaseline base;
  base.knn = graphs::capture_knn_baseline(embedding, opts.knn);
  base.manifold = finish_manifold(base.knn.graph, opts, cache);
  return base;
}

graphs::Graph build_manifold_delta(const ManifoldBaseline& baseline,
                                   const linalg::Matrix& embedding,
                                   std::span<const std::uint32_t> moved_rows,
                                   const ManifoldOptions& opts,
                                   graphs::LaplacianSolverCache* cache,
                                   graphs::KnnUpdateStats* stats) {
  return finish_manifold(graphs::update_knn_graph(baseline.knn, embedding,
                                                  moved_rows, opts.knn, stats),
                         opts, cache);
}

}  // namespace cirstag::core
