#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::linalg {

/// Abstract symmetric operator on a block of vectors: apply(X, Y) computes
/// Y = A X column-wise (X, Y row-major n×k with columns as the vectors).
using BlockLinearOperator = std::function<void(const Matrix&, Matrix&)>;

/// Per-column convergence report from a block-CG run.
struct BlockCgResult {
  Matrix solutions;                      ///< n×k, one solution per column
  std::vector<double> residuals;         ///< final relative residual per column
  std::vector<std::size_t> iterations;   ///< CG iterations per column
  std::vector<std::uint8_t> converged;   ///< per column
  std::vector<std::uint8_t> breakdown;   ///< pᵀAp ≤ 0 encountered
  std::size_t total_iterations = 0;      ///< Σ per-column iterations

  [[nodiscard]] bool all_converged() const {
    for (auto c : converged)
      if (!c) return false;
    return true;
  }
};

/// Multi-RHS (blocked) preconditioned conjugate gradient.
///
/// Runs k standard single-vector CG recurrences in lockstep: every iteration
/// performs ONE blocked operator application (amortizing each CSR traversal
/// across all k right-hand sides), while all scalar recurrences (α_j, β_j,
/// residual tests) are tracked per column. Columns that converge — or break
/// down — retire early: their solution, residual, and iterate state freeze
/// while the remaining columns keep iterating.
///
/// Determinism / equivalence contract: column j of the result is
/// BIT-IDENTICAL to `conjugate_gradient(op_j, b.col(j), ...)` with the same
/// options, preconditioner, and initial guess, at every thread count. This
/// holds because per-column reductions accumulate serially in row order
/// (matching the single-vector kernels) and the blocked operator applies
/// each column in the single-vector accumulation order.
///
/// The k columns are split into min(pool width, ⌈k/4⌉) contiguous groups
/// that are solved concurrently in one pool region, each as an ordinary
/// block CG; the grouping follows the pool width, and by the contract above
/// it cannot change a result bit. `op` and `precond` are therefore called
/// concurrently on n×k_g sub-blocks and must be safe to call that way.
///
/// `precond` may be empty (identity). `initial_guess` (nullptr = zero start)
/// warm-starts every column.
[[nodiscard]] BlockCgResult block_conjugate_gradient(
    const BlockLinearOperator& op, const Matrix& b,
    const BlockLinearOperator& precond = {}, const CgOptions& opts = {},
    const Matrix* initial_guess = nullptr);

}  // namespace cirstag::linalg
