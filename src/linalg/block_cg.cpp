#include "linalg/block_cg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "util/aligned.hpp"
#include "util/arena.hpp"

namespace cirstag::linalg {

namespace {

/// Column-group width the split aims for: one 4-lane masked-kernel pass.
/// Narrower groups leave lanes empty and lose more to the per-sweep CSR
/// traversal than the extra pool lane buys.
constexpr std::size_t kColumnsPerGroup = 4;

using Mask = std::vector<std::uint8_t>;
/// Column mask in the kernel layer's bit-pattern form, zero-padded to the
/// 4-lane multiple the masked kernels require (kernels.hpp).
using LaneMask = std::vector<double, util::AlignedAllocator<double>>;
/// Padded per-column coefficient vector (fully loaded by the kernels, so the
/// pad lanes must exist and stay finite).
using Coeffs = std::vector<double, util::AlignedAllocator<double>>;

LaneMask make_lane_mask(const Mask& active) {
  LaneMask m(kernels::padded_cols(active.size()), kernels::kMaskOff);
  for (std::size_t j = 0; j < active.size(); ++j)
    if (active[j]) m[j] = kernels::kMaskOn;
  return m;
}

/// out[j] = Σ_i A(i,j)·B(i,j) for active columns, reduced through the same
/// 8-lane row tree as the single-vector `dot` kernel — bit-identical per
/// column (serial over rows; thread-count invariant by construction).
void column_dots(const Matrix& a, const Matrix& b, const LaneMask& mask,
                 Coeffs& out) {
  const std::size_t n = a.rows(), k = a.cols();
  std::fill(out.begin(), out.end(), 0.0);
  util::ArenaFrame frame;
  const auto scratch = frame.alloc<double>(8 * kernels::padded_cols(k));
  kernels::table().col_dots(a.data().data(), b.data().data(), n, k,
                            mask.data(), out.data(), scratch.data());
}

/// Remove the mean of every active column (two-pass — the per-column
/// association of the single-vector deflate_constant, 8-lane sum tree).
void deflate_columns(Matrix& x, const LaneMask& mask) {
  const std::size_t n = x.rows(), k = x.cols();
  if (n == 0) return;
  const kernels::KernelTable& kt = kernels::table();
  util::ArenaFrame frame;
  const std::size_t kp = kernels::padded_cols(k);
  const auto mean = frame.alloc_zero<double>(kp);
  const auto scratch = frame.alloc<double>(8 * kp);
  kt.col_sums(x.data().data(), n, k, mask.data(), mean.data(), scratch.data());
  for (std::size_t j = 0; j < k; ++j) mean[j] /= static_cast<double>(n);
  kt.sub_cols(mean.data(), x.data().data(), n, k, mask.data());
}

/// Deflate one column — used exactly once per column, at retirement, so a
/// column is never double-deflated (deflation is not bitwise idempotent).
/// Strided mirror of deflate_constant: 8-lane sum tree, then subtract.
void deflate_column(Matrix& x, std::size_t j) {
  const std::size_t n = x.rows();
  if (n == 0) return;
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) acc[i & 7] += x(i, j);
  const double mean = kernels::reduce8_tree(acc) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) x(i, j) -= mean;
}

/// y(i,j) += c[j]·x(i,j) on active columns.
void axpy_columns(const Coeffs& c, const Matrix& x, Matrix& y,
                  const LaneMask& mask) {
  kernels::table().axpy_cols(c.data(), x.data().data(), y.data().data(),
                             x.rows(), x.cols(), mask.data());
}

/// p(i,j) = z(i,j) + beta[j]·p(i,j) on active columns.
void update_directions(const Matrix& z, const Coeffs& beta, Matrix& p,
                       const LaneMask& mask) {
  kernels::table().xpby_cols(beta.data(), z.data().data(), p.data().data(),
                             z.rows(), z.cols(), mask.data());
}

/// Block CG over columns [lo, hi) of `b`: every column in the range runs its
/// single-vector recurrence in lockstep with the others. The solution goes
/// into `x` (n×(hi-lo), zero on entry); the per-column report goes into
/// entries lo..hi-1 of `res`, which no other group touches. Returns the
/// number of block sweeps.
std::size_t solve_column_group(const BlockLinearOperator& op, const Matrix& b,
                               const BlockLinearOperator& precond,
                               const CgOptions& opts,
                               const Matrix* initial_guess, std::size_t lo,
                               std::size_t hi, Matrix& x, BlockCgResult& res) {
  const std::size_t n = b.rows();
  const std::size_t k = hi - lo;
  double* const residuals = res.residuals.data() + lo;
  std::size_t* const iterations = res.iterations.data() + lo;
  std::uint8_t* const converged = res.converged.data() + lo;
  std::uint8_t* const breakdown = res.breakdown.data() + lo;

  const std::size_t kp = kernels::padded_cols(k);
  Matrix r(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = b.row(i).subspan(lo, k);
    std::copy(src.begin(), src.end(), r.row(i).begin());
  }
  const LaneMask all_mask = make_lane_mask(Mask(k, 1));
  if (opts.deflate_constant) deflate_columns(r, all_mask);

  Coeffs bnorm(kp, 0.0);
  column_dots(r, r, all_mask, bnorm);
  for (auto& v : bnorm) v = std::sqrt(v);

  Mask active(k, 0);
  std::size_t num_active = 0;
  for (std::size_t j = 0; j < k; ++j) {
    if (bnorm[j] == 0.0) {
      converged[j] = 1;  // x stays 0 — single CG's zero-rhs early return
    } else {
      active[j] = 1;
      ++num_active;
    }
  }
  if (num_active == 0) return 0;
  LaneMask amask = make_lane_mask(active);

  if (initial_guess) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto g = initial_guess->row(i);
      auto xi = x.row(i);
      for (std::size_t j = 0; j < k; ++j)
        if (active[j]) xi[j] = g[lo + j];
    }
    if (opts.deflate_constant) deflate_columns(x, amask);
    Matrix ax(n, k);
    op(x, ax);
    if (opts.deflate_constant) deflate_columns(ax, amask);
    Coeffs minus_one(kp, 0.0);
    std::fill_n(minus_one.begin(), k, -1.0);
    axpy_columns(minus_one, ax, r, amask);
  }

  Matrix z(n, k);
  auto apply_precond = [&](const Matrix& in, Matrix& out) {
    if (precond) {
      precond(in, out);
    } else {
      std::copy(in.data().begin(), in.data().end(), out.data().begin());
    }
    if (opts.deflate_constant) deflate_columns(out, amask);
  };

  apply_precond(r, z);
  Matrix p = z;
  Matrix ap(n, k);
  Coeffs rz(kp, 0.0);
  column_dots(r, z, amask, rz);

  Coeffs pap(kp, 0.0), alpha(kp, 0.0), neg_alpha(kp, 0.0), rnorm2(kp, 0.0),
      rz_new(kp, 0.0), beta(kp, 0.0);

  // ‖r_j‖/‖b_j‖ recomputed at breakdown / max-iteration retirement — the
  // strided mirror of the single-vector norm (8-lane tree over rows).
  auto tail_residual = [&](std::size_t j) {
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < n; ++i)
      acc[i & 7] = std::fma(r(i, j), r(i, j), acc[i & 7]);
    return std::sqrt(kernels::reduce8_tree(acc)) / bnorm[j];
  };

  std::size_t sweeps = 0;
  for (std::size_t it = 0; it < opts.max_iterations && num_active > 0; ++it) {
    ++sweeps;
    ap.fill(0.0);
    op(p, ap);
    if (opts.deflate_constant) deflate_columns(ap, amask);
    column_dots(p, ap, amask, pap);
    // Indefinite directions retire before the α step — the single-vector
    // early break, but per column.
    for (std::size_t j = 0; j < k; ++j) {
      if (active[j] && pap[j] <= 0.0) {
        breakdown[j] = 1;
        residuals[j] = tail_residual(j);
        if (opts.deflate_constant) deflate_column(x, j);
        active[j] = 0;
        --num_active;
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      alpha[j] = rz[j] / pap[j];
      neg_alpha[j] = -alpha[j];
    }
    axpy_columns(alpha, p, x, amask);
    axpy_columns(neg_alpha, ap, r, amask);
    column_dots(r, r, amask, rnorm2);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      iterations[j] = it + 1;
      const double rel = std::sqrt(rnorm2[j]) / bnorm[j];
      if (rel < opts.tolerance) {
        converged[j] = 1;
        residuals[j] = rel;
        if (opts.deflate_constant) deflate_column(x, j);
        active[j] = 0;
        --num_active;
      }
    }
    if (num_active == 0) break;
    amask = make_lane_mask(active);
    apply_precond(r, z);
    column_dots(r, z, amask, rz_new);
    for (std::size_t j = 0; j < k; ++j) {
      if (!active[j]) continue;
      beta[j] = rz_new[j] / rz[j];
      rz[j] = rz_new[j];
    }
    update_directions(z, beta, p, amask);
  }

  // Columns that exhausted the iteration budget.
  for (std::size_t j = 0; j < k; ++j) {
    if (!active[j]) continue;
    residuals[j] = tail_residual(j);
    if (opts.deflate_constant) deflate_column(x, j);
  }
  return sweeps;
}

/// How many column groups a k-column solve splits into: at most one per
/// pool lane and one per kColumnsPerGroup columns. Inside a parallel region
/// the groups would run serially, so the block stays whole there.
std::size_t column_group_count(std::size_t k) {
  if (runtime::ThreadPool::in_parallel_region()) return 1;
  const std::size_t by_width = (k + kColumnsPerGroup - 1) / kColumnsPerGroup;
  return std::min(runtime::global_pool().num_threads(), by_width);
}

}  // namespace

BlockCgResult block_conjugate_gradient(const BlockLinearOperator& op,
                                       const Matrix& b,
                                       const BlockLinearOperator& precond,
                                       const CgOptions& opts,
                                       const Matrix* initial_guess) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  BlockCgResult res;
  res.solutions = Matrix(n, k);
  res.residuals.assign(k, 0.0);
  res.iterations.assign(k, 0);
  res.converged.assign(k, 0);
  res.breakdown.assign(k, 0);
  if (k == 0 || n == 0) return res;
  if (initial_guess &&
      (initial_guess->rows() != n || initial_guess->cols() != k))
    throw std::invalid_argument("block_conjugate_gradient: bad guess shape");

  // Column j is bit-identical to single-RHS CG on column j, so how the
  // columns are grouped cannot change any result; the groups run
  // concurrently in one pool region, and each group's own SpMM / kernel
  // regions run inline on the lane that claimed it.
  const std::size_t groups = column_group_count(k);
  std::size_t sweeps = 0;
  if (groups == 1) {
    sweeps = solve_column_group(op, b, precond, opts, initial_guess, 0, k,
                                res.solutions, res);
  } else {
    std::vector<std::size_t> group_sweeps(groups, 0);
    runtime::parallel_for(0, groups, 1, [&](std::size_t g) {
      const std::size_t lo = g * k / groups, hi = (g + 1) * k / groups;
      Matrix x(n, hi - lo);
      group_sweeps[g] = solve_column_group(op, b, precond, opts,
                                           initial_guess, lo, hi, x, res);
      for (std::size_t i = 0; i < n; ++i) {
        const auto src = x.row(i);
        std::copy(src.begin(), src.end(), res.solutions.row(i).begin() + lo);
      }
    });
    for (const std::size_t s : group_sweeps) sweeps += s;
  }
  for (std::size_t j = 0; j < k; ++j) res.total_iterations += res.iterations[j];

  static const obs::Counter solves("blockcg.solves");
  static const obs::Counter block_sweeps("blockcg.sweeps");
  static const obs::Counter column_iterations("blockcg.column_iterations");
  static const obs::Counter breakdown_columns("blockcg.breakdown_columns");
  static const obs::Counter columns("blockcg.columns");
  solves.add();
  block_sweeps.add(sweeps);
  column_iterations.add(res.total_iterations);
  columns.add(k);
  std::uint64_t broken = 0;
  for (std::size_t j = 0; j < k; ++j) broken += res.breakdown[j];
  if (broken > 0) breakdown_columns.add(broken);
  return res;
}

}  // namespace cirstag::linalg
