#include "solver/solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "krylov/mixed.hpp"

namespace sdcgmres::solver {

namespace {

void check_sizes(const IterativeSolver& s, std::span<const double> b,
                 std::span<double> x) {
  if (b.size() != s.dimension() || x.size() != s.dimension()) {
    throw std::invalid_argument(std::string(s.name()) +
                                ": b/x size must equal dimension()");
  }
}

void copy_in(std::span<const double> src, la::Vector& dst) {
  if (dst.size() != src.size()) dst.resize(src.size());
  std::copy(src.begin(), src.end(), dst.data());
}

void copy_out(const la::Vector& src, std::span<double> dst) {
  std::copy(src.data(), src.data() + src.size(), dst.begin());
}

/// Solvers without an s-step path reject s_step > 1 up front (the same
/// philosophy as the hookless set_hook: silently running the classical
/// path under an s-step configuration would misattribute sync counts).
void reject_s_step(const Options& o, const char* family) {
  if (o.s_step > 1) {
    throw std::invalid_argument(
        std::string(family) +
        ": s_step > 1 is not supported by this solver family; s-step "
        "execution is available in gmres, ft_gmres, and ft_gmres_batch");
  }
}

} // namespace

// ---------------------------------------------------------------------------
// Options translation
// ---------------------------------------------------------------------------

krylov::GmresOptions to_gmres_options(const Options& o) {
  krylov::GmresOptions g;
  if (o.max_iters != 0) g.max_iters = o.max_iters;
  g.restart = o.restart;
  g.tol = o.tol;
  g.ortho = o.ortho;
  g.lsq_policy = o.lsq_policy.value_or(g.lsq_policy);
  g.truncation_tol = o.truncation_tol;
  g.breakdown_tol = o.breakdown_tol.value_or(g.breakdown_tol);
  g.right_precond = o.precond;
  g.divergence_factor = o.divergence_factor;
  g.s_step = o.s_step;
  return g;
}

krylov::FgmresOptions to_fgmres_options(const Options& o) {
  krylov::FgmresOptions f;
  if (o.max_iters != 0) f.max_outer = o.max_iters;
  f.tol = o.tol;
  f.ortho = o.ortho;
  f.lsq_policy = o.lsq_policy.value_or(f.lsq_policy);
  f.truncation_tol = o.truncation_tol;
  f.breakdown_tol = o.breakdown_tol.value_or(f.breakdown_tol);
  f.rank_tol = o.rank_tol;
  f.rank_check_every_iteration = o.rank_check_every_iteration;
  f.sanitize_preconditioner_output = o.sanitize_preconditioner_output;
  f.verify_with_explicit_residual = o.verify_with_explicit_residual;
  f.deadline_seconds = o.deadline_seconds;
  f.divergence_factor = o.divergence_factor;
  return f;
}

krylov::FtGmresOptions to_ft_gmres_options(const Options& o) {
  krylov::FtGmresOptions ft; // ctor: 25 fixed inner iterations, tol 0
  ft.outer = to_fgmres_options(o);
  ft.inner.max_iters = o.inner_iters;
  ft.inner.tol = o.inner_tol;
  ft.inner.ortho = o.inner_ortho;
  ft.inner.lsq_policy =
      o.lsq_policy.value_or(krylov::GmresOptions{}.lsq_policy);
  ft.inner.truncation_tol = o.truncation_tol;
  ft.inner.breakdown_tol =
      o.breakdown_tol.value_or(krylov::GmresOptions{}.breakdown_tol);
  // The divergence guard bites mostly in the unreliable inner solves,
  // where a corrupted Hessenberg column explodes the lsq estimate; the
  // outer FGMRES estimate is monotone, so its guard is a backstop.
  ft.inner.divergence_factor = o.divergence_factor;
  // The s-step reformulation lives in the unreliable inner solves (the
  // sync-dominant work: ~25/26 of all reductions at the paper's fixed 25
  // inner iterations); the reliable outer FGMRES stays classical.
  ft.inner.s_step = o.s_step;
  ft.robust_first_inner = o.robust_first_inner;
  ft.recovery = o.recovery;
  ft.precision = o.precision;
  ft.index_width = o.index_width;
  return ft;
}

krylov::CgOptions to_cg_options(const Options& o) {
  krylov::CgOptions c;
  if (o.max_iters != 0) c.max_iters = o.max_iters;
  c.tol = o.tol;
  c.precond = o.precond;
  return c;
}

krylov::FcgOptions to_fcg_options(const Options& o) {
  krylov::FcgOptions f;
  if (o.max_iters != 0) f.max_outer = o.max_iters;
  f.tol = o.tol;
  f.sanitize_preconditioner_output = o.sanitize_preconditioner_output;
  f.verify_with_explicit_residual = o.verify_with_explicit_residual;
  return f;
}

krylov::FtCgOptions to_ft_cg_options(const Options& o) {
  krylov::FtCgOptions ft; // ctor: 25 fixed inner iterations, tol 0
  ft.outer = to_fcg_options(o);
  ft.inner.max_iters = o.inner_iters;
  ft.inner.tol = o.inner_tol;
  ft.inner.ortho = o.inner_ortho;
  ft.inner.lsq_policy =
      o.lsq_policy.value_or(krylov::GmresOptions{}.lsq_policy);
  ft.inner.truncation_tol = o.truncation_tol;
  ft.inner.breakdown_tol =
      o.breakdown_tol.value_or(krylov::GmresOptions{}.breakdown_tol);
  return ft;
}

// ---------------------------------------------------------------------------
// IterativeSolver
// ---------------------------------------------------------------------------

la::Vector IterativeSolver::solve(const la::Vector& b, SolveReport* report) {
  la::Vector x(dimension());
  SolveReport r = solve(b.span(), x.span());
  if (report != nullptr) *report = std::move(r);
  return x;
}

void IterativeSolver::set_hook(krylov::ArnoldiHook* hook) {
  if (hook != nullptr) {
    throw std::invalid_argument(
        std::string("solver '") + std::string(name()) +
        "' has no hook seam (fault campaigns/detectors would be silently "
        "ignored); use gmres, ft_gmres, or ft_cg");
  }
}

// ---------------------------------------------------------------------------
// GmresSolver
// ---------------------------------------------------------------------------

GmresSolver::GmresSolver(const krylov::LinearOperator& A, const Options& opts)
    : a_(&A), opts_(to_gmres_options(opts)) {}

SolveReport GmresSolver::solve(std::span<const double> b,
                               std::span<double> x) {
  check_sizes(*this, b, x);
  SolveReport r;
  r.residual_history.reserve(opts_.max_iters);
  const krylov::GmresStats stats = krylov::gmres_in_place(
      *a_, b, x, opts_, hook_, /*solve_index=*/0, &ws_, &r.residual_history);
  r.status = stats.status;
  r.iterations = stats.iterations;
  r.residual_norm = stats.residual_norm;
  r.lsq_effective_rank = stats.lsq_effective_rank;
  r.lsq_fallback_triggered = stats.lsq_fallback_triggered;
  r.global_syncs = stats.global_syncs;
  return r;
}

// ---------------------------------------------------------------------------
// FgmresSolver
// ---------------------------------------------------------------------------

FgmresSolver::FgmresSolver(const krylov::LinearOperator& A,
                           const Options& opts,
                           krylov::FlexiblePreconditioner* M)
    : a_(&A), opts_((reject_s_step(opts, "fgmres"), to_fgmres_options(opts))),
      fixed_adapter_(opts.precond != nullptr
                         ? *opts.precond
                         : static_cast<const krylov::Preconditioner&>(
                               identity_)) {
  m_ = (M != nullptr) ? M : &fixed_adapter_;
}

SolveReport FgmresSolver::solve(std::span<const double> b,
                                std::span<double> x) {
  check_sizes(*this, b, x);
  copy_in(b, b_scratch_);
  copy_in(x, x_scratch_);
  krylov::FgmresResult res =
      krylov::fgmres(*a_, b_scratch_, x_scratch_, opts_, *m_, &ws_);
  copy_out(res.x, x);
  SolveReport r;
  r.status = res.status;
  r.iterations = res.outer_iterations;
  r.residual_norm = res.residual_norm;
  r.residual_history = std::move(res.residual_history);
  r.sanitized_outputs = res.sanitized_outputs;
  r.rank_checks = res.rank_checks;
  r.min_sigma_ratio = res.min_sigma_ratio;
  r.global_syncs = res.global_syncs;
  return r;
}

// ---------------------------------------------------------------------------
// FtGmresSolver
// ---------------------------------------------------------------------------

FtGmresSolver::FtGmresSolver(const krylov::LinearOperator& A,
                             const Options& opts, std::string_view name)
    : a_(&A), opts_(to_ft_gmres_options(opts)), name_(name) {}

FtGmresSolver::FtGmresSolver(const krylov::LinearOperator& A,
                             const krylov::FtGmresOptions& opts)
    : a_(&A), opts_(opts) {}

SolveReport FtGmresSolver::solve(std::span<const double> b,
                                 std::span<double> x) {
  check_sizes(*this, b, x);
  const std::span<const double> bs[] = {b};
  const std::span<double> xs[] = {x};
  krylov::ArnoldiHook* const hooks[] = {hook_};
  return std::move(solve_lockstep(bs, xs, hooks).front());
}

std::vector<SolveReport> FtGmresSolver::solve_batch(
    std::span<const std::span<const double>> bs,
    std::span<const std::span<double>> xs,
    std::span<krylov::ArnoldiHook* const> inner_hooks,
    std::span<const krylov::FtGmresStart> starts) {
  const auto reject = [this](const char* why) {
    throw std::invalid_argument(std::string(name()) + ": " + why);
  };
  if (hook_ != nullptr && inner_hooks.empty()) {
    // Same philosophy as IterativeSolver::set_hook on a hookless solver:
    // silently dropping an installed fault campaign/detector would
    // misattribute experiment results.  Batch hooks are per-instance.
    reject("a hook installed via set_hook() does not apply to "
           "solve_batch(); pass one (possibly null) hook per instance in "
           "inner_hooks instead");
  }
  if (bs.size() != xs.size()) reject("bs and xs must match in size");
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (bs[i].size() != dimension() || xs[i].size() != dimension()) {
      reject("every b/x span must have size dimension()");
    }
  }
  return solve_lockstep(bs, xs, inner_hooks, starts);
}

std::vector<SolveReport> FtGmresSolver::solve_lockstep(
    std::span<const std::span<const double>> bs,
    std::span<const std::span<double>> xs,
    std::span<krylov::ArnoldiHook* const> hooks,
    std::span<const krylov::FtGmresStart> starts) {
  std::vector<krylov::FtGmresResult> res =
      krylov::ft_gmres_batch(*a_, bs, opts_, hooks, &ws_, starts);
  std::vector<SolveReport> reports;
  reports.reserve(res.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    copy_out(res[i].x, xs[i]);
    SolveReport& r = reports.emplace_back();
    r.status = res[i].status;
    r.iterations = res[i].outer_iterations;
    r.total_inner_iterations = res[i].total_inner_iterations;
    r.total_inner_applies = res[i].total_inner_applies;
    r.residual_norm = res[i].residual_norm;
    r.residual_history = std::move(res[i].residual_history);
    r.inner_solves = std::move(res[i].inner_solves);
    r.sanitized_outputs = res[i].sanitized_outputs;
    r.reliable_retries = res[i].reliable_retries;
    r.outer_restarts = res[i].outer_restarts;
    r.global_syncs = res[i].global_syncs;
  }
  return reports;
}

krylov::OperatorStats FtGmresSolver::mixed_stats() const noexcept {
  return ws_.plane != nullptr ? ws_.plane->stats() : krylov::OperatorStats{};
}

// ---------------------------------------------------------------------------
// CgSolver
// ---------------------------------------------------------------------------

CgSolver::CgSolver(const krylov::LinearOperator& A, const Options& opts)
    : a_(&A), opts_((reject_s_step(opts, "cg"), to_cg_options(opts))) {}

SolveReport CgSolver::solve(std::span<const double> b, std::span<double> x) {
  check_sizes(*this, b, x);
  copy_in(b, b_scratch_);
  copy_in(x, x_scratch_);
  krylov::CgResult res = krylov::cg(*a_, b_scratch_, x_scratch_, opts_);
  copy_out(res.x, x);
  SolveReport r;
  r.status = res.indefinite  ? SolveStatus::Indefinite
             : res.converged ? SolveStatus::Converged
                             : SolveStatus::MaxIterations;
  r.iterations = res.iterations;
  r.residual_norm = res.residual_norm;
  r.residual_history = std::move(res.residual_history);
  return r;
}

// ---------------------------------------------------------------------------
// FcgSolver
// ---------------------------------------------------------------------------

FcgSolver::FcgSolver(const krylov::LinearOperator& A, const Options& opts,
                     krylov::FlexiblePreconditioner* M)
    : a_(&A), opts_((reject_s_step(opts, "fcg"), to_fcg_options(opts))),
      fixed_adapter_(opts.precond != nullptr
                         ? *opts.precond
                         : static_cast<const krylov::Preconditioner&>(
                               identity_)) {
  m_ = (M != nullptr) ? M : &fixed_adapter_;
}

SolveReport FcgSolver::solve(std::span<const double> b, std::span<double> x) {
  check_sizes(*this, b, x);
  copy_in(b, b_scratch_);
  copy_in(x, x_scratch_);
  krylov::FcgResult res =
      krylov::fcg(*a_, b_scratch_, x_scratch_, opts_, *m_);
  copy_out(res.x, x);
  SolveReport r;
  r.status = res.status;
  r.iterations = res.outer_iterations;
  r.residual_norm = res.residual_norm;
  r.residual_history = std::move(res.residual_history);
  r.sanitized_outputs = res.sanitized_outputs;
  return r;
}

// ---------------------------------------------------------------------------
// FtCgSolver
// ---------------------------------------------------------------------------

FtCgSolver::FtCgSolver(const krylov::LinearOperator& A, const Options& opts)
    : a_(&A), opts_((reject_s_step(opts, "ft_cg"), to_ft_cg_options(opts))) {}

SolveReport FtCgSolver::solve(std::span<const double> b,
                              std::span<double> x) {
  check_sizes(*this, b, x);
  copy_in(b, b_scratch_);
  krylov::FtCgResult res = krylov::ft_cg(*a_, b_scratch_, opts_, hook_);
  copy_out(res.x, x);
  SolveReport r;
  r.status = res.status;
  r.iterations = res.outer_iterations;
  r.total_inner_iterations = res.total_inner_iterations;
  r.residual_norm = res.residual_norm;
  r.residual_history = std::move(res.residual_history);
  r.sanitized_outputs = res.sanitized_outputs;
  return r;
}

} // namespace sdcgmres::solver
