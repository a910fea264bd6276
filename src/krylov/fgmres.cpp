#include "krylov/fgmres.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dense/hessenberg_qr.hpp"
#include "dense/svd.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"

namespace sdcgmres::krylov {

namespace {

/// sigma_min / sigma_max of the current triangular factor; 0 for singular.
double sigma_ratio(const dense::HessenbergQr& qr) {
  const auto svd = dense::jacobi_svd(qr.r_block());
  const std::size_t k = qr.size();
  if (k == 0) return 1.0;
  const double smax = svd.sigma[0];
  const double smin = svd.sigma[k - 1];
  if (smax == 0.0) return 0.0;
  return smin / smax;
}

/// Offset of Hessenberg column j (j+2 entries) in a packed store.
constexpr std::size_t packed_offset(std::size_t j) noexcept {
  return j * (j + 3) / 2;
}

/// Bitwise equality, so NaN payloads and signed zeros count.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// x := x0 + Z y for the current projected solution (one gemv over the
/// contiguous preconditioned-direction block).
void form_iterate(const la::Vector& x0, const la::KrylovBasis& zbasis,
                  const dense::HessenbergQr& qr, const FgmresOptions& opts,
                  la::Vector& x) {
  x = x0;
  const std::size_t k = qr.size();
  if (k == 0) return;
  const auto solve = dense::solve_projected(qr.r_block(), qr.rhs_block(),
                                            opts.lsq_policy,
                                            opts.truncation_tol);
  la::gemv(1.0, zbasis.view(k), std::span<const double>(solve.y.data(), k),
           1.0, x.span());
}

} // namespace

// ---------------------------------------------------------------------------
// FgmresEngine: the one FGMRES implementation.  fgmres() below drives it
// straight through; the FT-GMRES driver interleaves many engines.  Any change
// to the iteration math happens HERE and nowhere else.
// ---------------------------------------------------------------------------

FgmresEngine::FgmresEngine(const LinearOperator& A, std::span<const double> b,
                           std::span<const double> x0,
                           const FgmresOptions& opts, KrylovWorkspace& ws)
    : a_(&A), b_(b), opts_(opts), w_(&ws), n_(A.rows()) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("fgmres: operator must be square");
  }
  if (b.size() != A.rows() || x0.size() != A.cols()) {
    throw std::invalid_argument("fgmres: vector size mismatch");
  }
  if (opts.max_outer == 0) {
    throw std::invalid_argument("fgmres: max_outer must be positive");
  }
  x0_.resize(n_);
  std::copy(x0.begin(), x0.end(), x0_.begin());
  result_.x = x0_;
}

bool FgmresEngine::past_deadline() const {
  return opts_.deadline_seconds > 0.0 &&
         std::chrono::steady_clock::now() >= deadline_;
}

void FgmresEngine::arm() {
  w_->arena.reserve(n_, opts_.max_outer);
  if (opts_.deadline_seconds > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opts_.deadline_seconds));
  }
}

void FgmresEngine::reset_projection() {
  w_->qr.reset(opts_.max_outer, beta_);
  if (opts_.rank_check_every_iteration) {
    ice_.reset();
    ice_.reserve(opts_.max_outer);
    ice_col_.resize(opts_.max_outer);
  }
  std::vector<double>& hcol = w_->arena.h_column();
  std::fill(hcol.begin(),
            hcol.begin() + static_cast<std::ptrdiff_t>(opts_.max_outer + 2),
            0.0);
}

double FgmresEngine::track_condition() {
  const dense::HessenbergQr& qr = w_->qr;
  const std::size_t k = qr.size();
  for (std::size_t i = 0; i < k; ++i) ice_col_[i] = qr.r(i, k - 1);
  ice_.update({ice_col_.data(), k});
  return ice_.ratio();
}

bool FgmresEngine::start() {
  ++result_.global_syncs; // ||b||
  bnorm_ = la::nrm2(b_);
  abs_target_ = opts_.tol * (bnorm_ > 0.0 ? bnorm_ : 1.0);
  arm();

  // Reliable initial residual.
  la::Vector& r = w_->arena.scratch(0);
  a_->apply(x0_.span(), r.span());
  la::waxpby(1.0, b_, -1.0, r.span(), r.span());
  ++result_.global_syncs; // beta = ||r||
  beta_ = la::nrm2(r);
  beta0_ = beta_;
  result_.residual_norm = beta_;
  if (beta_ <= abs_target_) {
    result_.status = SolveStatus::Converged;
    finished_ = true;
    return true;
  }

  // Both bases live in contiguous column-major workspace arenas: q feeds
  // the fused orthogonalization kernels, zbasis feeds the gemv in
  // form_iterate.  The preconditioner reads q's columns and writes z's
  // columns directly -- the whole per-iteration data plane is spans over
  // these two arenas plus two scratch vectors.
  la::KrylovBasis& q = w_->arena.basis();           // orthonormal basis
  la::KrylovBasis& zbasis = w_->arena.directions(); // preconditioned dirs
  q.clear();
  zbasis.clear();
  q.append(r.span(), 1.0 / beta_);
  reset_projection();
  return false;
}

void FgmresEngine::resume(const FgmresTrajectory& t, std::size_t k) {
  if (k >= t.size() || t.rows != n_) {
    throw std::invalid_argument("fgmres: resume boundary " +
                                std::to_string(k) +
                                " is not recorded in the trajectory");
  }
  bnorm_ = t.bnorm;
  abs_target_ = opts_.tol * (bnorm_ > 0.0 ? bnorm_ : 1.0);
  beta_ = t.beta;
  beta0_ = beta_;
  arm();

  const FgmresTrajectory::Boundary& at = t.boundaries[k];
  result_.residual_norm = beta_;
  result_.outer_iterations = k;
  result_.residual_history.assign(
      t.residual_history.begin(),
      t.residual_history.begin() + static_cast<std::ptrdiff_t>(k));
  result_.global_syncs = at.global_syncs;
  result_.rank_checks = at.rank_checks;
  result_.sanitized_outputs = at.sanitized_outputs;
  result_.min_sigma_ratio = at.min_sigma_ratio;

  // The recorded columns are final once appended, so the prefix is a
  // plain copy; the projected QR and the conditioning monitor are rebuilt
  // by the same add_column/update sequence advance() ran.
  const auto column = [this](const std::vector<double>& cols, std::size_t i) {
    return std::span<const double>(cols.data() + i * n_, n_);
  };
  la::KrylovBasis& q = w_->arena.basis();
  la::KrylovBasis& zbasis = w_->arena.directions();
  q.clear();
  zbasis.clear();
  for (std::size_t i = 0; i <= k; ++i) q.append(column(t.v, i));
  for (std::size_t i = 0; i < k; ++i) zbasis.append(column(t.z, i));
  reset_projection();
  h_.assign(t.h.begin(), t.h.begin() + static_cast<std::ptrdiff_t>(
                                          packed_offset(k)));
  for (std::size_t j = 0; j < k; ++j) {
    w_->qr.add_column({h_.data() + packed_offset(j), j + 2});
    if (opts_.rank_check_every_iteration) (void)track_condition();
  }
  j_ = k;
  first_ = k;
}

bool FgmresEngine::snapshot(FgmresTrajectory& t) const {
  if (finished_ || !replayable_) return false;
  if (t.size() != j_) {
    throw std::logic_error(
        "FgmresEngine::snapshot: boundaries must be recorded in order");
  }
  const auto push = [](std::vector<double>& to, std::span<const double> col) {
    to.insert(to.end(), col.begin(), col.end());
  };
  if (j_ == 0) {
    t.rows = n_;
    t.bnorm = bnorm_;
    t.beta = beta_;
  } else {
    // The arena's Hessenberg column still holds the accepted column of
    // iteration j-1 (j+1 entries).
    const std::vector<double>& hcol = w_->arena.h_column();
    t.h.insert(t.h.end(), hcol.begin(),
               hcol.begin() + static_cast<std::ptrdiff_t>(j_ + 1));
    push(t.z, w_->arena.directions().col(j_ - 1));
    t.residual_history.push_back(result_.residual_history.back());
  }
  push(t.v, w_->arena.basis().col(j_));
  t.boundaries.push_back({.global_syncs = result_.global_syncs,
                          .rank_checks = result_.rank_checks,
                          .sanitized_outputs = result_.sanitized_outputs,
                          .min_sigma_ratio = result_.min_sigma_ratio});
  return true;
}

bool FgmresEngine::matches(const FgmresTrajectory& t) const {
  if (finished_ || !replayable_ || j_ >= t.size() || t.rows != n_) {
    return false;
  }
  // Cheapest first: a faulted solve usually differs from its first
  // residual estimate on.
  const FgmresTrajectory::Boundary& at = t.boundaries[j_];
  if (!same_bits(result_.residual_history, {t.residual_history.data(), j_}) ||
      result_.global_syncs != at.global_syncs ||
      result_.rank_checks != at.rank_checks ||
      result_.sanitized_outputs != at.sanitized_outputs ||
      !same_bits(result_.min_sigma_ratio, at.min_sigma_ratio) ||
      !same_bits(bnorm_, t.bnorm) || !same_bits(beta_, t.beta)) {
    return false;
  }
  const std::size_t h_from = packed_offset(first_);
  const std::size_t h_to = packed_offset(j_);
  if (!same_bits({h_.data() + h_from, h_to - h_from},
                 {t.h.data() + h_from, h_to - h_from})) {
    return false;
  }
  const la::KrylovBasis& q = w_->arena.basis();
  const la::KrylovBasis& zbasis = w_->arena.directions();
  for (std::size_t i = first_; i < j_; ++i) {
    if (!same_bits(zbasis.col(i), {t.z.data() + i * n_, n_})) return false;
  }
  for (std::size_t i = first_; i <= j_; ++i) {
    if (!same_bits(q.col(i), {t.v.data() + i * n_, n_})) return false;
  }
  return true;
}

FgmresEngine::PrecondRequest FgmresEngine::begin_iteration() {
  // --- Unreliable phase: the caller applies the (flexible) preconditioner
  // straight into the next Z-arena column (zero copies at the boundary).
  std::span<double> zcol = w_->arena.directions().append();
  return {w_->arena.basis().col(j_), j_, zcol};
}

std::span<const double> FgmresEngine::direction() {
  // --- Reliable phase resumes: sanitize before the direction is used.
  std::span<double> zcol = w_->arena.directions().col(j_);
  if (opts_.sanitize_preconditioner_output) {
    ++result_.global_syncs; // finiteness/zero screen of z_j
  }
  if (opts_.sanitize_preconditioner_output &&
      (!la::all_finite(std::span<const double>(zcol)) ||
       la::nrm2(std::span<const double>(zcol)) == 0.0)) {
    // The sandbox guest produced theoretically impossible values (Inf or
    // NaN), or returned the zero vector -- impossible for any nonsingular
    // preconditioner.  Fall back to the identity preconditioner for this
    // step (z := q_j).
    la::copy(w_->arena.basis().col(j_), zcol);
    ++result_.sanitized_outputs;
  }
  return zcol;
}

std::span<double> FgmresEngine::v_target() {
  return w_->arena.scratch(1).span();
}

bool FgmresEngine::advance() {
  const std::size_t j = j_;
  la::KrylovBasis& q = w_->arena.basis();
  la::KrylovBasis& zbasis = w_->arena.directions();
  dense::HessenbergQr& qr = w_->qr;
  la::Vector& r = w_->arena.scratch(0);
  la::Vector& v = w_->arena.scratch(1);
  std::vector<double>& hcol = w_->arena.h_column();

  double hnext = 0.0;
  double est = 0.0;
  double ratio = 1.0;
  bool subdiag_small = false;
  bool rank_deficient = false;
  // At most two attempts: the caller-provided direction, then (when
  // sanitizing) the identity-preconditioner fallback.  A direction that is
  // (numerically) linearly dependent on the existing basis -- e.g. an
  // inner solve whose faulty projected problem truncated to a ~zero
  // update -- is discarded and the iteration retried; a second failure
  // is then a property of A itself and is reported loudly below.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) a_->apply(zbasis.col(j), v.span());
    const ArnoldiContext ctx{.solve_index = 0, .iteration = j};
    switch (opts_.ortho) {
      case Orthogonalization::MGS: result_.global_syncs += j + 1; break;
      case Orthogonalization::CGS: result_.global_syncs += 1; break;
      case Orthogonalization::CGS2: result_.global_syncs += 2; break;
    }
    ++result_.global_syncs; // h(j+1,j) = ||v||
    hnext = orthogonalize(opts_.ortho, q, j + 1, v, hcol, nullptr, ctx).exit;
    hcol[j + 1] = hnext;
    est = qr.add_column({hcol.data(), j + 2});
    result_.outer_iterations = base_iters_ + j + 1;

    // --- Rank-revealing bookkeeping (trichotomy, Section VI-C). ---
    // Per-iteration monitoring is the O(k) incremental estimate over the
    // just-appended R column; the exact SVD oracle runs only at
    // subdiagonal breakdown, where a DECISION (rank-deficient vs happy
    // breakdown) is made -- the estimator only upper-bounds the true
    // ratio, so it must never certify full rank on its own.
    ratio = 1.0;
    subdiag_small = hnext <= opts_.breakdown_tol * beta_;
    if (opts_.rank_check_every_iteration) {
      ratio = track_condition();
      ++result_.rank_checks;
      result_.min_sigma_ratio = std::min(result_.min_sigma_ratio, ratio);
    }
    if (subdiag_small) {
      ratio = sigma_ratio(qr);
      if (!opts_.rank_check_every_iteration) ++result_.rank_checks;
      result_.min_sigma_ratio = std::min(result_.min_sigma_ratio, ratio);
    }
    rank_deficient = subdiag_small && ratio <= opts_.rank_tol;
    if (!rank_deficient) break;
    if (!opts_.sanitize_preconditioner_output || attempt == 1) break;
    ++result_.sanitized_outputs;
    replayable_ = false;
    qr.pop_column();
    if (opts_.rank_check_every_iteration) ice_.pop();
    la::copy(q.col(j), zbasis.col(j));
  }
  if (subdiag_small) {
    result_.residual_history.push_back(est);
    form_iterate(x0_, zbasis, qr, opts_, result_.x);
    a_->apply(result_.x.span(), r.span());
    la::waxpby(1.0, b_, -1.0, r.span(), r.span());
    ++result_.global_syncs; // explicit ||b - A*x||
    result_.residual_norm = la::nrm2(r);
    if (rank_deficient) {
      // Saad's Proposition 2.2 case: loud failure, never a wrong answer.
      result_.status = SolveStatus::RankDeficient;
    } else {
      result_.status = result_.residual_norm <= abs_target_
                           ? SolveStatus::Converged
                           : SolveStatus::HappyBreakdown;
    }
    finished_ = true;
    return true;
  }

  result_.residual_history.push_back(est);
  h_.insert(h_.end(), hcol.begin(),
            hcol.begin() + static_cast<std::ptrdiff_t>(j + 2));
  q.append(v.span(), 1.0 / hnext);

  if (est <= abs_target_) {
    form_iterate(x0_, zbasis, qr, opts_, result_.x);
    if (!opts_.verify_with_explicit_residual) {
      result_.residual_norm = est;
      result_.status = SolveStatus::Converged;
      finished_ = true;
      return true;
    }
    a_->apply(result_.x.span(), r.span());
    la::waxpby(1.0, b_, -1.0, r.span(), r.span());
    ++result_.global_syncs; // explicit ||b - A*x||
    result_.residual_norm = la::nrm2(r);
    if (result_.residual_norm <= abs_target_) {
      result_.status = SolveStatus::Converged;
      finished_ = true;
      return true;
    }
    // Estimate was optimistic (can happen with truncated updates);
    // keep iterating.
  }

  // --- Divergence guard: a residual estimate blowing past the initial
  // residual (or going non-finite) certifies the iteration is not
  // converging; finalize the best iterate instead of burning the budget.
  if (opts_.divergence_factor > 0.0 &&
      (!std::isfinite(est) || est > opts_.divergence_factor * beta0_)) {
    form_iterate(x0_, zbasis, qr, opts_, result_.x);
    a_->apply(result_.x.span(), r.span());
    la::waxpby(1.0, b_, -1.0, r.span(), r.span());
    ++result_.global_syncs; // explicit ||b - A*x||
    result_.residual_norm = la::nrm2(r);
    result_.status = result_.residual_norm <= abs_target_
                         ? SolveStatus::Converged
                         : SolveStatus::Diverged;
    finished_ = true;
    return true;
  }

  ++j_;
  if (base_iters_ + j_ >= opts_.max_outer || past_deadline()) {
    const bool deadline_hit = base_iters_ + j_ < opts_.max_outer;
    form_iterate(x0_, zbasis, qr, opts_, result_.x);
    a_->apply(result_.x.span(), r.span());
    la::waxpby(1.0, b_, -1.0, r.span(), r.span());
    ++result_.global_syncs; // explicit ||b - A*x||
    result_.residual_norm = la::nrm2(r);
    result_.status = result_.residual_norm <= abs_target_
                         ? SolveStatus::Converged
                     : deadline_hit ? SolveStatus::DeadlineExceeded
                                    : SolveStatus::MaxIterations;
    finished_ = true;
    return true;
  }
  return false;
}

bool FgmresEngine::restart_cycle() {
  la::KrylovBasis& q = w_->arena.basis();
  la::KrylovBasis& zbasis = w_->arena.directions();
  dense::HessenbergQr& qr = w_->qr;
  la::Vector& r = w_->arena.scratch(0);

  // The flagged iteration consumed budget like any other (a persistently
  // faulty inner solve must not loop forever): j_ accepted columns plus
  // the one direction begin_iteration() appended but never committed.
  base_iters_ += j_ + 1;
  ++result_.outer_restarts;
  replayable_ = false;
  result_.outer_iterations = base_iters_;

  // Fold the accepted columns into the iterate -- the flagged direction
  // never entered the projected QR factorization -- and restart from the
  // reliable explicit residual.
  form_iterate(x0_, zbasis, qr, opts_, result_.x);
  x0_ = result_.x;
  a_->apply(x0_.span(), r.span());
  la::waxpby(1.0, b_, -1.0, r.span(), r.span());
  ++result_.global_syncs; // explicit restart residual
  beta_ = la::nrm2(r);
  result_.residual_norm = beta_;

  if (beta_ <= abs_target_) {
    result_.status = SolveStatus::Converged;
    finished_ = true;
    return true;
  }
  if (!std::isfinite(beta_)) {
    result_.status = SolveStatus::Diverged;
    finished_ = true;
    return true;
  }
  if (base_iters_ >= opts_.max_outer) {
    result_.status = SolveStatus::MaxIterations;
    finished_ = true;
    return true;
  }
  if (past_deadline()) {
    result_.status = SolveStatus::DeadlineExceeded;
    finished_ = true;
    return true;
  }

  q.clear();
  zbasis.clear();
  q.append(r.span(), 1.0 / beta_);
  reset_projection();
  j_ = 0;
  return false;
}

FgmresResult fgmres(const LinearOperator& A, const la::Vector& b,
                    const la::Vector& x0, const FgmresOptions& opts,
                    FlexiblePreconditioner& M, KrylovWorkspace* ws) {
  KrylovWorkspace local;
  KrylovWorkspace& w = (ws != nullptr) ? *ws : local;
  FgmresEngine engine(A, b.span(), x0.span(), opts, w);
  if (!engine.start()) {
    while (true) {
      const FgmresEngine::PrecondRequest req = engine.begin_iteration();
      M.apply(req.q, req.outer_index, req.z);
      A.apply(engine.direction(), engine.v_target());
      if (engine.advance()) break;
    }
  }
  return engine.take_result();
}

} // namespace sdcgmres::krylov
