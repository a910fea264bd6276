#include "krylov/gmres.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dense/hessenberg_qr.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "la/tsqr.hpp"

namespace sdcgmres::krylov {

namespace {

/// Global reductions one orthogonalization pass over k columns costs on a
/// distributed machine: MGS is k sequential dot products, CGS is one
/// blocked gemv_t pass, CGS2 two.
inline std::size_t ortho_sync_count(Orthogonalization kind,
                                    std::size_t k) noexcept {
  switch (kind) {
    case Orthogonalization::MGS: return k;
    case Orthogonalization::CGS: return 1;
    case Orthogonalization::CGS2: return 2;
  }
  return 0;
}

// Basis traffic, in length-n words (GmresStats::basis_bytes).

/// append(v, scale): read v, write the new column.
constexpr std::size_t kAppendWords = 2;

/// One blocked projection pass over k columns: gemv_t reads every column
/// once and v once per four-column group (each tail column re-reads v);
/// gemv reads every column once and reads and writes v once.
inline std::size_t projection_words(std::size_t k) noexcept {
  return (k + k / 4 + k % 4) + (k + 2);
}

/// One orthogonalization of v against k columns, norms of v on entry and
/// exit included.  MGS is one la::mgs pass: sweep 0 reads q_0 and v,
/// sweeps 1..k-1 read q_{i-1}, q_i and v and write v, sweep k reads
/// q_{k-1} and v and writes v.  CGS and CGS2 run one or two projection
/// passes plus the two la::nrm2 calls.
inline std::size_t ortho_words(Orthogonalization kind,
                               std::size_t k) noexcept {
  switch (kind) {
    case Orthogonalization::MGS: return 4 * k + 1;
    case Orthogonalization::CGS: return projection_words(k) + 2;
    case Orthogonalization::CGS2: return 2 * projection_words(k) + 2;
  }
  return 0;
}

/// la::tsqr of an n x m panel: the local Householder QR and the explicit
/// local Q read and write the panel once (row panels stay cache-resident),
/// the final panel-times-G multiply reads and writes it again.
inline std::size_t tsqr_words(std::size_t m) noexcept { return 4 * m; }

} // namespace

// ---------------------------------------------------------------------------
// GmresEngine: the one GMRES implementation.  gmres_in_place() below drives
// it straight through; the FT-GMRES batch driver interleaves many engines
// (one per lockstep instance) so their products fuse into block applies.
// Any change to the iteration math happens HERE and nowhere else.
//
// Workspace layout (all checked out of the bound KrylovWorkspace; with a
// reused workspace of matching shape nothing on the solve path touches the
// heap): scratch(0) = residual r, scratch(1) = Arnoldi candidate v,
// scratch(2) = preconditioned direction z, scratch(3) = Q_k y at cycle end.
// ---------------------------------------------------------------------------

template <typename S>
GmresEngineT<S>::GmresEngineT(std::size_t rows, std::size_t cols,
                              std::span<const S> b, std::span<S> x,
                              const GmresOptions& opts, ArnoldiHook* hook,
                              std::size_t solve_index, KrylovWorkspaceT<S>& ws,
                              std::vector<double>* residual_history)
    : b_(b), x_(x), opts_(opts), hook_(hook), solve_index_(solve_index),
      w_(&ws), history_(residual_history), n_(rows) {
  if (rows != cols) {
    throw std::invalid_argument("gmres: operator must be square");
  }
  if (b.size() != rows || x.size() != cols) {
    throw std::invalid_argument("gmres: vector size mismatch");
  }
  if (opts.max_iters == 0) {
    throw std::invalid_argument("gmres: max_iters must be positive");
  }
  if constexpr (!std::is_same_v<S, double>) {
    if (opts.right_precond != nullptr) {
      throw std::invalid_argument(
          "gmres: the float engine does not support right preconditioning");
    }
  }

  ++stats_.global_syncs; // ||b||
  const double bnorm = static_cast<double>(la::nrm2(b_));
  abs_target_ =
      (opts_.tol > 0.0) ? opts_.tol * (bnorm > 0.0 ? bnorm : 1.0) : 0.0;
  cycle_len_ = (opts_.restart == 0) ? opts_.max_iters : opts_.restart;

  s_ = opts_.s_step;
  if (s_ == 0) {
    throw std::invalid_argument("gmres: s_step must be positive");
  }
  if (s_ > cycle_len_) {
    throw std::invalid_argument(
        "gmres: s_step (" + std::to_string(s_) +
        ") exceeds the restart cycle length (" + std::to_string(cycle_len_) +
        "); valid range is 1.." + std::to_string(cycle_len_));
  }
  if (s_ > n_) {
    throw std::invalid_argument(
        "gmres: s_step (" + std::to_string(s_) +
        ") exceeds the operator dimension (" + std::to_string(n_) +
        "); valid range is 1.." + std::to_string(n_));
  }
  if (s_ > 1 && opts_.right_precond != nullptr) {
    throw std::invalid_argument(
        "gmres: s-step mode does not support right preconditioning "
        "(set s_step=1 or drop the preconditioner)");
  }
  w_->arena.reserve(n_, cycle_len_);

  if (hook_ != nullptr) hook_->on_solve_begin(solve_index_);
}

template <typename S>
std::span<S> GmresEngineT<S>::residual_target() {
  if (ext_bound_) return ext_target_;
  return w_->arena.scratch(0).span();
}

template <typename S>
bool GmresEngineT<S>::start_cycle() {
  ++stats_.operator_applies; // the caller-provided A*x this call consumes

  la::VectorT<S>& r = w_->arena.scratch(0);
  std::vector<S>& hcol = w_->arena.h_column();
  std::fill(hcol.begin(),
            hcol.begin() + static_cast<std::ptrdiff_t>(cycle_len_ + 2), S(0));
  if (s_ > 1) {
    hmat_.clear();
    stage_count_ = 0;
    stage_idx_ = 0;
  }

  // Reliable residual at cycle start: r = b - A*x (A*x is in r already,
  // or in the bound staging column when a lockstep driver bound one --
  // same values, different address, so results stay bitwise identical).
  if (ext_bound_) {
    la::waxpby(S(1), b_, S(-1), std::span<const S>(ext_target_), r.span());
  } else {
    la::waxpby(S(1), b_, S(-1), r.span(), r.span());
  }
  ++stats_.global_syncs; // beta = ||r||
  const double beta = static_cast<double>(la::nrm2(std::span<const S>(r.span())));
  stats_.residual_norm = beta;
  if (beta0_ < 0.0) beta0_ = beta; // the solve's initial residual
  if (beta == 0.0 || (abs_target_ > 0.0 && beta <= abs_target_)) {
    stats_.status = SolveStatus::Converged;
    finished_ = true;
    return true;
  }
  if (!std::isfinite(beta)) {
    // A non-finite iterate cannot improve; report and stop.
    stats_.status = SolveStatus::MaxIterations;
    finished_ = true;
    return true;
  }

  // Contiguous column-major basis arena: the whole cycle's basis lives in
  // one buffer so orthogonalization runs as fused block kernels.
  la::KrylovBasisT<S>& q = w_->arena.basis();
  q.clear();
  q.append(r.span(), static_cast<S>(1.0 / beta));
  add_basis_words(kAppendWords);

  w_->qr.reset(cycle_len_, static_cast<S>(beta));
  awaiting_residual_ = false;
  return false;
}

template <typename S>
void GmresEngineT<S>::begin_iteration() {
  if (s_ > 1) {
    if (stage_count_ == 0) {
      // New matrix-powers block: size it to what the cycle and the
      // iteration budget can still absorb, so a block never overruns
      // either (the tail block of a 25-iteration s=4 solve has 1 power).
      block_j0_ = w_->qr.size();
      stage_idx_ = 0;
      const std::size_t cycle_room = cycle_len_ - block_j0_;
      const std::size_t budget_room = opts_.max_iters - stats_.iterations;
      stage_count_ = std::min(s_, std::min(cycle_room, budget_room));
    }
    const ArnoldiContext ctx{.solve_index = solve_index_,
                             .iteration = block_j0_ + stage_idx_};
    if (hook_ != nullptr) hook_->on_iteration_begin(ctx);
    // Staging column for the pending power (freshly zeroed by the arena).
    w_->arena.basis().append();
    return;
  }

  const std::size_t j = w_->qr.size();
  const ArnoldiContext ctx{.solve_index = solve_index_, .iteration = j};
  if (hook_ != nullptr) hook_->on_iteration_begin(ctx);

  // Right-preconditioned: the pending product is A * (M^{-1} q_j); the
  // preconditioner runs span-to-span out of the arena, here and now.
  // (Double engine only; the float constructor rejects right_precond.)
  if constexpr (std::is_same_v<S, double>) {
    if (opts_.right_precond != nullptr) {
      opts_.right_precond->apply(w_->arena.basis().col(j),
                                 w_->arena.scratch(2).span());
    }
  }
}

template <typename S>
std::span<const S> GmresEngineT<S>::direction() const {
  if (s_ > 1 && stage_count_ > 0) {
    // Power chain: the first power multiplies the last committed basis
    // vector, every later one the previously staged power.
    return w_->arena.basis().col(block_j0_ + stage_idx_);
  }
  if constexpr (std::is_same_v<S, double>) {
    if (opts_.right_precond != nullptr) {
      return w_->arena.scratch(2).span();
    }
  }
  return w_->arena.basis().col(w_->qr.size());
}

template <typename S>
std::span<S> GmresEngineT<S>::v_target() {
  if (ext_bound_) return ext_target_;
  if (s_ > 1 && stage_count_ > 0) {
    return w_->arena.basis().col(block_j0_ + 1 + stage_idx_);
  }
  return w_->arena.scratch(1).span();
}

template <typename S>
bool GmresEngineT<S>::advance() {
  if (s_ > 1 && stage_count_ > 0) return advance_staged();

  ++stats_.operator_applies; // the caller-provided A*direction()

  const std::size_t j = w_->qr.size();
  la::KrylovBasisT<S>& q = w_->arena.basis();
  const std::span<S> v =
      ext_bound_ ? ext_target_ : w_->arena.scratch(1).span();
  std::vector<S>& hcol = w_->arena.h_column();
  const ArnoldiContext ctx{.solve_index = solve_index_, .iteration = j};

  if (hook_ != nullptr) {
    if constexpr (std::is_same_v<S, double>) {
      hook_->on_matvec_result(ctx, v);
    } else {
      // Widen the float candidate for the double-typed hook, then narrow
      // the (possibly mutated) copy back: faults injected at the matvec
      // site land in the float data plane.
      hook_vec_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        hook_vec_[i] = static_cast<double>(v[i]);
      }
      hook_->on_matvec_result(ctx, hook_vec_.span());
      for (std::size_t i = 0; i < n_; ++i) {
        v[i] = static_cast<S>(hook_vec_[i]);
      }
    }
  }
  // One pass orthogonalizes v and measures it before (the breakdown
  // scale reference) and after (h(j+1,j)).
  ++stats_.global_syncs; // ||v|| (breakdown scale)
  stats_.global_syncs += ortho_sync_count(opts_.ortho, j + 1);
  add_basis_words(ortho_words(opts_.ortho, j + 1));
  const la::OrthoNorms<S> norms =
      orthogonalize(opts_.ortho, q, j + 1, v, hcol, hook_, ctx);
  const double w_norm = static_cast<double>(norms.entry);
  if (hook_ != nullptr && hook_->abort_requested()) {
    // Drop the tainted column entirely; solve with the j columns that
    // were accepted before the detector fired.
    return finish_cycle(/*aborted=*/true, false, false, false, false);
  }

  ++stats_.global_syncs; // h(j+1,j) = ||v||
  double hnext = static_cast<double>(norms.exit);
  if (hook_ != nullptr) hook_->on_subdiagonal(ctx, hnext);
  if (hook_ != nullptr && hook_->abort_requested()) {
    return finish_cycle(/*aborted=*/true, false, false, false, false);
  }

  hcol[j + 1] = static_cast<S>(hnext);
  const double est = w_->qr.add_column({hcol.data(), j + 2});
  if (history_ != nullptr) history_->push_back(est);
  ++stats_.iterations;
  stats_.residual_norm = est;

  // --- Divergence guard: a least-squares estimate blowing past the
  // initial residual (or going non-finite) means the projected problem is
  // garbage -- in FT-GMRES, typically a corrupted Hessenberg column.
  // Drop the exploding column and return the pre-explosion iterate, like
  // a detector abort but guard-triggered.
  if (opts_.divergence_factor > 0.0 && beta0_ > 0.0 &&
      (!std::isfinite(est) || est > opts_.divergence_factor * beta0_)) {
    if (history_ != nullptr) history_->pop_back();
    --stats_.iterations;
    return finish_cycle(false, false, false, /*diverged=*/true,
                        /*qr_pop_pending=*/true);
  }

  if (hnext <= opts_.breakdown_tol * (w_norm > 0.0 ? w_norm : 1.0)) {
    return finish_cycle(false, /*breakdown=*/true, false, false, false);
  }
  q.append(std::span<const S>(v), static_cast<S>(1.0 / hnext));
  add_basis_words(kAppendWords);

  if (hook_ != nullptr) {
    if constexpr (std::is_same_v<S, double>) {
      const ArnoldiIterationView view{
          .basis = q.view(j + 2),
          .h_column = {hcol.data(), j + 2},
      };
      hook_->on_iteration_end(ctx, view);
    } else {
      // Full widened mirror of the iteration state for the double-typed
      // whole-iteration checks (Online-ABFT).  Rebuilt per event --
      // correctness over speed; only paid when a hook is installed.
      if (hook_basis_.rows() != n_ || hook_basis_.capacity() < cycle_len_ + 1) {
        hook_basis_ = la::KrylovBasis(n_, cycle_len_ + 1);
      }
      hook_basis_.clear();
      for (std::size_t c = 0; c < j + 2; ++c) {
        std::span<double> dst = hook_basis_.append();
        const std::span<const S> src = q.col(c);
        for (std::size_t i = 0; i < n_; ++i) {
          dst[i] = static_cast<double>(src[i]);
        }
      }
      hook_hcol_.assign(j + 2, 0.0);
      for (std::size_t i = 0; i < j + 2; ++i) {
        hook_hcol_[i] = static_cast<double>(hcol[i]);
      }
      const ArnoldiIterationView view{
          .basis = hook_basis_.view(j + 2),
          .h_column = {hook_hcol_.data(), j + 2},
      };
      hook_->on_iteration_end(ctx, view);
    }
    if (hook_->abort_requested()) {
      // The whole-iteration check rejected this column (Online-ABFT
      // style); drop it and stop, as for coefficient-level aborts.
      q.pop_back();
      // The column is already in the QR factorization; the projected
      // solve below must not use it.
      if (history_ != nullptr) history_->pop_back();
      --stats_.iterations;
      return finish_cycle(/*aborted=*/true, false, false, false,
                          /*qr_pop_pending=*/true);
    }
  }

  if (abs_target_ > 0.0 && est <= abs_target_) {
    return finish_cycle(false, false, /*converged=*/true, false, false);
  }
  if (w_->qr.size() >= cycle_len_ || stats_.iterations >= opts_.max_iters) {
    // Cycle exhausted: restart (or stop on a spent budget).
    return finish_cycle(false, false, false, false, false);
  }
  return false; // next step: begin_iteration()
}

template <typename S>
bool GmresEngineT<S>::advance_staged() {
  ++stats_.operator_applies; // the caller-provided A*direction()
  // NO global reduction here: powers are staged untouched; the whole
  // block is paid for in commit_block() (2 reductions for s columns).

  const ArnoldiContext ctx{.solve_index = solve_index_,
                           .iteration = block_j0_ + stage_idx_};
  const std::span<S> pcol =
      w_->arena.basis().col(block_j0_ + 1 + stage_idx_);
  if (ext_bound_) {
    // Lockstep driver: the product arrived in the bound staging column;
    // persist it into the basis arena (powers must outlive the step).
    la::copy(std::span<const S>(ext_target_), pcol);
  }
  if (hook_ != nullptr) {
    if constexpr (std::is_same_v<S, double>) {
      hook_->on_matvec_result(ctx, pcol);
      hook_->on_power_computed(ctx, stage_idx_, stage_count_, pcol);
    } else {
      hook_vec_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        hook_vec_[i] = static_cast<double>(pcol[i]);
      }
      hook_->on_matvec_result(ctx, hook_vec_.span());
      hook_->on_power_computed(ctx, stage_idx_, stage_count_,
                               hook_vec_.span());
      for (std::size_t i = 0; i < n_; ++i) {
        pcol[i] = static_cast<S>(hook_vec_[i]);
      }
    }
  }
  ++stage_idx_;
  if (stage_idx_ < stage_count_) return false; // next power of the block
  return commit_block();
}

template <typename S>
bool GmresEngineT<S>::commit_block() {
  la::KrylovBasisT<S>& q = w_->arena.basis();
  std::vector<S>& hcol = w_->arena.h_column();
  const std::size_t k = block_j0_ + 1; // committed basis columns
  const std::size_t m = stage_count_;  // powers staged in this block
  stage_count_ = 0;
  stage_idx_ = 0;

  // --- Block projection, ONE fused reduction pass: C = Q_k^T P, then
  // P <- P - Q_k C.  C is kept (widened) for the Hessenberg recovery.
  ++stats_.global_syncs;
  add_basis_words(m * projection_words(k));
  cmat_.assign(k * m, 0.0);
  cs_.resize(k);
  const la::BasisViewT<S> qk = q.view(k);
  for (std::size_t t = 0; t < m; ++t) {
    const std::span<S> pt = q.col(k + t);
    la::gemv_t(S(1), qk, std::span<const S>(pt), S(0),
               std::span<S>(cs_.data(), k));
    la::gemv(S(-1), qk, std::span<const S>(cs_.data(), k), S(1), pt);
    for (std::size_t i = 0; i < k; ++i) {
      cmat_[i + t * k] = static_cast<double>(cs_[i]);
    }
  }

  // --- TSQR over the projected block, ONE reduction pass: P' = U R in
  // place; the staged columns become the block's orthonormal basis
  // columns u_1..u_m (unit length by construction -- a mutated
  // subdiagonal does NOT rescale them, unlike the one-vector path).
  ++stats_.global_syncs;
  add_basis_words(tsqr_words(m));
  rs_.assign(m * m, S(0));
  const la::BlockViewT<S> panel(q.data() + k * q.ld(), n_, m, q.ld());
  la::tsqr(panel, rs_.data(), m);
  rmat_.assign(m * m, 0.0);
  for (std::size_t i = 0; i < m * m; ++i) {
    rmat_[i] = static_cast<double>(rs_[i]);
  }

  // --- Per-column Hessenberg recovery + the standard commit protocol.
  // With P = [p_1..p_m] (p_t = A^t q_{j0}) and P = Q_k C + U R, the
  // coordinates of p_t in the extended basis {q_0..q_j0, u_1..u_m} are
  // g_t = [C(:,t-1); R(:,t-1)].  Column c of the block is the
  // coordinates of A u_c (u_0 := q_j0); from u_c = (p_c - Q_k C(:,c-1)
  // - sum_{t<c} u_t R(t-1,c-1)) / R(c-1,c-1):
  //
  //   coords(A u_c) = (g_{c+1} - sum_i C(i,c-1) coords(A q_i)
  //                    - sum_{t<c} coords(A u_t) R(t-1,c-1)) / R(c-1,c-1)
  //
  // where coords(A q_i) are the COMMITTED (possibly hook-mutated)
  // Hessenberg columns read back from hmat_ -- so an injected fault
  // propagates into every later column, exactly as the corrupted basis
  // would propagate it on the one-vector path.  All recovery arithmetic
  // is double (the float engine widens C and R once per block).
  hraw_.assign(k + m, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t jg = block_j0_ + c; // global column index
    const std::size_t len = jg + 2;
    const ArnoldiContext ctx{.solve_index = solve_index_, .iteration = jg};

    std::fill(hraw_.begin(), hraw_.end(), 0.0);
    if (c == 0) {
      // A q_j0 = p_1: coordinates are g_1 directly.
      for (std::size_t i = 0; i < k; ++i) hraw_[i] = cmat_[i];
      hraw_[k] = rmat_[0];
    } else {
      for (std::size_t i = 0; i < k; ++i) hraw_[i] = cmat_[i + c * k];
      for (std::size_t t = 0; t <= c; ++t) hraw_[k + t] = rmat_[t + c * m];
      for (std::size_t i = 0; i < k; ++i) {
        const double ci = cmat_[i + (c - 1) * k];
        if (ci == 0.0) continue;
        const double* hi = hmat_.data() + hmat_offset(i);
        for (std::size_t r = 0; r < i + 2; ++r) hraw_[r] -= ci * hi[r];
      }
      for (std::size_t t = 1; t < c; ++t) {
        const double rt = rmat_[(t - 1) + (c - 1) * m];
        if (rt == 0.0) continue;
        const double* ht = hmat_.data() + hmat_offset(block_j0_ + t);
        for (std::size_t r = 0; r < k + t + 1; ++r) hraw_[r] -= rt * ht[r];
      }
      const double rdiag = rmat_[(c - 1) + (c - 1) * m];
      for (std::size_t r = 0; r < len; ++r) hraw_[r] /= rdiag;
    }

    // Breakdown scale WITHOUT a global reduction: ||raw column||_2 over
    // the small recovered coordinates stands in for the one-vector
    // path's ||A q_j|| (equal when A u_c lies in the extended span).
    double scale = 0.0;
    for (std::size_t r = 0; r < len; ++r) scale += hraw_[r] * hraw_[r];
    scale = std::sqrt(scale);
    if (!(scale > 0.0)) scale = 1.0;

    // Same hook-event sequence as the one-vector path.
    if (hook_ != nullptr) {
      for (std::size_t i = 0; i <= jg; ++i) {
        hook_->on_projection_coefficient(ctx, i, jg + 1, hraw_[i]);
      }
      if (hook_->abort_requested()) {
        return finish_cycle(/*aborted=*/true, false, false, false, false);
      }
    }
    double hnext = hraw_[jg + 1];
    if (hook_ != nullptr) {
      hook_->on_subdiagonal(ctx, hnext);
      if (hook_->abort_requested()) {
        return finish_cycle(/*aborted=*/true, false, false, false, false);
      }
    }
    hraw_[jg + 1] = hnext;

    for (std::size_t r = 0; r < len; ++r) hcol[r] = static_cast<S>(hraw_[r]);
    const double est = w_->qr.add_column({hcol.data(), len});
    hmat_.insert(hmat_.end(), hraw_.begin(),
                 hraw_.begin() + static_cast<std::ptrdiff_t>(len));
    if (history_ != nullptr) history_->push_back(est);
    ++stats_.iterations;
    stats_.residual_norm = est;

    if (opts_.divergence_factor > 0.0 && beta0_ > 0.0 &&
        (!std::isfinite(est) || est > opts_.divergence_factor * beta0_)) {
      if (history_ != nullptr) history_->pop_back();
      --stats_.iterations;
      return finish_cycle(false, false, false, /*diverged=*/true,
                          /*qr_pop_pending=*/true);
    }
    if (hnext <= opts_.breakdown_tol * scale) {
      return finish_cycle(false, /*breakdown=*/true, false, false, false);
    }

    if (hook_ != nullptr) {
      if constexpr (std::is_same_v<S, double>) {
        const ArnoldiIterationView view{
            .basis = q.view(len),
            .h_column = {hraw_.data(), len},
        };
        hook_->on_iteration_end(ctx, view);
      } else {
        if (hook_basis_.rows() != n_ ||
            hook_basis_.capacity() < cycle_len_ + 1) {
          hook_basis_ = la::KrylovBasis(n_, cycle_len_ + 1);
        }
        hook_basis_.clear();
        for (std::size_t col = 0; col < len; ++col) {
          std::span<double> dst = hook_basis_.append();
          const std::span<const S> src = q.col(col);
          for (std::size_t i = 0; i < n_; ++i) {
            dst[i] = static_cast<double>(src[i]);
          }
        }
        const ArnoldiIterationView view{
            .basis = hook_basis_.view(len),
            .h_column = {hraw_.data(), len},
        };
        hook_->on_iteration_end(ctx, view);
      }
      if (hook_->abort_requested()) {
        // Interior block column: the basis columns stay in the arena
        // (later ones are simply never committed); only the projected
        // factorization rolls back.
        if (history_ != nullptr) history_->pop_back();
        --stats_.iterations;
        return finish_cycle(/*aborted=*/true, false, false, false,
                            /*qr_pop_pending=*/true);
      }
    }

    if (abs_target_ > 0.0 && est <= abs_target_) {
      return finish_cycle(false, false, /*converged=*/true, false, false);
    }
    if (w_->qr.size() >= cycle_len_ ||
        stats_.iterations >= opts_.max_iters) {
      // Only reachable at the block's last column (the block was sized
      // to the remaining cycle/budget room).
      return finish_cycle(false, false, false, false, false);
    }
  }
  return false; // block committed; next step begins a new block
}

template <typename S>
bool GmresEngineT<S>::finish_cycle(bool aborted, bool breakdown,
                                   bool converged, bool diverged,
                                   bool qr_pop_pending) {
  dense::HessenbergQrT<S>& qr = w_->qr;
  la::KrylovBasisT<S>& q = w_->arena.basis();
  la::VectorT<S>& z = w_->arena.scratch(2);
  la::VectorT<S>& update = w_->arena.scratch(3);

  // Form the update x += (M^{-1}) Q_k y from the accepted columns.
  if (qr_pop_pending) {
    qr.pop_column();
    stats_.residual_norm = qr.residual_estimate();
  }
  const std::size_t k = qr.size();
  if (k > 0) {
    // The projected least-squares solve is ALWAYS double: r_block() /
    // rhs_block() widen float factors (O(restart^2) work, negligible
    // against the length-n streams that the float plane narrows).
    const auto solve = dense::solve_projected(qr.r_block(), qr.rhs_block(),
                                              opts_.lsq_policy,
                                              opts_.truncation_tol);
    stats_.lsq_effective_rank = solve.effective_rank;
    stats_.lsq_fallback_triggered = solve.fallback_triggered;
    if constexpr (std::is_same_v<S, double>) {
      // update := Q_k y as one gemv over the contiguous block.
      la::gemv(1.0, q.view(k), std::span<const double>(solve.y.data(), k),
               0.0, std::span<double>(update.data(), n_));
      if (opts_.right_precond != nullptr) {
        opts_.right_precond->apply(std::span<const double>(update.data(), n_),
                                   z.span());
        la::axpy(1.0, std::span<const double>(z.data(), n_), x_);
      } else {
        la::axpy(1.0, std::span<const double>(update.data(), n_), x_);
      }
    } else {
      // Narrow the double solution coefficients, then run the length-n
      // combination in the engine's own precision.
      std::vector<S> y(k);
      for (std::size_t i = 0; i < k; ++i) y[i] = static_cast<S>(solve.y[i]);
      la::gemv(S(1), q.view(k), std::span<const S>(y.data(), k), S(0),
               std::span<S>(update.data(), n_));
      la::axpy(S(1), std::span<const S>(update.data(), n_), x_);
      (void)z;
    }
  }

  if (aborted) {
    stats_.status = SolveStatus::AbortedByDetector;
    finished_ = true;
  } else if (diverged) {
    stats_.status = SolveStatus::Diverged;
    finished_ = true;
  } else if (breakdown) {
    stats_.status = SolveStatus::HappyBreakdown;
    finished_ = true;
  } else if (converged) {
    stats_.status = SolveStatus::Converged;
    finished_ = true;
  } else {
    stats_.status = SolveStatus::MaxIterations;
    finished_ = stats_.iterations >= opts_.max_iters;
    if (!finished_) awaiting_residual_ = true; // restart: next cycle
  }
  return finished_;
}

// The two data planes: the reliable double engine and the mixed-precision
// float inner engine.
template class GmresEngineT<double>;
template class GmresEngineT<float>;

GmresStats gmres_in_place(const LinearOperator& A, std::span<const double> b,
                          std::span<double> x, const GmresOptions& opts,
                          ArnoldiHook* hook, std::size_t solve_index,
                          KrylovWorkspace* ws,
                          std::vector<double>* residual_history) {
  KrylovWorkspace local;
  KrylovWorkspace& w = (ws != nullptr) ? *ws : local;
  GmresEngine engine(A, b, x, opts, hook, solve_index, w, residual_history);
  drive_to_completion(A, engine);
  return engine.stats();
}

GmresResult gmres(const LinearOperator& A, const la::Vector& b,
                  const la::Vector& x0, const GmresOptions& opts,
                  ArnoldiHook* hook, std::size_t solve_index,
                  KrylovWorkspace* ws) {
  GmresResult result;
  result.x = x0;
  result.residual_history.reserve(opts.max_iters);
  const GmresStats stats =
      gmres_in_place(A, b.span(), result.x.span(), opts, hook, solve_index,
                     ws, &result.residual_history);
  result.status = stats.status;
  result.iterations = stats.iterations;
  result.residual_norm = stats.residual_norm;
  result.lsq_effective_rank = stats.lsq_effective_rank;
  result.lsq_fallback_triggered = stats.lsq_fallback_triggered;
  result.global_syncs = stats.global_syncs;
  return result;
}

GmresResult gmres(const sparse::CsrMatrix& A, const la::Vector& b,
                  const GmresOptions& opts, ArnoldiHook* hook) {
  const CsrOperator op(A);
  return gmres(op, b, la::Vector(A.cols()), opts, hook, 0);
}

} // namespace sdcgmres::krylov
