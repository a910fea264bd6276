#include "krylov/ft_gmres.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "krylov/mixed.hpp"

namespace sdcgmres::krylov {

template <typename S>
GmresOptions InnerGmresT<S>::options_for(std::size_t outer_index) const {
  GmresOptions opts = opts_;
  if (robust_first_solve_ && outer_index == 0) {
    // Paper Section VII-E-1: spend extra effort where faults hurt most.
    // CGS2's silent second pass restores the correct total projection
    // coefficient after a single multiplicative fault in the first pass.
    opts.ortho = Orthogonalization::CGS2;
  }
  return opts;
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::start_engine(ArnoldiHook* hook) {
  std::fill(cur_x_.begin(), cur_x_.end(), S(0));
  return GmresEngineT<S>(a_->rows(), a_->cols(), cur_q_, cur_x_,
                         options_for(cur_outer_), hook, cur_outer_,
                         workspace(), /*residual_history=*/nullptr);
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z) {
  // Zero initial guess.  On the double plane the solve runs in place in
  // the caller's storage (b is the outer basis column, x the outer Z-arena
  // column); a narrowed plane runs on staged copies at its own scalar.
  cur_z_ = z;
  cur_outer_ = outer_index;
  retrying_ = false;
  pending_retry_iters_ = 0;
  pending_retry_applies_ = 0;
  pending_retry_syncs_ = 0;
  if constexpr (std::is_same_v<S, double>) {
    cur_q_ = q;
    cur_x_ = z;
  } else {
    q_staged_.resize(q.size());
    z_staged_.resize(z.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      q_staged_[i] = static_cast<S>(q[i]);
    }
    cur_q_ = q_staged_.span();
    cur_x_ = z_staged_.span();
  }
  return start_engine(hook_);
}

template <typename S>
GmresEngineT<S> InnerGmresT<S>::make_reliable_retry(
    const GmresEngineT<S>& aborted) {
  // Carry the aborted attempt's effort into the eventual record, then
  // rebuild the identical solve with the hook detached: no campaign can
  // re-inject and no detector can re-abort -- the recompute is reliable.
  pending_retry_iters_ = aborted.stats().iterations;
  pending_retry_applies_ = aborted.stats().operator_applies;
  pending_retry_syncs_ = aborted.stats().global_syncs;
  retrying_ = true;
  return start_engine(/*hook=*/nullptr);
}

template <typename S>
void InnerGmresT<S>::finish_engine(const GmresEngineT<S>& engine) {
  if constexpr (!std::is_same_v<S, double>) {
    for (std::size_t i = 0; i < cur_z_.size(); ++i) {
      cur_z_[i] = static_cast<double>(cur_x_[i]);
    }
  }
  const GmresStats& inner = engine.stats();
  InnerSolveRecord rec{.outer_index = engine.solve_index(),
                       .status = inner.status,
                       .iterations = pending_retry_iters_ + inner.iterations,
                       .operator_applies =
                           pending_retry_applies_ + inner.operator_applies,
                       .residual_norm = inner.residual_norm};
  rec.global_syncs = pending_retry_syncs_ + inner.global_syncs;
  rec.reliable_retries = retrying_ ? 1 : 0;
  rec.triggered_outer_restart =
      recovery_ == InnerRecovery::RestartOuter &&
      inner.status == SolveStatus::AbortedByDetector;
  records_.push_back(rec);
  retrying_ = false;
  pending_retry_iters_ = 0;
  pending_retry_applies_ = 0;
  pending_retry_syncs_ = 0;
}

template <typename S>
void InnerGmresT<S>::apply(std::span<const double> q, std::size_t outer_index,
                           std::span<double> z) {
  // The canonical straight-through drive of the shared engine (the batch
  // driver runs the same protocol with the products fused per block,
  // including the reliable-retry turnover below).
  GmresEngineT<S> engine = make_engine(q, outer_index, z);
  drive_to_completion(*a_, engine);
  if (wants_reliable_retry(engine)) {
    GmresEngineT<S> retry = make_reliable_retry(engine);
    drive_to_completion(*a_, retry);
    finish_engine(retry);
    return;
  }
  finish_engine(engine);
}

// The two inner data planes: the reliable double solve and the narrowed
// float solve.
template class InnerGmresT<double>;
template class InnerGmresT<float>;

FtGmresResult detail::make_ft_gmres_result(
    FgmresResult&& outer, std::vector<InnerSolveRecord> inner_solves) {
  FtGmresResult result;
  result.x = std::move(outer.x);
  result.status = outer.status;
  result.outer_iterations = outer.outer_iterations;
  result.residual_norm = outer.residual_norm;
  result.residual_history = std::move(outer.residual_history);
  result.inner_solves = std::move(inner_solves);
  result.sanitized_outputs = outer.sanitized_outputs;
  result.outer_restarts = outer.outer_restarts;
  result.global_syncs = outer.global_syncs;
  for (const InnerSolveRecord& rec : result.inner_solves) {
    result.total_inner_iterations += rec.iterations;
    result.total_inner_applies += rec.operator_applies;
    result.reliable_retries += rec.reliable_retries;
    result.global_syncs += rec.global_syncs;
  }
  return result;
}

namespace {

/// The solo drive: the outer engine's loop (same as fgmres()'s, driven
/// directly so RestartOuter can divert a flagged iteration into
/// restart_cycle()) around the inner solve of whichever plane
/// with_inner_operator() selected.
template <typename S>
FtGmresResult drive_solo(const LinearOperator& A, const la::Vector& b,
                         const FtGmresOptions& opts, InnerGmresT<S>& inner,
                         FtGmresWorkspace& w) {
  const la::Vector x0(A.cols());
  FgmresEngine engine(A, b.span(), x0.span(), opts.outer, w.outer);
  if (!engine.start()) {
    while (true) {
      const FgmresEngine::PrecondRequest req = engine.begin_iteration();
      inner.apply(req.q, req.outer_index, req.z);
      if (inner.last_record_requests_outer_restart()) {
        if (engine.restart_cycle()) break;
        continue;
      }
      A.apply(engine.direction(), engine.v_target());
      if (engine.advance()) break;
    }
  }
  return detail::make_ft_gmres_result(engine.take_result(), inner.records());
}

} // namespace

FtGmresResult ft_gmres(const LinearOperator& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  FtGmresWorkspace local;
  FtGmresWorkspace& w = (ws != nullptr) ? *ws : local;
  // The inner solves run on the operator the (precision, index_width)
  // pair selects; the outer iteration (and its products) stays on A.
  return with_inner_operator(
      A, opts, w.plane, [&]<typename S>(const OperatorT<S>& inner_op) {
        InnerGmresT<S> inner(inner_op, opts.inner, inner_hook,
                             opts.robust_first_inner,
                             &inner_workspace_for<S>(w), opts.recovery);
        return drive_solo(A, b, opts, inner, w);
      });
}

FtGmresResult ft_gmres(const sparse::CsrMatrix& A, const la::Vector& b,
                       const FtGmresOptions& opts, ArnoldiHook* inner_hook,
                       FtGmresWorkspace* ws) {
  const CsrOperator op(A);
  return ft_gmres(op, b, opts, inner_hook, ws);
}

} // namespace sdcgmres::krylov
