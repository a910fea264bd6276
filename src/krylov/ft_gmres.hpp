#pragma once
/// \file ft_gmres.hpp
/// \brief Fault-Tolerant GMRES: FGMRES outer + (unreliable) GMRES inner.
///
/// This is the paper's nested solver (Section VI): the outer FGMRES
/// iteration runs reliably and drives convergence; each outer iteration
/// invokes one inner GMRES solve that is allowed to be faulty.  The inner
/// solve is exposed through the FlexiblePreconditioner seam, so the SDC
/// framework's sandbox (sdc/sandbox.hpp) can wrap it with fault campaigns
/// and detectors; the convenience driver here accepts a raw ArnoldiHook for
/// the same purpose.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "krylov/fgmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/precision.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// What the nested solver does when a detector aborts an inner solve
/// (an attached hook's abort_requested() fired).  This is the krylov-level
/// vocabulary; sdc::DetectorResponse maps onto it via
/// sdc::inner_recovery_for -- the krylov layer stays sdc-free.
enum class InnerRecovery {
  None,          ///< keep the aborted inner solve's pre-fault iterate as
                 ///< the outer direction (the paper's AbortSolve behaviour)
  RetryReliable, ///< re-run the flagged inner solve with injection
                 ///< disabled (hook detached): the paper's selective-
                 ///< reliability answer -- recompute in reliable mode
  RestartOuter,  ///< discard the poisoned direction and restart the outer
                 ///< cycle from the accepted columns' explicit residual
                 ///< (FgmresEngine::restart_cycle)
};

/// Options of the nested solver.
struct FtGmresOptions {
  GmresOptions inner;  ///< inner solve config; the paper uses tol = 0 and
                       ///< max_iters = 25 (a fixed-effort preconditioner)
  FgmresOptions outer; ///< reliable outer iteration config
  bool robust_first_inner = false; ///< the paper's Section VII-E-1
                       ///< suggestion, implemented: run the *first* inner
                       ///< solve (the most fault-vulnerable one) with CGS2
                       ///< re-orthogonalization.  The silent second pass
                       ///< restores both the basis vector and the total
                       ///< projection coefficient after a single
                       ///< multiplicative fault, at ~2x orthogonalization
                       ///< cost for that one solve.
  InnerRecovery recovery = InnerRecovery::None; ///< detector-triggered
                       ///< recovery policy; only acts on inner solves that
                       ///< finish with status AbortedByDetector, so runs
                       ///< where no detector fires are bitwise identical
                       ///< at every setting
  Precision precision = Precision::Double; ///< scalar of the inner-solve
                       ///< data plane (basis, Hessenberg QR, operator
                       ///< applies).  Float runs the inner solves on a
                       ///< narrowed mirror of the matrix -- selective
                       ///< reliability's answer to reduced precision: the
                       ///< flexible outer absorbs it like any other inner
                       ///< perturbation.  The outer iteration is always
                       ///< double.
  IndexWidth index_width = IndexWidth::I64; ///< index width of the
                       ///< inner-solve mirror; I32 halves index traffic
                       ///< (narrowing validates, throws on overflow) and
                       ///< never changes arithmetic, so double/I32 results
                       ///< are bitwise identical to the default.  Any
                       ///< non-default (precision, index_width) pair
                       ///< requires a matrix-backed (CSR or SELL)
                       ///< operator.

  /// Paper-style defaults: 25 fixed inner iterations, outer tol 1e-8.
  FtGmresOptions() {
    inner.max_iters = 25;
    inner.tol = 0.0;
  }
};

/// Bookkeeping for one inner solve.
struct InnerSolveRecord {
  std::size_t outer_index = 0;
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t iterations = 0;
  std::size_t operator_applies = 0; ///< operator products this inner solve
                                    ///< consumed (cycle residuals + Arnoldi
                                    ///< products); identical whether they
                                    ///< arrived as solo SpMVs or as columns
                                    ///< of a lockstep batch's fused SpMM
  double residual_norm = 0.0; ///< inner least-squares estimate (may be
                              ///< corrupted when faults were injected)
  std::size_t reliable_retries = 0; ///< 1 when this record's inner solve
                              ///< was recomputed in reliable mode after a
                              ///< detector abort (recovery RetryReliable);
                              ///< iterations/operator_applies then sum
                              ///< BOTH attempts (total effort spent at
                              ///< this outer step) while status and
                              ///< residual_norm describe the final one
  bool triggered_outer_restart = false; ///< this inner solve's detector
                              ///< abort triggered an outer-cycle restart
                              ///< (recovery RestartOuter)
  std::size_t global_syncs = 0; ///< global reductions this inner solve
                              ///< consumed (both attempts when a reliable
                              ///< retry ran); see GmresStats::global_syncs
};

/// Result of an FT-GMRES solve.
struct FtGmresResult {
  la::Vector x;
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t outer_iterations = 0;
  std::size_t total_inner_iterations = 0;
  std::size_t total_inner_applies = 0; ///< operator products consumed by
                                       ///< the inner solves (the dominant
                                       ///< matrix traffic at inner=25)
  double residual_norm = 0.0; ///< explicit ||b - A*x|| at exit
  std::vector<double> residual_history;
  std::vector<InnerSolveRecord> inner_solves;
  std::size_t sanitized_outputs = 0; ///< inner results replaced by q_j
  std::size_t reliable_retries = 0;  ///< inner solves recomputed reliably
                                     ///< (recovery RetryReliable)
  std::size_t outer_restarts = 0;    ///< outer cycles restarted (recovery
                                     ///< RestartOuter)
  std::size_t global_syncs = 0;      ///< global reductions the whole nested
                                     ///< solve consumed: the outer
                                     ///< iteration's own plus every inner
                                     ///< solve's.  The s-step inner mode
                                     ///< (GmresOptions::s_step) shrinks the
                                     ///< inner share by ~s/2x.
};

/// A failure-free FT-GMRES solve recorded at every outer-iteration
/// boundary (ft_gmres_recorded): the outer trajectory, how many Arnoldi
/// iterations the inner hook had been shown at each boundary, and the
/// solve's own result.  A later solve of the same system starts at any
/// recorded boundary through FtGmresStart; up to that boundary it would
/// have computed exactly this prefix.  It may also rejoin the recording at
/// a later boundary (FtGmresStart::settled) and take the rest from `end`.
struct FtGmresTrajectory {
  FgmresTrajectory outer;
  std::vector<std::size_t> hook_iterations; ///< [k]: on_iteration_begin
                                       ///< events the inner hook received
                                       ///< before outer iteration k
  FtGmresResult end; ///< the recorded solve's result as its hooks made it,
                     ///< x and every inner record included (inner_solves[j]
                     ///< is the inner solve of outer iteration j)

  /// Number of recorded boundaries.
  [[nodiscard]] std::size_t size() const noexcept { return outer.size(); }
};

/// Where one lockstep instance starts: boundary \p boundary of
/// \p trajectory, or from x0 = 0 when \p trajectory is null.  Boundary 0
/// starts from x0 = 0 too (start() computes the initial residual), but
/// keeps the trajectory to rejoin.
struct FtGmresStart {
  const FtGmresTrajectory* trajectory = nullptr;
  std::size_t boundary = 0;
  /// Asked at each outer boundary k an instance with a trajectory reaches
  /// (its start included): true when, from outer iteration k on, its
  /// hooks would act exactly as the recorded solve's did (a one-shot fault
  /// campaign that has fired, for instance) and the caller reads nothing
  /// more from them.  If the outer state then is bitwise recorded boundary
  /// k (FgmresEngine::matches), the instance stops there and returns the
  /// recording's `end` with its own inner records before k -- the result
  /// it would have computed.  Once a state check fails, the instance is
  /// not asked again: a solve that left the recording stays off it, and a
  /// missed rejoin costs work, never a bit of the result.  Empty: never
  /// rejoins.
  std::function<bool(std::size_t k)> settled;
};

/// Inner GMRES exposed as a flexible preconditioner: each application
/// approximately solves A z = q from a zero initial guess on the inner
/// data plane of scalar \p S, running span-to-span out of the outer
/// solver's arenas (q is an outer basis column, z an outer Z-arena
/// column; no owning la::Vector crosses the boundary).  The optional hook
/// observes/corrupts the inner Arnoldi process; the hook's solve_index
/// equals the outer iteration index.
///
/// For S = double the engine runs directly on q and z.  For a narrowed
/// plane (S = float) q is down-converted into per-instance staging on
/// entry (make_engine) and the correction up-converted into z on exit
/// (finish_engine); the outer iteration never sees the narrowed scalar.
///
/// There is ONE construction path for the inner solve -- make_engine().
/// The FT-GMRES driver (ft_gmres / ft_gmres_batch) calls it for every
/// instance and interleaves the engines, so each inner Arnoldi iteration
/// of a multi-instance block issues one fused apply_block; apply() drives
/// the same engine straight through for FlexiblePreconditioner callers
/// (ft_cg, the sdc sandbox).  finish_engine() closes the bookkeeping
/// either way, so options plumbing and records cannot diverge.
template <typename S>
class InnerGmresT final : public FlexiblePreconditioner {
public:
  /// \param ws optional reusable workspace for the inner solves; one inner
  ///        solve runs per outer iteration, so a matching workspace makes
  ///        every inner solve after the first allocation-free.  nullptr
  ///        falls back to an internally owned workspace (same reuse
  ///        semantics, same results -- workspace contents never leak
  ///        between solves).
  InnerGmresT(const OperatorT<S>& A, const GmresOptions& opts,
              ArnoldiHook* hook = nullptr, bool robust_first_solve = false,
              KrylovWorkspaceT<S>* ws = nullptr,
              InnerRecovery recovery = InnerRecovery::None)
      : a_(&A), opts_(opts), hook_(hook),
        robust_first_solve_(robust_first_solve), ws_(ws),
        recovery_(recovery) {}

  using FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t outer_index,
             std::span<double> z) override;

  /// Batch seam: zero the iterate and construct the step-driveable engine
  /// of the inner solve for outer iteration \p outer_index (b = \p q, the
  /// outer basis column; x = \p z, the outer Z-arena column -- or their
  /// staged copies on a narrowed plane; hook, robust-first-solve
  /// orthogonalization, and workspace plumbing exactly as apply() uses).
  /// The caller drives the engine to completion -- solo or interleaved
  /// with other instances -- and then hands it to finish_engine().
  [[nodiscard]] GmresEngineT<S> make_engine(std::span<const double> q,
                                            std::size_t outer_index,
                                            std::span<double> z);

  /// Record the finished engine's inner-solve bookkeeping (exactly the
  /// record apply() produces) and, on a narrowed plane, widen its
  /// correction into z.  With recovery RestartOuter, an engine that
  /// finished AbortedByDetector marks its record triggered_outer_restart
  /// -- the driver must then call FgmresEngine::restart_cycle() instead
  /// of direction()/advance() (query via
  /// last_record_requests_outer_restart()).
  void finish_engine(const GmresEngineT<S>& engine);

  /// True when \p engine finished AbortedByDetector and the RetryReliable
  /// policy wants it recomputed: hand the engine to
  /// make_reliable_retry() instead of finish_engine().
  [[nodiscard]] bool wants_reliable_retry(const GmresEngineT<S>& engine) const {
    return recovery_ == InnerRecovery::RetryReliable && !retrying_ &&
           engine.finished() &&
           engine.stats().status == SolveStatus::AbortedByDetector;
  }

  /// Build the reliable recomputation of the flagged inner solve: same
  /// operands and options as the engine make_engine() last produced, but
  /// with the hook detached -- injection disabled, the paper's
  /// selective-reliability recompute (at the plane's precision: reduced
  /// precision is a deliberate configuration, not a fault).  The aborted
  /// attempt's effort is carried into the eventual record (finish_engine
  /// sums both attempts).
  [[nodiscard]] GmresEngineT<S> make_reliable_retry(
      const GmresEngineT<S>& aborted);

  /// True when the most recent record was flagged for the RestartOuter
  /// policy (the driver's cue to call FgmresEngine::restart_cycle()).
  [[nodiscard]] bool last_record_requests_outer_restart() const {
    return !records_.empty() && records_.back().triggered_outer_restart;
  }

  [[nodiscard]] const std::vector<InnerSolveRecord>& records() const {
    return records_;
  }

  /// Start the records with those of the outer iterations a resumed solve
  /// skips (FtGmresStart), so its result describes the whole solve.
  void prefill_records(std::span<const InnerSolveRecord> prefix) {
    records_.assign(prefix.begin(), prefix.end());
  }

private:
  /// The per-solve options: the configured inner options, with CGS2
  /// re-orthogonalization swapped in for the first inner solve when
  /// robust_first_solve is set (paper Section VII-E-1).
  [[nodiscard]] GmresOptions options_for(std::size_t outer_index) const;

  /// Zero the engine iterate and construct an engine over the current
  /// operands with \p hook attached.
  [[nodiscard]] GmresEngineT<S> start_engine(ArnoldiHook* hook);

  [[nodiscard]] KrylovWorkspaceT<S>& workspace() noexcept {
    return ws_ != nullptr ? *ws_ : fallback_ws_;
  }

  const OperatorT<S>* a_;
  GmresOptions opts_;
  ArnoldiHook* hook_;
  bool robust_first_solve_;
  KrylovWorkspaceT<S>* ws_;
  KrylovWorkspaceT<S> fallback_ws_;
  InnerRecovery recovery_ = InnerRecovery::None;
  std::vector<InnerSolveRecord> records_;
  // Operands of the engine make_engine() last produced, kept so
  // make_reliable_retry can rebuild the same solve hook-free: the engine's
  // b/x at the plane's scalar (q and z themselves when S is double,
  // otherwise the stable per-instance staging below) and the outer column
  // z.  The pending_* counters carry the aborted attempt's effort into the
  // final record.  q and z point into the outer V/Z arenas, which the
  // outer engine does not append to until the inner solve (and its retry)
  // is finished; the inner solve only grows its own workspace.
  std::span<const S> cur_q_;
  std::span<S> cur_x_;
  std::span<double> cur_z_;
  la::VectorT<S> q_staged_;
  la::VectorT<S> z_staged_;
  std::size_t cur_outer_ = 0;
  std::size_t pending_retry_iters_ = 0;
  std::size_t pending_retry_applies_ = 0;
  std::size_t pending_retry_syncs_ = 0;
  bool retrying_ = false;
};

/// The reliable-plane inner solve.
using InnerGmresPreconditioner = InnerGmresT<double>;

/// Solve A x = b with FT-GMRES from a zero initial guess: a lockstep
/// batch of one through the FT-GMRES driver (krylov/ft_gmres_batch.hpp).
/// \param inner_hook observes/corrupts inner solves only; the outer
///        iteration is always reliable.
/// \param ws optional reusable workspace; reusing one across solves of
///        the same shape removes all heap allocation from the iteration
///        paths, and a narrowed mirror already cached in ws->plane is
///        reused, not rebuilt.
[[nodiscard]] FtGmresResult ft_gmres(const LinearOperator& A,
                                     const la::Vector& b,
                                     const FtGmresOptions& opts,
                                     ArnoldiHook* inner_hook = nullptr,
                                     FtGmresWorkspace* ws = nullptr);

/// Convenience overload for CSR matrices.
[[nodiscard]] FtGmresResult ft_gmres(const sparse::CsrMatrix& A,
                                     const la::Vector& b,
                                     const FtGmresOptions& opts,
                                     ArnoldiHook* inner_hook = nullptr,
                                     FtGmresWorkspace* ws = nullptr);

/// ft_gmres() that also records \p trajectory (cleared first) at every
/// outer-iteration boundary, for later solves to start from, and keeps its
/// result in trajectory.end.  Recording observes only: the result is
/// bitwise the ft_gmres() result.  Recording stops early at a boundary the
/// outer engine cannot replay (see FgmresEngine::snapshot); a hook that
/// changes the solve (a detector that fires) is recorded as it acted, so
/// the caller decides which boundaries a differently hooked solve may
/// share.
[[nodiscard]] FtGmresResult ft_gmres_recorded(const LinearOperator& A,
                                              const la::Vector& b,
                                              const FtGmresOptions& opts,
                                              ArnoldiHook* inner_hook,
                                              FtGmresTrajectory& trajectory);

} // namespace sdcgmres::krylov
