#pragma once
/// \file fgmres.hpp
/// \brief Flexible GMRES (Saad 1993), Algorithm 2 of the paper.
///
/// FGMRES allows the preconditioner to change on every iteration, which is
/// what lets FT-GMRES model a faulty inner solve as "a different
/// preconditioner".  The implementation realizes the paper's trichotomy
/// (Section VI-C): it either converges, correctly detects an invariant
/// subspace (happy breakdown with full-rank H), or loudly reports rank
/// deficiency of H -- it never silently returns a wrong answer.

#include <chrono>
#include <cstddef>
#include <vector>

#include "dense/condition.hpp"
#include "dense/lsq_policies.hpp"
#include "krylov/operator.hpp"
#include "krylov/orthogonalize.hpp"
#include "krylov/precond.hpp"
#include "krylov/status.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

// The FGMRES trichotomy (converged / invariant subspace with full-rank H /
// loud rank-deficiency report) is expressed in the shared SolveStatus
// vocabulary (status.hpp): HappyBreakdown is the invariant-subspace case.

/// Configuration of an FGMRES solve.
struct FgmresOptions {
  std::size_t max_outer = 200;  ///< outer iteration budget (bounds the V/Z
                                ///< arenas; memory follows the columns used)
  double tol = 1e-8;            ///< relative residual target (vs ||b||)
  Orthogonalization ortho = Orthogonalization::MGS;
  dense::LsqPolicy lsq_policy = dense::LsqPolicy::RankRevealing;
  double truncation_tol = 1e-12; ///< SVD cutoff for the update coefficients
  double breakdown_tol = 1e-12;  ///< happy-breakdown threshold (relative to
                                 ///< the initial residual norm)
  double rank_tol = 1e-12;       ///< sigma_min/sigma_max threshold declaring
                                 ///< H rank-deficient
  bool rank_check_every_iteration = true; ///< monitor the triangular
                                 ///< factor's conditioning each iteration
                                 ///< (paper Section VI-C) via O(k)
                                 ///< incremental condition estimation
                                 ///< (dense/condition.hpp); the exact SVD
                                 ///< oracle still decides rank deficiency
                                 ///< at breakdown, so solve outcomes do
                                 ///< not depend on this flag's estimator.
                                 ///< false monitors only at breakdown
  bool sanitize_preconditioner_output = true; ///< reliable-phase filter: a
                                 ///< z_j with Inf/NaN (a guest that ran
                                 ///< wild) is replaced by q_j, i.e. the
                                 ///< identity preconditioner for that step
  bool verify_with_explicit_residual = true; ///< on estimated convergence,
                                 ///< recompute b - A*x reliably and keep
                                 ///< iterating if it disagrees
  double deadline_seconds = 0.0; ///< wall-clock guard: a solve running past
                                 ///< this many seconds finalizes its best
                                 ///< iterate with status DeadlineExceeded
                                 ///< (0 disables; enabling it trades the
                                 ///< bitwise determinism contract for a
                                 ///< bounded worst case)
  double divergence_factor = 0.0; ///< residual-explosion guard: an outer
                                 ///< residual estimate exceeding factor x
                                 ///< the initial residual (or going
                                 ///< non-finite) finalizes with status
                                 ///< Diverged (0 disables)
};

/// Result of an FGMRES solve.
struct FgmresResult {
  la::Vector x;                 ///< final iterate
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t outer_iterations = 0;
  double residual_norm = 0.0;   ///< explicit ||b - A*x|| at exit
  std::vector<double> residual_history; ///< estimate after each iteration
  std::size_t sanitized_outputs = 0;    ///< z_j replaced due to Inf/NaN
  std::size_t rank_checks = 0;          ///< conditioning checks performed
                                        ///< (incremental per iteration,
                                        ///< exact SVD at breakdown)
  double min_sigma_ratio = 1.0;         ///< smallest sigma_min/sigma_max
                                        ///< seen (per-iteration values are
                                        ///< the incremental estimator's
                                        ///< upper bound of the true ratio)
  std::size_t outer_restarts = 0;       ///< recovery restarts (restart_cycle)
  std::size_t global_syncs = 0;         ///< global reductions the OUTER
                                        ///< iteration consumed (norms +
                                        ///< orthogonalization passes; the
                                        ///< inner solves count their own,
                                        ///< see GmresStats::global_syncs)
};

/// The outer state of one FGMRES solve at each of its outer-iteration
/// boundaries (the point between outer iterations k-1 and k), recorded by
/// FgmresEngine::snapshot() so that a later solve of the SAME system --
/// same operator, b, x0 and options -- can resume() at any recorded
/// boundary instead of recomputing the prefix.  The resumed solve is
/// bitwise identical to the straight-through one.
///
/// Basis and direction columns never change once appended, so one copy of
/// each serves every boundary: boundary k uses V columns 0..k, Z columns
/// 0..k-1 and Hessenberg columns 0..k-1.  The projected QR is not stored;
/// resume() replays the Hessenberg columns through it (and through the
/// incremental condition estimator) exactly as the recorded solve did.
struct FgmresTrajectory {
  /// The FgmresResult counters on entry to one outer iteration.
  struct Boundary {
    std::size_t global_syncs = 0;
    std::size_t rank_checks = 0;
    std::size_t sanitized_outputs = 0;
    double min_sigma_ratio = 1.0;
  };
  std::size_t rows = 0;
  double bnorm = 0.0;                   ///< ||b||
  double beta = 0.0;                    ///< initial residual norm
  std::vector<Boundary> boundaries;     ///< [k]: entering outer iteration k
  std::vector<double> residual_history; ///< estimate after each iteration
  std::vector<double> h; ///< Hessenberg column j (j+2 entries) at offset
                         ///< j*(j+3)/2
  std::vector<double> v; ///< basis columns q_0, q_1, ... (rows entries each)
  std::vector<double> z; ///< direction columns z_0, z_1, ...

  /// Number of recorded boundaries.
  [[nodiscard]] std::size_t size() const noexcept { return boundaries.size(); }
};

/// Step-driveable FGMRES: the single implementation behind both the
/// one-shot fgmres() free function and the lockstep FT-GMRES driver
/// (krylov/ft_gmres_batch.hpp).  One outer iteration is split at its two
/// external data dependencies so a driver can interleave many instances:
///
///   begin_iteration()  ->  caller runs the (flexible) preconditioner
///   direction()        ->  caller computes v = A * direction() into
///                          v_target() (a batch driver fuses the products
///                          of all live instances into one apply_block)
///   advance()          ->  orthogonalization, projected QR, trichotomy,
///                          convergence checks
///
/// The per-instance floating-point operation sequence is EXACTLY the
/// sequence fgmres() executes, and the engine touches no state outside
/// its own workspace, so lockstep instances are bitwise identical to
/// their solo runs as long as the caller-supplied products are (CSR SpMM
/// columns are bitwise equal to SpMV -- see sparse::CsrMatrix::spmm).
///
/// Lifetime: \p b and \p ws must outlive the engine; \p x0 is copied at
/// construction.  v_target() is valid only after start().
class FgmresEngine {
public:
  /// Validates shapes/options (throws std::invalid_argument exactly as
  /// fgmres() does) and binds the workspace.  No solve work yet.
  FgmresEngine(const LinearOperator& A, std::span<const double> b,
               std::span<const double> x0, const FgmresOptions& opts,
               KrylovWorkspace& ws);

  /// Compute the reliable initial residual and set up the basis/QR state.
  /// Returns finished(): true when x0 already meets the tolerance (the
  /// iteration protocol must then be skipped entirely).
  bool start();

  /// Start at boundary \p k of \p t instead of from x0: the state start()
  /// and k outer iterations would have reached, restored from the record
  /// (2k+1 column copies and a replay of k Hessenberg columns; no operator
  /// application).  \p t must have been recorded from a solve of the same
  /// system with the same options; k == 0 is equivalent to start() except
  /// that it returns nothing (a recorded boundary is never finished).
  /// Throws std::invalid_argument when \p k is not recorded in \p t or
  /// \p t was recorded at another dimension.
  void resume(const FgmresTrajectory& t, std::size_t k);

  /// Record the current outer-iteration boundary into \p t: call between
  /// iterations (after start()/resume()/advance() returned false, before
  /// begin_iteration()), once per boundary and in order, so boundary k
  /// lands at t.boundaries[k].  Returns false and records nothing once the
  /// state stopped being replayable by resume(): after a recovery restart
  /// or after a degenerate direction was discarded (a popped QR column
  /// does not restore the factorization bitwise).
  bool snapshot(FgmresTrajectory& t) const;

  /// True when the current state is bitwise recorded boundary iteration()
  /// of \p t: the Boundary counters, ||b||, the initial residual norm and
  /// the residual history, and the V, Z and Hessenberg columns this engine
  /// computed since start() or resume() (earlier ones were copied from the
  /// record).  From such a boundary the engine would compute exactly what
  /// the recorded solve did, given the same preconditioner outputs.  False
  /// once finished() or no longer replayable (see snapshot()), and at a
  /// boundary \p t did not record.  Call between iterations, like
  /// snapshot().
  [[nodiscard]] bool matches(const FgmresTrajectory& t) const;

  /// True once a terminal status has been reached; no further protocol
  /// calls are allowed.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Current outer iteration index j (valid while !finished()).
  [[nodiscard]] std::size_t iteration() const noexcept { return j_; }

  /// What the caller's preconditioner application needs: read q, write z.
  /// Both spans point into this engine's V/Z arenas and stay valid until
  /// advance() or the next begin_iteration() appends to them.
  struct PrecondRequest {
    std::span<const double> q; ///< basis column q_j (read-only)
    std::size_t outer_index;   ///< outer iteration j
    std::span<double> z;       ///< Z-arena column to fill completely
  };

  /// Begin outer iteration j: appends the Z-arena column and hands out
  /// the preconditioner operands (the unreliable phase runs outside the
  /// engine).
  PrecondRequest begin_iteration();

  /// Reliable phase, part 1: sanitize the direction the preconditioner
  /// wrote (Inf/NaN/zero fallback to q_j when enabled) and return the
  /// operand of the pending operator application.  Call exactly once per
  /// iteration, after the preconditioner ran.
  std::span<const double> direction();

  /// Destination for v = A * direction(); the caller must fully overwrite
  /// it before advance().
  [[nodiscard]] std::span<double> v_target();

  /// Reliable phase, part 2: orthogonalize, update the projected QR, run
  /// the trichotomy bookkeeping and convergence checks (retries and
  /// explicit-residual verification apply the operator internally).
  /// Returns finished().
  bool advance();

  /// Recovery seam (FT-GMRES `restart_outer` policy): discard the
  /// direction appended by the last begin_iteration() WITHOUT committing
  /// it -- direction()/advance() must NOT have run for this iteration --
  /// fold the accepted columns into the iterate, recompute the reliable
  /// explicit residual, and restart the outer cycle from it.  The
  /// discarded iteration still counts against max_outer (a persistently
  /// faulty preconditioner cannot loop forever), and
  /// FgmresResult::outer_restarts records the restart.  Returns
  /// finished(): true when the restart point already meets the tolerance
  /// or exhausts the budget/deadline.
  bool restart_cycle();

  /// Move the result out (call once, after finished()).
  [[nodiscard]] FgmresResult take_result() { return std::move(result_); }

private:
  const LinearOperator* a_;
  std::span<const double> b_;
  FgmresOptions opts_;
  KrylovWorkspace* w_;
  /// True when the wall-clock guard is armed and the deadline has passed.
  [[nodiscard]] bool past_deadline() const;
  /// Reserve the arenas and arm the wall-clock guard (start and resume).
  void arm();
  /// Empty projected problem for a cycle starting at residual norm beta_.
  void reset_projection();
  /// Feed the newest R column to the conditioning monitor; its ratio.
  double track_condition();

  la::Vector x0_;
  std::size_t n_ = 0;
  std::size_t j_ = 0;
  std::size_t base_iters_ = 0; ///< iterations consumed by earlier
                               ///< (recovery-restarted) cycles
  double bnorm_ = 0.0;
  double abs_target_ = 0.0;
  double beta_ = 0.0;  ///< residual norm at the current cycle's start
  double beta0_ = 0.0; ///< initial residual norm (divergence reference)
  std::chrono::steady_clock::time_point deadline_{};
  std::size_t first_ = 0; ///< the boundary start()/resume() began at
  bool finished_ = false;
  bool replayable_ = true; ///< no restart or discarded direction so far
  std::vector<double> h_; ///< accepted Hessenberg columns, packed like
                          ///< FgmresTrajectory::h (the ones a resume
                          ///< replayed included)
  FgmresResult result_;
  /// O(k)/iteration conditioning monitor of the projected QR's R factor
  /// (rank_check_every_iteration); reset with the factor on every cycle.
  dense::IncrementalConditionEstimator ice_;
  std::vector<double> ice_col_; ///< scratch: the newest R column
};

/// Solve A x = b with flexible preconditioner \p M, starting from \p x0.
/// \param ws optional reusable workspace (basis/direction arenas +
///        projected QR); with a workspace of matching shape the solve
///        performs no heap allocation on the iteration path.  The
///        preconditioner receives basis columns and writes directly into
///        Z-arena columns -- no owning la::Vector crosses the boundary.
[[nodiscard]] FgmresResult fgmres(const LinearOperator& A, const la::Vector& b,
                                  const la::Vector& x0,
                                  const FgmresOptions& opts,
                                  FlexiblePreconditioner& M,
                                  KrylovWorkspace* ws = nullptr);

} // namespace sdcgmres::krylov
