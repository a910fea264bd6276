#pragma once
/// \file gmres.hpp
/// \brief GMRES (Saad & Schultz 1986) with restart, pluggable
/// orthogonalization, least-squares policies, and Arnoldi hooks.
///
/// This is Algorithm 1 of the paper.  The hook parameter is the seam where
/// the SDC framework injects faults into the projection coefficients and
/// where the invariant detector checks |h(i,j)| <= ||A||_F; passing no hook
/// gives the plain solver.
///
/// The one implementation is the step-driveable GmresEngine below (the
/// inner-solve counterpart of krylov::FgmresEngine): gmres() and
/// gmres_in_place() drive it straight through, and the FT-GMRES driver
/// (krylov/ft_gmres_batch.hpp) interleaves many engines so the B inner
/// solves of a batch share one fused SpMM per inner iteration.

#include <cstddef>
#include <span>
#include <vector>

#include "dense/lsq_policies.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/orthogonalize.hpp"
#include "krylov/precond.hpp"
#include "krylov/status.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::krylov {

/// Configuration of a GMRES solve.
struct GmresOptions {
  std::size_t max_iters = 100; ///< total iteration budget (across restarts)
  std::size_t restart = 0;     ///< restart cycle length; 0 = no restart
  double tol = 1e-8;           ///< relative residual target (vs ||b||);
                               ///< 0 disables the convergence test, giving
                               ///< the paper's fixed-iteration inner solves
  Orthogonalization ortho = Orthogonalization::MGS;
  dense::LsqPolicy lsq_policy = dense::LsqPolicy::Standard;
  double truncation_tol = 1e-12; ///< SVD cutoff for rank-revealing policies
  double breakdown_tol = 1e-14;  ///< happy-breakdown threshold, relative to
                                 ///< the norm of the unorthogonalized vector
  const Preconditioner* right_precond = nullptr; ///< optional fixed M;
                                 ///< solves A M^{-1} u = b, x = M^{-1} u
  double divergence_factor = 0.0; ///< residual-explosion guard: a residual
                                 ///< estimate exceeding factor x the
                                 ///< initial residual (or going non-finite)
                                 ///< drops the exploding column and stops
                                 ///< with status Diverged, returning the
                                 ///< pre-explosion iterate (0 disables).
                                 ///< In FT-GMRES this bounds how long a
                                 ///< pathologically corrupted inner solve
                                 ///< can churn on garbage.
  std::size_t s_step = 1;        ///< s-step (communication-avoiding) mode:
                                 ///< stage s matrix powers per block, then
                                 ///< commit them with ONE block projection
                                 ///< and ONE TSQR (2 global reductions per
                                 ///< s columns instead of ~2 per column).
                                 ///< 1 = the classical one-vector-at-a-time
                                 ///< path, bitwise identical to pre-s-step
                                 ///< builds.  Must be in 1..restart-cycle
                                 ///< length and is incompatible with
                                 ///< right_precond (validated up front).
};

/// Result of a GMRES solve.
struct GmresResult {
  la::Vector x;                     ///< final iterate
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t iterations = 0;       ///< Arnoldi iterations performed
  double residual_norm = 0.0;       ///< final least-squares residual estimate
  std::vector<double> residual_history; ///< estimate after each iteration
  std::size_t lsq_effective_rank = 0;   ///< rank used by the final update
  bool lsq_fallback_triggered = false;  ///< policy-2 fallback fired
  std::size_t global_syncs = 0;         ///< global reductions consumed (see
                                        ///< GmresStats::global_syncs)
};

/// Statistics of an in-place GMRES solve (everything in GmresResult except
/// the owning iterate and history, which the span entry point leaves with
/// the caller).
struct GmresStats {
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
  std::size_t operator_applies = 0; ///< operator products the solve consumed
                                    ///< (one per restart-cycle residual, one
                                    ///< per Arnoldi iteration); independent
                                    ///< of whether the products arrived as
                                    ///< solo SpMVs or fused SpMM columns
  std::size_t lsq_effective_rank = 0;
  bool lsq_fallback_triggered = false;
  std::size_t global_syncs = 0; ///< global reductions the solve consumed:
                                ///< every norm and every (blocked) inner-
                                ///< product pass that would be an
                                ///< all-reduce on a distributed machine.
                                ///< MGS counts one per basis column, CGS
                                ///< one per pass; the s-step block commit
                                ///< counts exactly two (projection + TSQR)
                                ///< per s columns.  This is the metric the
                                ///< communication-avoiding mode improves,
                                ///< measurable even where wall-clock is
                                ///< flat (1-core containers).
  std::size_t basis_bytes = 0;  ///< bytes of length-n basis traffic the
                                ///< solve streamed, at the plane's scalar
                                ///< width: every orthogonalization pass
                                ///< (MGS (4k+1)n words over k columns,
                                ///< CGS/CGS2 their gemv_t/gemv passes plus
                                ///< the two norms of v), every s-step block
                                ///< projection and TSQR, and 2n words per
                                ///< normalized column appended.  Not part
                                ///< of any JSON output yet.
};

/// Step-driveable GMRES: the single implementation behind gmres(),
/// gmres_in_place(), and the FT-GMRES inner solve
/// (InnerGmresT).  Mirrors krylov::FgmresEngine: the
/// iteration is split at its external data dependencies -- the operator
/// applications -- so a lockstep driver can interleave many engines and
/// fuse their products into one apply_block per step.
///
/// GMRES consumes two kinds of products, and the engine exposes which one
/// it is waiting for:
///
///   awaiting_residual() == true   (start of every restart cycle)
///     caller computes A * residual_operand() into residual_target(),
///     then calls start_cycle()
///   awaiting_residual() == false  (one Arnoldi iteration)
///     begin_iteration()  ->  hook events + optional right-precond z
///     caller computes A * direction() into v_target()
///     advance()          ->  orthogonalization, projected QR, breakdown/
///                            abort/convergence checks, cycle turnover
///
/// The canonical driver loop (exactly what gmres_in_place runs):
///
///   while (!engine.finished()) {
///     if (engine.awaiting_residual()) {
///       A.apply(engine.residual_operand(), engine.residual_target());
///       engine.start_cycle();
///     } else {
///       engine.begin_iteration();
///       A.apply(engine.direction(), engine.v_target());
///       engine.advance();
///     }
///   }
///
/// Both pending operands are single columns of A's operand space, so a
/// batch driver can pack engines in either phase into the same fused
/// apply_block.  The per-instance floating-point and hook-event sequence
/// is EXACTLY the sequence gmres_in_place() executes, and the engine
/// touches no state outside its own workspace, so lockstep instances are
/// bitwise identical to their solo runs as long as the caller-supplied
/// products are (CSR SpMM columns are bitwise equal to SpMV).
///
/// Lifetime: \p b, \p x, \p ws, and \p residual_history must outlive the
/// engine; \p x is updated in place at the end of every restart cycle.
/// When \p b or \p x is a column of a KrylovBasis arena (FT-GMRES: the
/// outer V and Z columns), nothing may append to that arena while the
/// engine runs -- growth may move its storage.
///
/// Templated on the scalar type.  GmresEngineT<double> (aliased
/// GmresEngine) is the reliable-plane engine, arithmetic unchanged from
/// the pre-template class.  GmresEngineT<float> is the mixed-precision
/// inner engine: basis, Hessenberg recurrence, and orthogonalization run
/// in float (the projected least-squares solve stays double, see
/// dense::HessenbergQrT); control-flow comparisons are made on widened
/// (double) values.  The double-typed ArnoldiHook protocol is preserved
/// for the float engine by widening at each event: on_matvec_result and
/// on_iteration_end observe double copies of the float state (narrowed
/// back after possible mutation), a deliberate correctness-over-speed
/// choice that only costs when a hook is installed.  The float engine
/// does not support right preconditioning (the Preconditioner seam is
/// double-typed; FT-GMRES inner solves never configure one) and throws
/// std::invalid_argument if one is set.
template <typename S>
class GmresEngineT {
public:
  /// Validates shapes/options (throws std::invalid_argument exactly as
  /// gmres() does), reserves the workspace, and reports the solve to the
  /// hook (on_solve_begin).  The first step is always the initial
  /// residual product: awaiting_residual() is true after construction.
  /// \p rows / \p cols describe the operator the caller will apply.
  GmresEngineT(std::size_t rows, std::size_t cols, std::span<const S> b,
               std::span<S> x, const GmresOptions& opts, ArnoldiHook* hook,
               std::size_t solve_index, KrylovWorkspaceT<S>& ws,
               std::vector<double>* residual_history);

  /// Convenience: shapes taken from a LinearOperator (the operator itself
  /// is not retained -- products are always caller-provided).
  GmresEngineT(const LinearOperator& A, std::span<const S> b, std::span<S> x,
               const GmresOptions& opts, ArnoldiHook* hook,
               std::size_t solve_index, KrylovWorkspaceT<S>& ws,
               std::vector<double>* residual_history)
      : GmresEngineT(A.rows(), A.cols(), b, x, opts, hook, solve_index, ws,
                     residual_history) {}

  /// True once a terminal status has been reached; no further protocol
  /// calls are allowed.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True when the next step is a restart-cycle residual product
  /// (A * residual_operand() -> residual_target() -> start_cycle());
  /// false when it is an Arnoldi product (begin_iteration() ->
  /// A * direction() -> v_target() -> advance()).
  [[nodiscard]] bool awaiting_residual() const noexcept {
    return awaiting_residual_;
  }

  /// Operand of the pending cycle-start product: the current iterate.
  [[nodiscard]] std::span<const S> residual_operand() const noexcept {
    return x_;
  }

  /// Destination for A * residual_operand(); the caller must fully
  /// overwrite it before start_cycle().
  [[nodiscard]] std::span<S> residual_target();

  /// Consume the cycle-start product: form r = b - A*x, test for
  /// immediate convergence / a non-finite iterate, and set up the basis
  /// and projected-QR state of the new cycle.  Returns finished().
  bool start_cycle();

  /// Begin Arnoldi iteration j: hook on_iteration_begin, plus the
  /// right-preconditioner application z = M^{-1} q_j when configured.
  void begin_iteration();

  /// Operand of the pending Arnoldi product (q_j, or z when
  /// right-preconditioned).  Valid between begin_iteration() and
  /// advance().
  [[nodiscard]] std::span<const S> direction() const;

  /// Destination for A * direction(); the caller must fully overwrite it
  /// before advance().
  [[nodiscard]] std::span<S> v_target();

  /// Consume the Arnoldi product: hook on_matvec_result,
  /// orthogonalization (with per-coefficient hook events), detector
  /// aborts, the projected QR update, breakdown and convergence tests.
  /// Ends the cycle (forming the iterate update in x) when one of those
  /// fires or the cycle/budget is exhausted.  Returns finished().
  bool advance();

  /// Hook identifier of this solve (FT-GMRES: the owning outer iteration).
  [[nodiscard]] std::size_t solve_index() const noexcept {
    return solve_index_;
  }

  /// Lockstep-driver optimization: point residual_target()/v_target()
  /// directly at \p target (a column of the driver's shared staging
  /// BlockWorkspace) so the fused apply_block writes the product where
  /// the engine consumes it, eliminating the per-column unpack copy.
  /// The binding is transient -- the driver re-binds before every step
  /// (column indices shift as instances finish) and must unbind after.
  /// Values are read from the bound span exactly where the unbound path
  /// reads its own scratch, so results are bitwise identical.
  void bind_product_target(std::span<S> target) noexcept {
    ext_target_ = target;
    ext_bound_ = true;
  }
  /// Drop the external product-target binding (see bind_product_target).
  void unbind_product_target() noexcept {
    ext_target_ = {};
    ext_bound_ = false;
  }

  /// Accumulated statistics (final once finished()).
  [[nodiscard]] const GmresStats& stats() const noexcept { return stats_; }

private:
  /// Everything after an iteration or budget check ends a cycle: form the
  /// update x += (M^{-1}) Q_k y from the accepted columns and either
  /// finish the solve or turn over into the next cycle's residual phase.
  bool finish_cycle(bool aborted, bool breakdown, bool converged,
                    bool diverged, bool qr_pop_pending);

  /// s-step mode: consume one staged matrix power (hook events, stage
  /// bookkeeping); triggers commit_block() after the block's last power.
  bool advance_staged();

  /// s-step mode: turn the staged powers into committed basis columns --
  /// one block projection against the existing basis (1 reduction), one
  /// TSQR over the projected block (1 reduction), then per-column
  /// Hessenberg recovery with the same hook/termination protocol as the
  /// one-vector path.
  bool commit_block();

  /// Start of committed Hessenberg column \p j in hmat_.
  static constexpr std::size_t hmat_offset(std::size_t j) noexcept {
    return j * (j + 3) / 2;
  }

  /// Charge \p words length-n words of basis traffic to basis_bytes.
  void add_basis_words(std::size_t words) noexcept {
    stats_.basis_bytes += words * n_ * sizeof(S);
  }

  std::span<const S> b_;
  std::span<S> x_;
  GmresOptions opts_;
  ArnoldiHook* hook_;
  std::size_t solve_index_;
  KrylovWorkspaceT<S>* w_;
  std::vector<double>* history_;
  std::size_t n_ = 0;
  std::size_t cycle_len_ = 0;
  double abs_target_ = 0.0;
  double beta0_ = -1.0; ///< initial residual norm (divergence reference);
                        ///< negative until the first cycle measured it
  bool awaiting_residual_ = true;
  bool finished_ = false;
  GmresStats stats_;
  // --- s-step staging state (opts_.s_step > 1 only) ---
  std::size_t s_ = 1;           ///< opts_.s_step (validated)
  std::size_t stage_count_ = 0; ///< powers in the current block; 0 = not
                                ///< staging
  std::size_t stage_idx_ = 0;   ///< next power within the block
  std::size_t block_j0_ = 0;    ///< committed columns when the block began
  std::vector<double> hmat_;    ///< committed (possibly hook-mutated)
                                ///< Hessenberg columns of this cycle,
                                ///< packed: column j holds j+2 entries at
                                ///< hmat_offset(j); the block recovery
                                ///< recursion reads them back, so
                                ///< corruption propagates into later
                                ///< columns as it does on the one-vector
                                ///< path
  std::vector<S> cs_, rs_;      ///< projection coeffs / TSQR R (scalar S)
  std::vector<double> cmat_, rmat_, hraw_; ///< widened recovery buffers
  // --- lockstep product-target binding (see bind_product_target) ---
  std::span<S> ext_target_;
  bool ext_bound_ = false;
  // Hook adapters for the float instantiation: double mirrors handed to
  // the double-typed hook protocol (unused, and empty, for S = double).
  la::Vector hook_vec_;
  la::KrylovBasis hook_basis_;
  std::vector<double> hook_hcol_;
};

using GmresEngine = GmresEngineT<double>;

/// Advance \p engine by exactly one protocol step with a solo operator
/// application: the cycle-start residual product + start_cycle() when
/// awaiting_residual(), else begin_iteration() + Arnoldi product +
/// advance().  Returns finished().  This is the unit the batch driver's
/// one-live-engine tails reuse; lockstep blocks run the same step with
/// the product replaced by a fused apply_block column.
template <typename S>
bool step_with_apply(const OperatorT<S>& A, GmresEngineT<S>& engine) {
  if (engine.awaiting_residual()) {
    A.apply(engine.residual_operand(), engine.residual_target());
    return engine.start_cycle();
  }
  engine.begin_iteration();
  A.apply(engine.direction(), engine.v_target());
  return engine.advance();
}

/// Drive \p engine to completion with solo operator applications -- the
/// canonical straight-through loop (shown in the GmresEngine docs),
/// shared by gmres_in_place() and InnerGmresT::apply() so the protocol
/// exists exactly once.
template <typename S>
void drive_to_completion(const OperatorT<S>& A, GmresEngineT<S>& engine) {
  while (!engine.finished()) step_with_apply(A, engine);
}

/// Span-core GMRES: solve A x = b with \p x holding the initial guess on
/// entry and the final iterate on exit.  This is the zero-copy entry point
/// the FT-GMRES inner solve uses: b is a basis column of the outer solver
/// and x a Z-arena column, with no owning la::Vector at the boundary.
/// Implemented as the canonical straight-through drive of GmresEngine.
/// \param ws optional reusable workspace (basis arena + projected QR);
///        with a workspace of matching shape the solve performs no heap
///        allocation.  nullptr allocates internally, as before.
/// \param residual_history optional sink for the per-iteration residual
///        estimates (appended; pass nullptr to skip recording).
GmresStats gmres_in_place(const LinearOperator& A, std::span<const double> b,
                          std::span<double> x, const GmresOptions& opts,
                          ArnoldiHook* hook = nullptr,
                          std::size_t solve_index = 0,
                          KrylovWorkspace* ws = nullptr,
                          std::vector<double>* residual_history = nullptr);

/// Solve A x = b starting from \p x0.
/// \param hook optional Arnoldi hook (fault injection / detection)
/// \param solve_index forwarded to the hook as the solve identifier; in
///        FT-GMRES this is the outer iteration owning the inner solve.
/// \param ws optional reusable workspace (see gmres_in_place)
[[nodiscard]] GmresResult gmres(const LinearOperator& A, const la::Vector& b,
                                const la::Vector& x0, const GmresOptions& opts,
                                ArnoldiHook* hook = nullptr,
                                std::size_t solve_index = 0,
                                KrylovWorkspace* ws = nullptr);

/// Convenience overload for CSR matrices with a zero initial guess.
[[nodiscard]] GmresResult gmres(const sparse::CsrMatrix& A, const la::Vector& b,
                                const GmresOptions& opts,
                                ArnoldiHook* hook = nullptr);

} // namespace sdcgmres::krylov
