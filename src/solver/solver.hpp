#pragma once
/// \file solver.hpp
/// \brief The unified solver façade: one polymorphic interface over the
/// whole Krylov lineup.
///
/// The free-function API grew one options/result family per solver
/// (gmres / fgmres / ft_gmres / cg / fcg / ft_cg), which forced every
/// experiment harness to hard-code its solver choice at compile time.
/// This façade collapses the five families into
///   * one solver::Options struct (translated exactly onto each native
///     options struct -- see the to_*_options functions),
///   * one SolveReport (status + histories + inner-solve records),
///   * one IterativeSolver interface with a span-in/span-out solve(b, x)
///     and a hook seam for the SDC framework.
/// Each adapter calls the corresponding free function (or its span core)
/// with a translated options struct and an internally owned reusable
/// workspace, so a façade solve is bitwise identical to the direct call
/// it wraps and allocation-free after the first solve of a given shape.
///
/// Solvers are also constructible by name through the string-keyed
/// registry in solver/registry.hpp.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "krylov/cg.hpp"
#include "krylov/fcg.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/precond.hpp"
#include "krylov/status.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"

namespace sdcgmres::solver {

/// The merged terminal-state vocabulary (see krylov/status.hpp).
using SolveStatus = krylov::SolveStatus;
using krylov::is_success;
using krylov::to_string;

/// One configuration for every solver in the lineup.  Fields that do not
/// apply to a given solver are ignored by its adapter; optional fields
/// fall back to the solver's native default, so a default-constructed
/// Options reproduces each free function's default behaviour exactly.
struct Options {
  std::size_t max_iters = 0;  ///< outer/total iteration budget; 0 keeps the
                              ///< solver-native default (gmres 100,
                              ///< fgmres/ft_gmres 200, cg 1000, fcg 500)
  std::size_t restart = 0;    ///< GMRES restart cycle length (0 = none)
  double tol = 1e-8;          ///< relative residual target (vs ||b||)
  krylov::Orthogonalization ortho = krylov::Orthogonalization::MGS;
  std::optional<dense::LsqPolicy> lsq_policy; ///< projected-solve policy;
                              ///< unset keeps the native default (GMRES:
                              ///< Standard, FGMRES family: RankRevealing)
  double truncation_tol = 1e-12; ///< SVD cutoff for rank-revealing policies
  std::optional<double> breakdown_tol; ///< happy-breakdown threshold; unset
                              ///< keeps the native default (GMRES 1e-14,
                              ///< FGMRES 1e-12)
  double rank_tol = 1e-12;    ///< FGMRES rank-deficiency threshold
  bool rank_check_every_iteration = true; ///< FGMRES trichotomy maintenance
  bool sanitize_preconditioner_output = true; ///< reliable-phase Inf/NaN
                              ///< filter of the flexible solvers
  bool verify_with_explicit_residual = true;  ///< recompute b - A*x on
                              ///< estimated convergence
  std::size_t s_step = 1;     ///< s-step (communication-avoiding) block
                              ///< size of the GMRES Arnoldi loop: stage s
                              ///< matrix powers per block and pay ONE
                              ///< block projection + ONE TSQR (2 global
                              ///< reductions per s columns instead of
                              ///< O(s) per column).  1 = the classical
                              ///< path, bitwise identical to earlier
                              ///< releases.  Applies to gmres and, for
                              ///< the nested ft_gmres family, to the
                              ///< unreliable INNER solves (the reliable
                              ///< outer iteration stays classical).
                              ///< Rejected by solvers without an s-step
                              ///< path (fgmres/cg/fcg/ft_cg) when > 1.

  /// Optional fixed preconditioner (non-owning).  GMRES applies it on the
  /// right; CG directly; FGMRES/FCG wrap it in a FixedFlexibleAdapter.
  /// The nested solvers (ft_gmres/ft_cg) ignore it: their preconditioner
  /// IS the unreliable inner solve.
  const krylov::Preconditioner* precond = nullptr;

  // --- solve guards (gmres / fgmres family; 0 disables each) ---
  double deadline_seconds = 0.0;  ///< wall-clock budget: the (outer) solve
                              ///< stops with status DeadlineExceeded when
                              ///< a deadline passes between iterations
  double divergence_factor = 0.0; ///< residual-explosion guard: a residual
                              ///< estimate exceeding factor x the initial
                              ///< residual stops with status Diverged; in
                              ///< ft_gmres the same factor also guards the
                              ///< unreliable inner solves (where corrupted
                              ///< Hessenberg columns blow up the estimate)

  // --- nested solvers (ft_gmres / ft_cg) only ---
  std::size_t inner_iters = 25; ///< fixed-effort inner budget (paper: 25)
  double inner_tol = 0.0;       ///< 0 = fixed-iteration inner solves
  krylov::Orthogonalization inner_ortho = krylov::Orthogonalization::MGS;
  bool robust_first_inner = false; ///< CGS2 on the first inner solve
  krylov::InnerRecovery recovery = krylov::InnerRecovery::None;
                              ///< ft_gmres detector-triggered recovery
                              ///< policy (acts only on inner solves that
                              ///< end AbortedByDetector)
  krylov::Precision precision = krylov::Precision::Double;
                              ///< ft_gmres family: scalar of the inner-solve
                              ///< data plane (float = narrowed mirror; the
                              ///< outer iteration is always double)
  krylov::IndexWidth index_width = krylov::IndexWidth::I64;
                              ///< ft_gmres family: CSR index width of the
                              ///< inner-solve mirror (I32 halves index
                              ///< traffic, bitwise-identical arithmetic)
};

/// Exact translations onto the native options structs.  Exposed so tests
/// can verify the bitwise-identity contract: calling the free function
/// with to_X_options(o) must reproduce the façade solve exactly.
[[nodiscard]] krylov::GmresOptions to_gmres_options(const Options& o);
[[nodiscard]] krylov::FgmresOptions to_fgmres_options(const Options& o);
[[nodiscard]] krylov::FtGmresOptions to_ft_gmres_options(const Options& o);
[[nodiscard]] krylov::CgOptions to_cg_options(const Options& o);
[[nodiscard]] krylov::FcgOptions to_fcg_options(const Options& o);
[[nodiscard]] krylov::FtCgOptions to_ft_cg_options(const Options& o);

/// One result shape for every solver.  Fields that a solver does not
/// produce keep their zero defaults.
struct SolveReport {
  SolveStatus status = SolveStatus::MaxIterations;
  std::size_t iterations = 0; ///< outer iterations (nested/flexible) or
                              ///< total iterations (gmres/cg)
  std::size_t total_inner_iterations = 0; ///< nested solvers only
  std::size_t total_inner_applies = 0; ///< ft_gmres family: operator
                              ///< products consumed by the unreliable
                              ///< inner solves (the dominant matrix
                              ///< traffic; mode-independent, whether the
                              ///< products ran solo or lockstep-fused)
  double residual_norm = 0.0; ///< final residual (explicit where the
                              ///< underlying solver certifies explicitly)
  std::vector<double> residual_history; ///< per-(outer-)iteration estimates
  std::vector<krylov::InnerSolveRecord> inner_solves; ///< nested only
  std::size_t sanitized_outputs = 0; ///< flexible/nested: z_j replaced
  std::size_t lsq_effective_rank = 0;   ///< gmres only
  bool lsq_fallback_triggered = false;  ///< gmres only
  std::size_t rank_checks = 0;          ///< fgmres family
  double min_sigma_ratio = 1.0;         ///< fgmres family
  std::size_t reliable_retries = 0;     ///< ft_gmres: inner solves recomputed
                                        ///< reliably (recovery RetryReliable)
  std::size_t outer_restarts = 0;       ///< ft_gmres: outer cycles restarted
                                        ///< (recovery RestartOuter)
  std::size_t global_syncs = 0;         ///< global reductions (norms +
                                        ///< blocked inner-product passes)
                                        ///< the solve consumed; nested
                                        ///< solvers report outer + all
                                        ///< inner (see
                                        ///< krylov::GmresStats::global_syncs)

  /// Tolerance reached or invariant subspace found.
  [[nodiscard]] bool converged() const noexcept { return is_success(status); }
};

/// Polymorphic front door to the solver lineup.  Implementations are
/// adapters over the free-function solvers; they are cheap to construct
/// (non-owning view of the operator) and own their reusable workspace, so
/// one instance solved repeatedly (a sweep worker, a server handling a
/// stream of right-hand sides) allocates only on its first solve.
///
/// Not thread-safe: one instance per thread, like the workspaces it owns.
class IterativeSolver {
public:
  virtual ~IterativeSolver() = default;

  /// Registry key of this solver ("gmres", "ft_gmres", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Dimension of the underlying operator.
  [[nodiscard]] virtual std::size_t dimension() const noexcept = 0;

  /// Solve A x = b.  On entry \p x holds the initial guess (the nested
  /// solvers ft_gmres/ft_cg follow the paper's protocol and always start
  /// from zero, overwriting \p x); on exit it holds the final iterate.
  /// Both spans must have size dimension().
  virtual SolveReport solve(std::span<const double> b, std::span<double> x) = 0;

  /// Convenience: zero initial guess, owning result.
  [[nodiscard]] la::Vector solve(const la::Vector& b,
                                 SolveReport* report = nullptr);

  /// True when this solver has an Arnoldi hook seam (fault injection /
  /// detection): gmres observes its own iteration, the nested solvers
  /// expose their unreliable inner solves.
  [[nodiscard]] virtual bool supports_hooks() const noexcept { return false; }

  /// Attach \p hook to the solver's seam (nullptr detaches).  Throws
  /// std::invalid_argument when the solver has no seam -- silently
  /// dropping a fault campaign would corrupt an experiment.
  virtual void set_hook(krylov::ArnoldiHook* hook);

  /// Drop the internally owned workspace arenas (they regrow on the next
  /// solve).  Useful between problems of very different size.
  virtual void release_workspace() {}
};

/// GMRES (Algorithm 1), with restart and optional right preconditioner.
class GmresSolver final : public IterativeSolver {
public:
  explicit GmresSolver(const krylov::LinearOperator& A,
                       const Options& opts = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "gmres";
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;
  [[nodiscard]] bool supports_hooks() const noexcept override { return true; }
  void set_hook(krylov::ArnoldiHook* hook) override { hook_ = hook; }
  void release_workspace() override { ws_ = {}; }

private:
  const krylov::LinearOperator* a_;
  krylov::GmresOptions opts_;
  krylov::ArnoldiHook* hook_ = nullptr;
  krylov::KrylovWorkspace ws_;
};

/// FGMRES (Algorithm 2) with a caller-supplied flexible preconditioner,
/// or a fixed one (Options::precond / identity) wrapped on the fly.
class FgmresSolver final : public IterativeSolver {
public:
  /// \param M flexible preconditioner applied each outer iteration; when
  ///        nullptr, Options::precond (or the identity) is wrapped in a
  ///        FixedFlexibleAdapter.
  explicit FgmresSolver(const krylov::LinearOperator& A,
                        const Options& opts = {},
                        krylov::FlexiblePreconditioner* M = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "fgmres";
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;
  void release_workspace() override { ws_ = {}; }

private:
  const krylov::LinearOperator* a_;
  krylov::FgmresOptions opts_;
  krylov::FlexiblePreconditioner* m_;
  krylov::IdentityPreconditioner identity_;
  krylov::FixedFlexibleAdapter fixed_adapter_;
  krylov::KrylovWorkspace ws_;
  la::Vector b_scratch_, x_scratch_;
};

/// FT-GMRES: reliable FGMRES outer + unreliable fixed-effort GMRES inner
/// (the paper's nested solver).  The hook seam observes/corrupts the
/// inner solves only.
///
/// solve() is a lockstep batch of one; solve_batch() advances B
/// independent solves in lockstep so each step's B operator applications
/// fuse into one apply_block/SpMM (krylov::ft_gmres_batch).  Every
/// instance's iterate stream is bitwise identical to its solve() run;
/// instances that terminate early drop out of the block without
/// perturbing the others.  Registry keys "ft_gmres" and "ft_gmres_batch"
/// both build this class; name() reports the key it was made under.
class FtGmresSolver final : public IterativeSolver {
public:
  /// \param name the registry key name() reports; must outlive the
  ///        solver (the registry passes string literals).
  explicit FtGmresSolver(const krylov::LinearOperator& A,
                         const Options& opts = {},
                         std::string_view name = "ft_gmres");
  /// Adapter over an already-translated native options struct (the sweep
  /// engine's path: SweepConfig carries krylov::FtGmresOptions).
  FtGmresSolver(const krylov::LinearOperator& A,
                const krylov::FtGmresOptions& opts);

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;
  [[nodiscard]] bool supports_hooks() const noexcept override { return true; }
  void set_hook(krylov::ArnoldiHook* hook) override { hook_ = hook; }
  void release_workspace() override { ws_ = {}; }

  /// Solve A x_i = b_i for all right-hand sides in lockstep (zero initial
  /// guesses, the nested-solver protocol).  \p bs and \p xs must match in
  /// size, each span of size dimension(); \p inner_hooks is empty or one
  /// (possibly null) hook per instance observing that instance's
  /// unreliable inner solves.  Batch fault campaigns are per-instance by
  /// construction, so a hook installed via the single-solve set_hook()
  /// seam does NOT apply here: calling solve_batch with such a hook
  /// installed but no inner_hooks throws std::invalid_argument (silently
  /// dropping a campaign would corrupt an experiment).  \p starts is
  /// empty or one start per instance (krylov::ft_gmres_batch): an
  /// instance with a recorded trajectory resumes at its boundary, may
  /// rejoin the recording later (krylov::FtGmresStart::settled), and
  /// reports the same result as its solve from zero.
  std::vector<SolveReport> solve_batch(
      std::span<const std::span<const double>> bs,
      std::span<const std::span<double>> xs,
      std::span<krylov::ArnoldiHook* const> inner_hooks = {},
      std::span<const krylov::FtGmresStart> starts = {});

  /// Traffic counters of the narrowed inner-plane mirror shared by every
  /// instance (zero when the configuration is the default double/int64 --
  /// no mirror exists).  The original operator's own stats() keep
  /// counting the reliable outer products; totals are the sum of both.
  [[nodiscard]] krylov::OperatorStats mixed_stats() const noexcept;

private:
  std::vector<SolveReport> solve_lockstep(
      std::span<const std::span<const double>> bs,
      std::span<const std::span<double>> xs,
      std::span<krylov::ArnoldiHook* const> hooks,
      std::span<const krylov::FtGmresStart> starts = {});

  const krylov::LinearOperator* a_;
  krylov::FtGmresOptions opts_;
  std::string_view name_ = "ft_gmres";
  krylov::ArnoldiHook* hook_ = nullptr;
  krylov::FtGmresWorkspace ws_;
};

/// Conjugate Gradient (the SPD baseline).
class CgSolver final : public IterativeSolver {
public:
  explicit CgSolver(const krylov::LinearOperator& A, const Options& opts = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "cg";
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;

private:
  const krylov::LinearOperator* a_;
  krylov::CgOptions opts_;
  la::Vector b_scratch_, x_scratch_;
};

/// Flexible CG (Notay's beta), SPD systems with a varying preconditioner.
class FcgSolver final : public IterativeSolver {
public:
  /// \param M flexible preconditioner; nullptr wraps Options::precond (or
  ///        the identity), as for FgmresSolver.
  explicit FcgSolver(const krylov::LinearOperator& A, const Options& opts = {},
                     krylov::FlexiblePreconditioner* M = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "fcg";
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;

private:
  const krylov::LinearOperator* a_;
  krylov::FcgOptions opts_;
  krylov::FlexiblePreconditioner* m_;
  krylov::IdentityPreconditioner identity_;
  krylov::FixedFlexibleAdapter fixed_adapter_;
  la::Vector b_scratch_, x_scratch_;
};

/// FT-CG: reliable FCG outer + unreliable inner GMRES (the paper's
/// Section VI-A "future work" solver).  Requires SPD A.
class FtCgSolver final : public IterativeSolver {
public:
  explicit FtCgSolver(const krylov::LinearOperator& A,
                      const Options& opts = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ft_cg";
  }
  [[nodiscard]] std::size_t dimension() const noexcept override {
    return a_->rows();
  }
  using IterativeSolver::solve;
  SolveReport solve(std::span<const double> b, std::span<double> x) override;
  [[nodiscard]] bool supports_hooks() const noexcept override { return true; }
  void set_hook(krylov::ArnoldiHook* hook) override { hook_ = hook; }

private:
  const krylov::LinearOperator* a_;
  krylov::FtCgOptions opts_;
  krylov::ArnoldiHook* hook_ = nullptr;
  la::Vector b_scratch_;
};

} // namespace sdcgmres::solver
