#pragma once
/// \file scenario.hpp
/// \brief Config-driven scenario runner: spec string in, experiment out.
///
/// A scenario spec (scenario_spec.hpp) names one cell of the paper's
/// experiment grid.  This module turns the spec into concrete objects via
/// the string-keyed registries (solver/registry.hpp) and runs it --
/// either a single solve (optionally with one planned fault and a
/// detector) or a full injection sweep (sweep.hpp).  The `sdc_run`
/// example CLI is a thin shell around run_scenario().
///
/// Recognized keys (unknown keys throw, listing these):
///   solver     gmres|fgmres|ft_gmres|ft_gmres_batch|cg|fcg|ft_cg
///              (default ft_gmres)
///   matrix     poisson|poisson1d|poisson3d|aniso|convdiff|circuit|
///              random|spd|mtx:<path>                (default poisson)
///   n nodes path seed eps_x eps_y beta_x beta_y     matrix parameters
///   rhs        ones|consistent|random               (default ones;
///              consistent = A*1, the circuit default)
///   precond    none|jacobi|ilu0|neumann[:degree]    (default none)
///   neumann_degree neumann_omega                    preconditioner params
///   tol max_iters restart ortho lsq                 solver options
///   s          s-step block size of the GMRES Arnoldi loop (default 1 =
///              classical, bitwise identical; s>=2 stages s matrix powers
///              per block and pays ONE block projection + ONE TSQR, so
///              global reductions drop ~s/2x; gmres applies it directly,
///              the ft_gmres family to its unreliable inner solves)
///   inner inner_tol inner_ortho robust_first_inner  nested solver options
///   backend    csr|sell[:<C>[:<sigma>]]|auto -- matrix execution backend
///              (default csr; sell = SELL-C-sigma storage, bitwise
///              identical results; auto picks by row-length statistics
///              and records its decision in the result JSON)
///   fault      none|class1|class2|class3|scale[:f]|set[:v]|add[:v]|
///              bitflip[:b]                          (default none)
///   fault_target  coefficient|subdiagonal|matvec|powers -- which value
///              the fault corrupts (default coefficient, the paper's
///              h(i,j) site; powers hits one element of a staged matrix
///              power and needs the s-step mode, s>=2)
///   element    element index for fault_target=matvec|powers (default 0)
///   position   first|last|index:<i>                 (default first)
///   site       aggregate inner iteration of the single planned fault
///              (single-solve mode; default 0)
///   detector   none|bound[:<recovery>]              (default none)
///   bound      auto|<number>  response  record|abort (legacy response key)
///   recovery   none|record|abort|retry_reliable|restart_outer -- what a
///              firing detector does to the solve (default abort; needs
///              detector=bound)
///   deadline   per-solve wall-clock budget in seconds (0 = off)
///   divergence residual-explosion guard factor: flag ||r|| >
///              divergence * ||r0|| (0 = off; typical values >= 10)
///   sweep      0|1  -- run the full per-site injection sweep
///   stride site_limit threads                       sweep parameters
///              (threads <= 256; 0 = all hardware threads)
///   batch      sites solved in lockstep per worker (multi-RHS FT-GMRES;
///              default 1 = solo solves, results identical at any value;
///              batch=0 and negative batch=/inner= values are rejected up
///              front by sweep_config_from_spec with the valid ranges)
///   journal    append-only checkpoint file of completed sweep points
///   resume     0|1  -- skip the points the journal already holds
///   workers    worker processes for the crash-tolerant sharded sweep
///              (default 1 = in-process; >1 needs journal=<path>;
///              at most 256)
///   worker_timeout  per-attempt worker deadline in seconds (0 = off)

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "experiment/scenario_spec.hpp"
#include "experiment/shard.hpp"
#include "experiment/sweep.hpp"
#include "krylov/precond.hpp"
#include "la/vector.hpp"
#include "solver/solver.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::experiment {

/// Matrix + right-hand side named by a spec.
struct ScenarioProblem {
  std::string matrix_name; ///< registry key used (with inline arg)
  sparse::CsrMatrix A;
  la::Vector b;
};

/// Throw std::invalid_argument when \p spec contains a key this runner
/// does not recognize (typo protection for long sweep invocations).
void validate_scenario_keys(const ScenarioSpec& spec);

/// Build the matrix and right-hand side (`matrix`, `n`, `rhs`, ... keys).
[[nodiscard]] ScenarioProblem build_problem(const ScenarioSpec& spec);

/// Translate the solver-related keys into the shared façade options
/// (including the `deadline` and `divergence` guard keys).
[[nodiscard]] solver::Options solver_options_from_spec(
    const ScenarioSpec& spec);

/// Translate the `workers` / `worker_timeout` keys into ShardOptions.
/// workers defaults to 1 (no sharding); 0 and negatives throw.
[[nodiscard]] ShardOptions shard_options_from_spec(const ScenarioSpec& spec);

/// Parse `position` (first | last | index:<i>) into the sweep/injection
/// representation; the index (when given) goes to \p coefficient_index.
[[nodiscard]] sdc::MgsPosition position_from_spec(const ScenarioSpec& spec,
                                                  std::size_t& coefficient_index);

/// Assemble a SweepConfig from the spec (requires solver=ft_gmres, the
/// sweep engine's nested solver).  \p frobenius_norm seeds the detector
/// bound for `bound=auto`.  Validates the whole config up front --
/// out-of-range batch=/inner= values (0 or negative) and everything
/// validate_sweep_config rejects throw std::invalid_argument here,
/// listing the valid ranges, before any solve runs.
[[nodiscard]] SweepConfig sweep_config_from_spec(const ScenarioSpec& spec,
                                                 double frobenius_norm);

/// Outcome of run_scenario: a single-solve report or a sweep.
struct ScenarioResult {
  std::string spec_text;   ///< normalized round-trip of the input spec
  std::string solver_name;
  std::string matrix_name;
  std::size_t n = 0;
  std::size_t nnz = 0;
  std::string backend_name;     ///< normalized execution backend ("csr", ...)
  std::string backend_decision; ///< autotuner reasoning (backend=auto only)

  bool is_sweep = false;
  solver::SolveReport report; ///< single-solve mode
  la::Vector x;               ///< single-solve mode: final iterate
  bool injected = false;      ///< single-solve: the planned fault fired
  bool detected = false;      ///< single-solve: detector flagged it
  SweepResult sweep;          ///< sweep mode
  bool sharded = false;       ///< sweep ran as worker processes
  ShardReport shard;          ///< sweep mode with workers > 1
};

/// Injection points for callers that hold pre-built artifacts (the
/// sdc_serve ArtifactCache) or need runtime plumbing (the scheduler's job
/// journal) WITHOUT changing the spec: the result's spec_text -- and
/// therefore the result JSON -- stays byte-identical to a direct
/// `sdc_run --json` run of the same spec, which is the service's
/// acceptance contract.
struct ScenarioSeams {
  /// Pre-built matrix + rhs.  Must be what build_problem(spec) would
  /// construct for the same problem keys (callers key their cache on
  /// exactly those keys); when null, build_problem runs as usual.
  std::shared_ptr<const ScenarioProblem> problem;

  /// Pre-built preconditioner for single-solve mode (apply() is const, so
  /// one instance serves concurrent jobs).  Must match the spec's
  /// precond= keys; when null, the preconditioner registry builds one.
  std::shared_ptr<const krylov::Preconditioner> precond;

  /// Cached ||A||_F -- the detector-bound calibration input for
  /// bound=auto.  Negative (the default) recomputes it from the matrix.
  double frobenius_norm = -1.0;

  /// Pre-assembled execution backend (the service caches SELL assembly
  /// keyed by matrix+backend).  Must be what backend_registry() would
  /// assemble for the spec's backend= key over the same matrix; when
  /// null, the registry assembles one.
  std::shared_ptr<const krylov::MatrixBackend> backend;

  /// Sweep-mode runtime plumbing, applied AFTER sweep_config_from_spec:
  /// the scheduler journals every job under its own id and resumes it
  /// after a crash, but job files must not carry journal=/resume= keys
  /// (the spec stays exactly what the tenant submitted).  Empty journal
  /// leaves the spec's own journal/resume keys (if any) in effect.
  std::string journal;
  bool resume = false;
};

/// Run the scenario described by \p spec end to end.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Run with pre-built artifacts / runtime overrides (see ScenarioSeams).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const ScenarioSeams& seams);

/// Convenience: parse + run.
[[nodiscard]] ScenarioResult run_scenario(std::string_view spec_text);

} // namespace sdcgmres::experiment
