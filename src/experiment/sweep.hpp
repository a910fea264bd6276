#pragma once
/// \file sweep.hpp
/// \brief The paper's experiment protocol: one solve per injection site.
///
/// Section VII-B: first run failure-free to learn the baseline outer
/// iteration count and the number of injectable sites (total inner
/// iterations); then re-solve the same system once per site, injecting a
/// single fault at that aggregate inner iteration, and record the outer
/// iterations to convergence.  Figures 3 and 4 plot exactly these series.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "experiment/scenario_spec.hpp"
#include "krylov/backend.hpp"
#include "krylov/ft_gmres.hpp"
#include "la/vector.hpp"
#include "sdc/detector.hpp"
#include "sdc/fault_model.hpp"
#include "sdc/injection.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::experiment {

/// Configuration of one injection sweep (one sub-plot of Fig. 3/4).
struct SweepConfig {
  krylov::FtGmresOptions solver;    ///< nested solver configuration
  sdc::MgsPosition position = sdc::MgsPosition::First; ///< MGS step faulted
  sdc::FaultModel model = sdc::FaultModel::scale(1e150); ///< fault class
  sdc::InjectionTarget target =
      sdc::InjectionTarget::ProjectionCoefficient; ///< faulted value (the
                                    ///< fault_target= key; PowerElement
                                    ///< needs the s-step inner mode,
                                    ///< solver.inner.s_step >= 2)
  std::size_t element_index = 0;    ///< element for the matvec/powers
                                    ///< targets (element= key)
  std::size_t stride = 1;           ///< sample every stride-th site (1 =
                                    ///< every site, the paper's protocol)
  std::size_t site_limit = 0;       ///< only sweep sites < site_limit
                                    ///< (0 = all sites); e.g. 25 restricts
                                    ///< the sweep to the first inner solve
  bool with_detector = false;       ///< attach the Hessenberg bound detector
  double detector_bound = 0.0;      ///< bound (e.g. ||A||_F); required when
                                    ///< with_detector is set
  sdc::DetectorResponse detector_response =
      sdc::DetectorResponse::AbortSolve;
  std::size_t threads = 1;          ///< worker threads for the per-site
                                    ///< solves: 1 = serial, 0 = all
                                    ///< hardware threads.  Every thread
                                    ///< checks out its own solver
                                    ///< workspace, fault campaign, and
                                    ///< detector/event log; results merge
                                    ///< deterministically by site, and the
                                    ///< SweepResult is identical to the
                                    ///< serial run (see sweep.cpp).  Note:
                                    ///< the sweep parallelizes across
                                    ///< SITES only -- kernel-level OpenMP
                                    ///< inside each solve is pinned to one
                                    ///< thread at every `threads` setting
                                    ///< (a tuning choice: results do not
                                    ///< depend on it), so on multi-core
                                    ///< machines use threads != 1 to
                                    ///< recover parallelism.
  std::size_t batch = 1;            ///< injection sites solved in lockstep
                                    ///< per worker (multi-RHS FT-GMRES,
                                    ///< krylov::ft_gmres_batch): each
                                    ///< worker packs `batch` sites into
                                    ///< one block so every outer iteration
                                    ///< streams the matrix once instead of
                                    ///< `batch` times.  Results are
                                    ///< bitwise identical at every batch
                                    ///< setting (each instance walks its
                                    ///< solo operation sequence; SpMM
                                    ///< columns == SpMV).  1 = solo
                                    ///< solves; 0 is rejected by
                                    ///< validate_sweep_config.

  // --- matrix execution backend ---
  std::string backend_key = "csr";  ///< backend_registry() key used when
                                    ///< `backend` below is null; every
                                    ///< backend is bitwise identical to
                                    ///< csr per solve, so the sweep
                                    ///< determinism contract is
                                    ///< backend-agnostic
  std::shared_ptr<const krylov::MatrixBackend> backend; ///< pre-assembled
                                    ///< backend (run_scenario and the
                                    ///< service seam set this so one
                                    ///< assembly serves the baseline and
                                    ///< every worker -- it also survives
                                    ///< the fork into shard workers);
                                    ///< null = assemble from backend_key

  // --- resilience: checkpoint/resume and range restriction ---
  std::string journal;              ///< path of the sweep journal (JSONL,
                                    ///< see experiment/journal.hpp); every
                                    ///< completed point is appended and
                                    ///< fsync'd, so a crashed sweep loses
                                    ///< at most in-flight solves.  Empty
                                    ///< disables journaling.
  bool resume = false;              ///< load `journal` first and skip the
                                    ///< points it already holds; the
                                    ///< resumed SweepResult is bitwise
                                    ///< identical (points and baseline
                                    ///< fields) to an uninterrupted run.
                                    ///< A missing journal file is a fresh
                                    ///< start, not an error.
  std::size_t point_offset = 0;     ///< first point index this run solves
                                    ///< (the shard seam: a worker process
                                    ///< owns points [offset, offset+count))
  std::size_t point_count = 0;      ///< number of points from point_offset
                                    ///< (0 = through the end)
  std::function<void(std::size_t)> on_progress; ///< called after each
                                    ///< journal flush with the cumulative
                                    ///< number of points this run solved
                                    ///< (crash drills and progress bars;
                                    ///< serialized, never concurrent)
};

/// Outcome of one faulty solve.
struct SweepPoint {
  std::size_t aggregate_iteration = 0; ///< injection site
  std::size_t outer_iterations = 0;    ///< outer iterations to convergence
  bool converged = false;
  bool injected = false;  ///< the fault actually fired (it may not, e.g.
                          ///< when the perturbed run ends sooner)
  bool detected = false;  ///< detector flagged the fault
  std::size_t sanitized_outputs = 0; ///< inner results the reliable outer
                                     ///< phase had to filter (Inf/NaN/zero)
  std::size_t inner_applies = 0; ///< operator products the run's inner
                                 ///< solves consumed -- a property of the
                                 ///< per-instance operation sequence, so
                                 ///< identical at every threads/batch
                                 ///< setting (unlike the matrix STREAMS
                                 ///< paid for them: see
                                 ///< SweepResult::operator_stats)
  double residual_norm = 0.0; ///< explicit final residual
  krylov::SolveStatus status = krylov::SolveStatus::MaxIterations;
                          ///< the outer solve's terminal state (converged
                          ///< is status-derived; Diverged/DeadlineExceeded
                          ///< mean a solve guard fired)
  std::size_t inner_diverged = 0; ///< inner solves the residual-explosion
                          ///< guard stopped (status Diverged)
  std::size_t reliable_retries = 0; ///< inner solves recomputed reliably
                          ///< (recovery retry_reliable)
  std::size_t outer_restarts = 0;   ///< outer cycles restarted (recovery
                          ///< restart_outer)
  std::size_t global_syncs = 0; ///< global reductions the run consumed
                          ///< (outer + every inner solve) -- like
                          ///< inner_applies a property of the per-instance
                          ///< operation sequence, identical at every
                          ///< threads/batch setting; the s-step inner mode
                          ///< (s= key) is what shrinks it

  bool operator==(const SweepPoint&) const = default;
};

/// Result of a full sweep.
struct SweepResult {
  std::size_t baseline_outer = 0;        ///< failure-free outer iterations
  std::size_t baseline_total_inner = 0;  ///< number of injectable sites
  bool baseline_converged = false;
  std::size_t baseline_global_syncs = 0; ///< failure-free global reductions
                                         ///< (the s-step speedup reference:
                                         ///< compare per-solve syncs across
                                         ///< s= settings at fixed problem)
  std::vector<SweepPoint> points;

  /// Measured operator traffic of the per-site solves (baseline
  /// excluded), summed over the sweep workers' operators.  columns() is
  /// mode-independent (same work at any threads/batch); streams() is
  /// NOT -- lockstep batching divides it by ~batch, which is exactly the
  /// number this field exists to show -- so operator_stats is not part
  /// of the sweep determinism contract and the identity assertions
  /// compare points and baseline fields only.
  krylov::OperatorStats operator_stats;

  /// Sum of the points' inner_applies: operand columns consumed by the
  /// unreliable inner solves (mode-independent; at the paper's inner=25
  /// this is ~25/26 of columns()).
  [[nodiscard]] std::size_t inner_operand_columns() const;

  /// Sum of the points' global_syncs (mode-independent, like
  /// inner_operand_columns).
  [[nodiscard]] std::size_t total_global_syncs() const;

  /// Largest outer-iteration increase over the baseline (0 when all runs
  /// match the failure-free count).
  [[nodiscard]] std::size_t max_outer_increase() const;
  /// Number of runs with no increase in outer iterations.
  [[nodiscard]] std::size_t unchanged_runs() const;
  /// Number of runs that failed to converge.
  [[nodiscard]] std::size_t failed_runs() const;
  /// Number of runs where the detector fired.
  [[nodiscard]] std::size_t detected_runs() const;

  // --- solve-guard counters ---
  /// Runs where the residual-explosion guard fired (outer status Diverged
  /// or at least one inner solve stopped Diverged).
  [[nodiscard]] std::size_t diverged_runs() const;
  /// Runs the wall-clock deadline guard stopped (status DeadlineExceeded).
  [[nodiscard]] std::size_t deadline_exceeded_runs() const;

  // --- recovery counters ---
  /// Inner solves recomputed reliably across the sweep (retry_reliable).
  [[nodiscard]] std::size_t retried_reliable() const;
  /// Outer cycles restarted across the sweep (restart_outer).
  [[nodiscard]] std::size_t restarted_outer() const;
};

/// Validate \p config before any solve runs.  Throws std::invalid_argument
/// on: stride == 0; with_detector without a positive detector_bound; an
/// inner iteration budget of zero (no injectable sites can exist).  Called
/// by run_injection_sweep up front; exposed so scenario builders can fail
/// fast before constructing matrices.
void validate_sweep_config(const SweepConfig& config);

/// Run the failure-free baseline followed by one faulty solve per
/// injection site.  \p b is the right-hand side; the initial guess is zero
/// for every run (paper: "same matrix, right-hand side, and initial
/// guess").  Throws std::invalid_argument when validate_sweep_config
/// rejects \p config or when the site_limit/stride combination selects
/// zero injection sites against the measured baseline.
[[nodiscard]] SweepResult run_injection_sweep(const sparse::CsrMatrix& A,
                                              const la::Vector& b,
                                              const SweepConfig& config);

/// Spec-driven entry: build the matrix, right-hand side, and SweepConfig
/// from a scenario spec (see scenario.hpp for the key vocabulary) and run
/// the sweep.  This is the same path the `sdc_run` example CLI uses.
[[nodiscard]] SweepResult run_injection_sweep(const ScenarioSpec& spec);

/// Just the failure-free baseline (also used by examples).
[[nodiscard]] krylov::FtGmresResult run_baseline(
    const sparse::CsrMatrix& A, const la::Vector& b,
    const krylov::FtGmresOptions& opts);

/// Baseline over an already-built operator (the backend-agnostic form:
/// the sweep and shard drivers stream the configured backend here too,
/// with the kernel pinned to one OpenMP thread exactly like the CSR
/// overload).
[[nodiscard]] krylov::FtGmresResult run_baseline(
    const krylov::LinearOperator& A, const la::Vector& b,
    const krylov::FtGmresOptions& opts);

} // namespace sdcgmres::experiment
