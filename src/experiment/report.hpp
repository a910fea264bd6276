#pragma once
/// \file report.hpp
/// \brief Printers that render experiment results the way the paper does.

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"
#include "sparse/analysis.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::experiment {

/// One column of the Table I reproduction.
struct MatrixReport {
  std::string name;
  sparse::MatrixProperties properties;
  bool positive_definite = false;
  double two_norm_estimate = 0.0;  ///< potential fault detector sigma_max
  double frobenius_norm = 0.0;     ///< potential fault detector ||A||_F
  double condition_estimate = 0.0; ///< 0 when not computed
};

/// Gather everything Table I reports about \p A.
/// \param estimate_condition inverse iteration on A^T A is expensive for
///        ill-conditioned matrices; pass false to skip it.
[[nodiscard]] MatrixReport characterize(const std::string& name,
                                        const sparse::CsrMatrix& A,
                                        bool estimate_condition = true);

/// Print the Table I layout (one column per matrix).
void print_table1(std::ostream& out, const std::vector<MatrixReport>& reports);

/// Print one sweep as the paper's figure series: aggregate injection site
/// vs outer iterations, with the failure-free baseline in the header and
/// '|' separators at inner solve boundaries mirroring the figures'
/// vertical bars.
void print_sweep_series(std::ostream& out, const std::string& title,
                        const SweepResult& sweep,
                        std::size_t inner_per_outer);

/// Write a sweep as CSV: site,outer_iterations,converged,injected,detected.
void write_sweep_csv(std::ostream& out, const SweepResult& sweep);

/// Compact per-sweep summary line (max increase, unchanged runs, ...).
void print_sweep_summary(std::ostream& out, const std::string& title,
                         const SweepResult& sweep);

// ---------------------------------------------------------------------------
// Machine-readable result JSON, shared by the sdc_run CLI and the
// sdc_serve service.  Both front ends emit EXACTLY these bytes, so a job
// result fetched from the service is bitwise identical to `sdc_run
// --json` on the same spec -- the service acceptance contract.
// ---------------------------------------------------------------------------

/// Escape a string for embedding in a JSON double-quoted value: `"` and
/// `\` get a backslash, newline/CR/tab become \n \r \t, and every other
/// byte below 0x20 becomes \u00XX.  Other bytes pass through unchanged.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Render a double as a valid JSON token: non-finite values (a NaN
/// residual from an unsanitized fault) become strings, since bare
/// nan/inf are not JSON.
[[nodiscard]] std::string json_number(double v);

/// Write a sweep-mode ScenarioResult as JSON.  \p identical_checked adds
/// the `identical_results` field (the sdc_run --assert-identical flag);
/// the service never sets it, matching a plain `sdc_run --json` run.
void write_sweep_json(std::ostream& out, const ScenarioResult& r,
                      bool identical_checked = false, bool identical = true);

/// Write a single-solve ScenarioResult as JSON.
void write_solve_json(std::ostream& out, const ScenarioResult& r);

/// Dispatch on r.is_sweep (what the service's result files hold).
void write_scenario_json(std::ostream& out, const ScenarioResult& r);

} // namespace sdcgmres::experiment
