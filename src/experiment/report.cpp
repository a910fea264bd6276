#include "experiment/report.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "sparse/norms.hpp"

namespace sdcgmres::experiment {

MatrixReport characterize(const std::string& name, const sparse::CsrMatrix& A,
                          bool estimate_condition) {
  MatrixReport report;
  report.name = name;
  report.properties = sparse::analyze(A);
  report.positive_definite =
      report.properties.numerically_symmetric &&
      sparse::probe_positive_definite(A);
  report.two_norm_estimate = sparse::estimate_two_norm(A).value;
  report.frobenius_norm = A.frobenius_norm();
  report.condition_estimate =
      estimate_condition ? sparse::estimate_condition_number(A) : 0.0;
  return report;
}

namespace {

void print_row(std::ostream& out, const std::string& label,
               const std::vector<std::string>& cells) {
  out << std::left << std::setw(28) << label;
  for (const std::string& c : cells) {
    out << std::right << std::setw(18) << c;
  }
  out << '\n';
}

std::string yes_no(bool b) { return b ? "yes" : "no"; }

std::string sci(double v, int precision = 4) {
  std::ostringstream ss;
  ss << std::scientific << std::setprecision(precision) << v;
  return ss.str();
}

} // namespace

void print_table1(std::ostream& out,
                  const std::vector<MatrixReport>& reports) {
  std::vector<std::string> cells;
  const auto collect = [&](auto&& fn) {
    cells.clear();
    for (const MatrixReport& r : reports) cells.push_back(fn(r));
    return cells;
  };
  out << "TABLE I: Sample Matrices\n";
  print_row(out, "Properties", collect([](const MatrixReport& r) {
              return r.name;
            }));
  print_row(out, "number of rows", collect([](const MatrixReport& r) {
              return std::to_string(r.properties.rows);
            }));
  print_row(out, "number of columns", collect([](const MatrixReport& r) {
              return std::to_string(r.properties.cols);
            }));
  print_row(out, "nonzeros", collect([](const MatrixReport& r) {
              return std::to_string(r.properties.nnz);
            }));
  print_row(out, "structural full rank?", collect([](const MatrixReport& r) {
              return yes_no(r.properties.has_full_structural_rank);
            }));
  print_row(out, "nonzero pattern symmetry", collect([](const MatrixReport& r) {
              return r.properties.pattern_symmetric ? "symmetric"
                                                    : "nonsymmetric";
            }));
  print_row(out, "type", collect([](const MatrixReport&) {
              return std::string("real");
            }));
  print_row(out, "positive definite?", collect([](const MatrixReport& r) {
              return yes_no(r.positive_definite);
            }));
  print_row(out, "Condition Number", collect([](const MatrixReport& r) {
              return r.condition_estimate > 0.0 ? sci(r.condition_estimate)
                                                : std::string("(skipped)");
            }));
  out << "Potential Fault Detectors\n";
  print_row(out, "||A||_2", collect([](const MatrixReport& r) {
              return sci(r.two_norm_estimate);
            }));
  print_row(out, "||A||_F", collect([](const MatrixReport& r) {
              return sci(r.frobenius_norm);
            }));
}

void print_sweep_series(std::ostream& out, const std::string& title,
                        const SweepResult& sweep,
                        std::size_t inner_per_outer) {
  out << title << '\n';
  out << "failure-free outer iterations = " << sweep.baseline_outer
      << ", injection sites = " << sweep.baseline_total_inner << '\n';
  out << "site : outer iterations ('|' marks a new inner solve, '*' = fault "
         "did not fire, 'D' = detected, 'X' = no convergence)\n";
  std::size_t col = 0;
  for (const SweepPoint& p : sweep.points) {
    if (inner_per_outer > 0 && p.aggregate_iteration % inner_per_outer == 0) {
      out << "| ";
    }
    out << p.aggregate_iteration << ':' << p.outer_iterations;
    if (!p.injected) out << '*';
    if (p.detected) out << 'D';
    if (!p.converged) out << 'X';
    out << ' ';
    if (++col % 12 == 0) out << '\n';
  }
  out << '\n';
}

void write_sweep_csv(std::ostream& out, const SweepResult& sweep) {
  out << "site,outer_iterations,converged,injected,detected,residual\n";
  for (const SweepPoint& p : sweep.points) {
    out << p.aggregate_iteration << ',' << p.outer_iterations << ','
        << (p.converged ? 1 : 0) << ',' << (p.injected ? 1 : 0) << ','
        << (p.detected ? 1 : 0) << ',' << sci(p.residual_norm) << '\n';
  }
}

void print_sweep_summary(std::ostream& out, const std::string& title,
                         const SweepResult& sweep) {
  out << std::left << std::setw(56) << title << " baseline="
      << sweep.baseline_outer << " max_increase=" << sweep.max_outer_increase()
      << " unchanged=" << sweep.unchanged_runs() << "/" << sweep.points.size()
      << " failed=" << sweep.failed_runs()
      << " detected=" << sweep.detected_runs();
  // Guard and recovery activity is exceptional: only clutter the line
  // when a run actually diverged, overran its deadline, or recovered.
  if (sweep.diverged_runs() > 0) out << " diverged=" << sweep.diverged_runs();
  if (sweep.deadline_exceeded_runs() > 0) {
    out << " deadline_exceeded=" << sweep.deadline_exceeded_runs();
  }
  if (sweep.retried_reliable() > 0) {
    out << " retried_reliable=" << sweep.retried_reliable();
  }
  if (sweep.restarted_outer() > 0) {
    out << " restarted_outer=" << sweep.restarted_outer();
  }
  out << '\n';
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Every other control character: the JSON \u00XX form.
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  std::ostringstream out;
  out << v;
  return out.str();
}

void write_sweep_json(std::ostream& out, const ScenarioResult& r,
                      bool identical_checked, bool identical) {
  out << "{\n"
      << "  \"spec\": \"" << json_escape(r.spec_text) << "\",\n"
      << "  \"matrix\": \"" << json_escape(r.matrix_name) << "\",\n"
      << "  \"n\": " << r.n << ",\n"
      << "  \"backend\": \"" << json_escape(r.backend_name) << "\",\n";
  // The autotuner's reasoning, recorded only when backend=auto ran.
  if (!r.backend_decision.empty()) {
    out << "  \"backend_decision\": \"" << json_escape(r.backend_decision)
        << "\",\n";
  }
  out << "  \"baseline_outer\": " << r.sweep.baseline_outer << ",\n"
      << "  \"sites\": " << r.sweep.points.size() << ",\n"
      << "  \"max_outer_increase\": " << r.sweep.max_outer_increase() << ",\n"
      << "  \"unchanged_runs\": " << r.sweep.unchanged_runs() << ",\n"
      << "  \"failed_runs\": " << r.sweep.failed_runs() << ",\n"
      << "  \"detected_runs\": " << r.sweep.detected_runs() << ",\n"
      // Measured operator traffic, counting only what was actually
      // streamed: every site forks from the failure-free run at its last
      // outer boundary, so its skipped prefix costs nothing here (the
      // points' inner_applies/global_syncs still describe each solve's
      // full operation sequence).  columns is the work (identical at any
      // threads/batch), streams the matrix passes paid for it (divided by
      // ~batch when sites run in lockstep).
      << "  \"matrix_streams\": " << r.sweep.operator_stats.streams() << ",\n"
      << "  \"operand_columns\": " << r.sweep.operator_stats.columns() << ",\n"
      << "  \"inner_operand_columns\": " << r.sweep.inner_operand_columns()
      << ",\n"
      // Global reductions: the synchronization axis of the s-step mode.
      // Per-solve counts are mode-independent (same at any threads/batch);
      // the baseline figure is the failure-free per-solve reference to
      // compare across s= settings.
      << "  \"baseline_global_syncs\": " << r.sweep.baseline_global_syncs
      << ",\n"
      << "  \"global_syncs\": " << r.sweep.total_global_syncs() << ",\n"
      // Bytes actually streamed for those passes, split scalar (matrix
      // values + operand/result columns) vs index (row_ptr + col_idx),
      // each at the executing plane's own width -- this is where a
      // precision=float/index=32 inner plane shows its traffic cut.
      << "  \"scalar_bytes\": " << r.sweep.operator_stats.scalar_bytes
      << ",\n"
      << "  \"index_bytes\": " << r.sweep.operator_stats.index_bytes << ",\n"
      << "  \"bytes_streamed\": " << r.sweep.operator_stats.bytes() << ",\n"
      // Solve-guard trips and detector-triggered recovery activity across
      // the sweep (zero everywhere unless deadline=/divergence=/recovery=
      // are in play).
      << "  \"guard\": {\n"
      << "    \"diverged\": " << r.sweep.diverged_runs() << ",\n"
      << "    \"deadline_exceeded\": " << r.sweep.deadline_exceeded_runs()
      << "\n  },\n"
      << "  \"recovery\": {\n"
      << "    \"retried_reliable\": " << r.sweep.retried_reliable() << ",\n"
      << "    \"restarted_outer\": " << r.sweep.restarted_outer() << "\n  }";
  if (r.sharded) {
    out << ",\n  \"shard\": {\n"
        << "    \"ranges\": " << r.shard.ranges << ",\n"
        << "    \"worker_crashes\": " << r.shard.worker_crashes << ",\n"
        << "    \"timeouts\": " << r.shard.timeouts << ",\n"
        << "    \"ranges_requeued\": " << r.shard.ranges_requeued << "\n  }";
  }
  if (identical_checked) {
    out << ",\n  \"identical_results\": " << (identical ? "true" : "false");
  }
  out << "\n}\n";
}

void write_solve_json(std::ostream& out, const ScenarioResult& r) {
  out << "{\n"
      << "  \"spec\": \"" << json_escape(r.spec_text) << "\",\n"
      << "  \"solver\": \"" << json_escape(r.solver_name) << "\",\n"
      << "  \"matrix\": \"" << json_escape(r.matrix_name) << "\",\n"
      << "  \"n\": " << r.n << ",\n"
      << "  \"backend\": \"" << json_escape(r.backend_name) << "\",\n";
  if (!r.backend_decision.empty()) {
    out << "  \"backend_decision\": \"" << json_escape(r.backend_decision)
        << "\",\n";
  }
  out << "  \"status\": \"" << solver::to_string(r.report.status) << "\",\n"
      << "  \"iterations\": " << r.report.iterations << ",\n"
      << "  \"global_syncs\": " << r.report.global_syncs << ",\n"
      << "  \"residual\": " << json_number(r.report.residual_norm) << ",\n"
      << "  \"injected\": " << (r.injected ? "true" : "false") << ",\n"
      << "  \"detected\": " << (r.detected ? "true" : "false") << ",\n"
      << "  \"recovery\": {\n"
      << "    \"retried_reliable\": " << r.report.reliable_retries << ",\n"
      << "    \"restarted_outer\": " << r.report.outer_restarts << "\n  }\n"
      << "}\n";
}

void write_scenario_json(std::ostream& out, const ScenarioResult& r) {
  if (r.is_sweep) {
    write_sweep_json(out, r);
  } else {
    write_solve_json(out, r);
  }
}

} // namespace sdcgmres::experiment
