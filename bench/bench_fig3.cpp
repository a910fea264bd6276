/// \file bench_fig3.cpp
/// \brief Reproduces Fig. 3: outer iterations to convergence for the
/// Poisson (SPD) problem, given a single SDC event injected at every
/// possible aggregate inner iteration, on the first (3a) and last (3b)
/// iteration of the Modified Gram-Schmidt loop, for all three fault
/// classes.
///
/// Paper shape (full scale, failure-free = 9 outer x 25 inner):
///  * 3a, class 1 (x1e+150): large spikes -- entries of the tridiagonal H
///    that should be zero become huge; up to ~2x outer iterations.
///  * 3a, classes 2/3: at most ~2 extra outer iterations, most runs
///    unchanged.
///  * 3b (last MGS step): worst case ~1 extra outer iteration.
/// The detector (|h| <= ||A||_F) would catch every class-1 event, making
/// the top plot impossible (see bench_ablation_detector).
///
/// Flags:
///   --threads N      run each sweep with N worker threads (0 = all
///                    hardware threads; results are identical to serial)
///   --batch N        solve N injection sites in lockstep per worker
///                    (multi-RHS FT-GMRES: one fused SpMM per outer
///                    iteration instead of N SpMVs; results identical)
///   --sweep-json F   instead of the figure series, time one class-1
///                    sweep serial vs parallel vs batched and write the
///                    comparison to F (machine-readable perf trace; the
///                    batched leg uses --batch, default 4).  Besides
///                    wall-clock the trace records the MEASURED operator
///                    traffic from the new LinearOperator counters:
///                    operand columns (inner/outer split; identical in
///                    every mode) and matrix streams per leg, whose
///                    serial/batched ratio is the lockstep reduction.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"
#include "experiment/report.hpp"
#include "experiment/sweep.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/mixed.hpp"
#include "krylov/operator.hpp"

using namespace sdcgmres;

namespace {

double run_timed(const sparse::CsrMatrix& A, const la::Vector& b,
                 experiment::SweepConfig config, std::size_t threads,
                 std::size_t batch, experiment::SweepResult& out) {
  config.threads = threads;
  config.batch = batch;
  const auto t0 = std::chrono::steady_clock::now();
  out = experiment::run_injection_sweep(A, b, config);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Serial vs parallel vs batched wall-clock for one representative sweep
/// (class 1, first MGS position), verifying every mode's result is
/// identical.  The batched legs run the lockstep multi-RHS engine: one
/// fused SpMM per outer iteration per block instead of `batch` SpMVs, so
/// (serial_seconds / batched_serial_seconds) isolates the matrix-traffic
/// amortization from sweep-level threading.
int sweep_timing(const sparse::CsrMatrix& A, const la::Vector& b,
                 std::size_t inner, std::size_t threads, std::size_t batch,
                 const char* path) {
  std::size_t hw = 1;
#ifdef _OPENMP
  hw = static_cast<std::size_t>(omp_get_max_threads());
#endif
  if (threads == 0) threads = hw;
  if (threads <= 1) threads = hw; // comparing 1 vs 1 tells nothing
  if (batch <= 1) batch = 4;      // a 1-site block is not a batch

  experiment::SweepConfig config;
  config.solver.inner.max_iters = inner;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 300;
  config.position = sdc::MgsPosition::First;
  config.model = sdc::fault_classes::very_large();
  config.stride = benchcfg::sweep_stride(1);

  experiment::SweepResult serial;
  experiment::SweepResult parallel;
  experiment::SweepResult batched_serial;
  experiment::SweepResult batched;
  const double t_serial = run_timed(A, b, config, 1, 1, serial);
  const double t_parallel = run_timed(A, b, config, threads, 1, parallel);
  const double t_batched_serial =
      run_timed(A, b, config, 1, batch, batched_serial);
  const double t_batched = run_timed(A, b, config, threads, batch, batched);

  // s-step leg: the same sweep with the inner solves staging s=4 matrix
  // powers per block (2 global reductions per block instead of ~2 per
  // column).  The iterates differ from the classical path -- the point of
  // this leg is the synchronization axis: baseline_global_syncs and the
  // per-sweep total drop by >= 2x while the outer-iteration penalty stays
  // within the paper's budget.
  experiment::SweepConfig sstep_config = config;
  sstep_config.solver.inner.s_step = 4;
  experiment::SweepResult sstep_serial;
  const double t_sstep_serial = run_timed(A, b, sstep_config, 1, 1,
                                          sstep_serial);

  // Mixed-plane legs.  (double, int32) compresses the inner solves' CSR
  // indices without touching arithmetic, so its points must be bitwise
  // identical to the default legs; (float, int32) halves the scalar
  // traffic too and is compared by bytes, not by points (float inner
  // solves are a different -- still convergent -- perturbation).
  experiment::SweepConfig mixed_config = config;
  mixed_config.solver.index_width = krylov::IndexWidth::I32;
  experiment::SweepResult d32_batched;
  const double t_d32_batched =
      run_timed(A, b, mixed_config, 1, batch, d32_batched);
  mixed_config.solver.precision = krylov::Precision::Float;
  experiment::SweepResult f32_serial;
  experiment::SweepResult f32_batched;
  const double t_f32_serial = run_timed(A, b, mixed_config, 1, 1, f32_serial);
  const double t_f32_batched =
      run_timed(A, b, mixed_config, 1, batch, f32_batched);

  const auto same = [&serial](const experiment::SweepResult& other) {
    return serial.points == other.points &&
           serial.baseline_outer == other.baseline_outer &&
           serial.baseline_total_inner == other.baseline_total_inner;
  };
  const bool identical = same(parallel) && same(batched_serial) &&
                         same(batched) && same(d32_batched);

  // Measured operator traffic per leg (krylov::OperatorStats, summed over
  // each leg's sweep workers).  The operand-column count is the WORK and
  // is identical in every mode; the stream count is the matrix passes
  // PAID for that work -- the batched legs divide it by ~batch, and
  // that reduction is the whole point of the lockstep engine.  The
  // inner/outer split comes from the per-point inner_applies counters
  // (mode-independent): at inner=25 the inner solves own ~25/26 of the
  // columns, which is why inner-level lockstep matters.
  const std::size_t columns = serial.operator_stats.columns();
  const std::size_t inner_columns = serial.inner_operand_columns();
  const std::size_t serial_streams = serial.operator_stats.streams();
  const std::size_t batched_streams = batched_serial.operator_stats.streams();

  // Bytes actually streamed per leg (scalar = matrix values + operand/
  // result columns, index = row_ptr + col_idx), each counted at the
  // executing plane's own widths.  The headline ratio compares the
  // float/int32 inner plane against the double/int64 one at the same
  // batch: scalars and indices both halve, so the inner-dominated total
  // lands near 0.5x (the reliable outer keeps streaming full doubles).
  const auto bytes_json = [](const experiment::SweepResult& r) {
    std::ostringstream o;
    o << "{ \"scalar\": " << r.operator_stats.scalar_bytes
      << ", \"index\": " << r.operator_stats.index_bytes
      << ", \"total\": " << r.operator_stats.bytes() << " }";
    return o.str();
  };
  const double float_over_double_sweep =
      batched_serial.operator_stats.bytes() > 0
          ? static_cast<double>(f32_batched.operator_stats.bytes()) /
                static_cast<double>(batched_serial.operator_stats.bytes())
          : 0.0;

  // Failure-free lockstep solve legs: the same nested solver, `batch`
  // right-hand sides in lockstep, NO injection.  Both planes converge in
  // the same number of outer iterations here, so the byte ratio isolates
  // the pure streaming cut of the narrowed inner plane (scalars and
  // indices both halve on ~25/26 of the traffic -> ~0.52x).  The sweep
  // ratio above is larger: under class-1 faults the float inner plane
  // needs ~10% more outer iterations to absorb the perturbations, and
  // those extra iterations stream extra (narrowed) bytes.
  const auto solve_bytes = [&](const krylov::FtGmresOptions& opts,
                               std::size_t& outers) {
    const krylov::CsrOperator op(A);
    krylov::FtGmresWorkspace ws;
    const std::vector<la::Vector> bs(batch, b);
    const auto res = krylov::ft_gmres_batch(op, bs, opts, {}, &ws);
    outers = res.empty() ? 0 : res.front().outer_iterations;
    krylov::OperatorStats s = op.stats();
    if (ws.plane != nullptr) s += ws.plane->stats();
    return s;
  };
  std::size_t solve_outers_double = 0;
  std::size_t solve_outers_float = 0;
  const krylov::OperatorStats solve_double =
      solve_bytes(config.solver, solve_outers_double);
  const krylov::OperatorStats solve_float =
      solve_bytes(mixed_config.solver, solve_outers_float);
  const double float_over_double_batched =
      solve_double.bytes() > 0
          ? static_cast<double>(solve_float.bytes()) /
                static_cast<double>(solve_double.bytes())
          : 0.0;
  const auto stats_json = [](const krylov::OperatorStats& s) {
    std::ostringstream o;
    o << "{ \"scalar\": " << s.scalar_bytes << ", \"index\": " << s.index_bytes
      << ", \"total\": " << s.bytes() << " }";
    return o.str();
  };

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_fig3 injection sweep\",\n"
       << "  \"matrix\": \"poisson\",\n"
       << "  \"n\": " << A.rows() << ",\n"
       << "  \"sites\": " << serial.points.size() << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"serial_seconds\": " << t_serial << ",\n"
       << "  \"parallel_seconds\": " << t_parallel << ",\n"
       << "  \"batched_serial_seconds\": " << t_batched_serial << ",\n"
       << "  \"batched_parallel_seconds\": " << t_batched << ",\n"
       << "  \"speedup\": " << (t_parallel > 0.0 ? t_serial / t_parallel : 0.0)
       << ",\n"
       << "  \"batched_speedup_serial\": "
       << (t_batched_serial > 0.0 ? t_serial / t_batched_serial : 0.0) << ",\n"
       << "  \"batched_speedup\": "
       << (t_batched > 0.0 ? t_serial / t_batched : 0.0) << ",\n"
       << "  \"operand_columns\": " << columns << ",\n"
       << "  \"inner_operand_columns\": " << inner_columns << ",\n"
       << "  \"outer_operand_columns\": " << (columns - inner_columns)
       << ",\n"
       << "  \"serial_matrix_streams\": " << serial_streams << ",\n"
       << "  \"parallel_matrix_streams\": "
       << parallel.operator_stats.streams() << ",\n"
       << "  \"batched_serial_matrix_streams\": " << batched_streams << ",\n"
       << "  \"batched_parallel_matrix_streams\": "
       << batched.operator_stats.streams() << ",\n"
       << "  \"stream_reduction\": "
       << (batched_streams > 0
               ? static_cast<double>(serial_streams) /
                     static_cast<double>(batched_streams)
               : 0.0)
       << ",\n"
       << "  \"bytes\": {\n"
       << "    \"serial\": " << bytes_json(serial) << ",\n"
       << "    \"parallel\": " << bytes_json(parallel) << ",\n"
       << "    \"batched_serial\": " << bytes_json(batched_serial) << ",\n"
       << "    \"batched_parallel\": " << bytes_json(batched) << ",\n"
       << "    \"d32_batched\": " << bytes_json(d32_batched) << ",\n"
       << "    \"float_serial\": " << bytes_json(f32_serial) << ",\n"
       << "    \"float_batched\": " << bytes_json(f32_batched) << ",\n"
       << "    \"float_over_double_sweep_batched\": " << float_over_double_sweep
       << ",\n"
       << "    \"solve_double_batched\": " << stats_json(solve_double) << ",\n"
       << "    \"solve_float_batched\": " << stats_json(solve_float) << ",\n"
       << "    \"solve_outer_iterations\": { \"double\": "
       << solve_outers_double << ", \"float\": " << solve_outers_float
       << " },\n"
       << "    \"float_over_double_batched\": " << float_over_double_batched
       << "\n  },\n"
       // The mixed legs run at threads=1 (like the serial/batched_serial
       // references): on a 1-core container every leg is effectively
       // serial anyway, so bytes -- not wall-clock -- is the comparable
       // number here.
       << "  \"mixed\": {\n"
       << "    \"d32_batched_seconds\": " << t_d32_batched << ",\n"
       << "    \"d32_identical\": "
       << (same(d32_batched) ? "true" : "false") << ",\n"
       << "    \"float_serial_seconds\": " << t_f32_serial << ",\n"
       << "    \"float_batched_seconds\": " << t_f32_batched << ",\n"
       << "    \"float_baseline_outer\": " << f32_serial.baseline_outer
       << ",\n"
       << "    \"float_failed_runs\": " << f32_serial.failed_runs() << ",\n"
       << "    \"float_max_outer_increase\": "
       << f32_serial.max_outer_increase() << "\n  },\n"
       // Global-reduction accounting (the s-step axis): counts are
       // deterministic, so the serial numbers speak for every mode.
       << "  \"syncs\": {\n"
       << "    \"baseline_global_syncs\": " << serial.baseline_global_syncs
       << ",\n"
       << "    \"total_global_syncs\": " << serial.total_global_syncs()
       << ",\n"
       << "    \"sstep\": " << sstep_config.solver.inner.s_step << ",\n"
       << "    \"sstep_seconds\": " << t_sstep_serial << ",\n"
       << "    \"sstep_baseline_global_syncs\": "
       << sstep_serial.baseline_global_syncs << ",\n"
       << "    \"sstep_total_global_syncs\": "
       << sstep_serial.total_global_syncs() << ",\n"
       << "    \"sstep_baseline_outer\": " << sstep_serial.baseline_outer
       << ",\n"
       << "    \"sync_reduction\": "
       << (sstep_serial.total_global_syncs() > 0
               ? static_cast<double>(serial.total_global_syncs()) /
                     static_cast<double>(sstep_serial.total_global_syncs())
               : 0.0)
       << "\n  },\n"
       // Guard trips and recovery activity (serial leg; identical in every
       // mode).  This trace runs no detector and no guards, so nonzero
       // counters here flag a determinism bug, not a slow machine.
       << "  \"guard\": {\n"
       << "    \"diverged\": " << serial.diverged_runs() << ",\n"
       << "    \"deadline_exceeded\": " << serial.deadline_exceeded_runs()
       << "\n  },\n"
       << "  \"recovery\": {\n"
       << "    \"retried_reliable\": " << serial.retried_reliable() << ",\n"
       << "    \"restarted_outer\": " << serial.restarted_outer() << "\n  },\n"
       << "  \"identical_results\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << json.str();
  if (std::ofstream out(path); out) {
    out << json.str();
  } else {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  return identical ? 0 : 2;
}

} // namespace

int main(int argc, char** argv) {
  benchcfg::print_mode_banner("bench_fig3 (Poisson, Figs. 3a/3b)");
  const auto A = benchcfg::poisson_matrix();
  const auto b = benchcfg::poisson_rhs(A);
  const std::size_t inner = 25;
  const benchcfg::CliArgs cli =
      benchcfg::parse_cli(argc, argv, /*value_flags=*/{"batch"});
  const std::size_t threads = cli.threads;
  const std::size_t batch = cli.spec.get_size("batch", 1);

  if (!cli.json.empty()) {
    return sweep_timing(A, b, inner, threads, batch, cli.json.c_str());
  }

  const struct {
    const char* name;
    sdc::FaultModel model;
  } classes[] = {
      {"h x 1e+150 (class 1)", sdc::fault_classes::very_large()},
      {"h x 10^-0.5 (class 2)", sdc::fault_classes::slightly_smaller()},
      {"h x 1e-300 (class 3)", sdc::fault_classes::nearly_zero()},
  };
  const struct {
    const char* name;
    sdc::MgsPosition position;
  } positions[] = {
      {"Fig. 3a: SDC on the FIRST iteration of the MGS loop",
       sdc::MgsPosition::First},
      {"Fig. 3b: SDC on the LAST iteration of the MGS loop",
       sdc::MgsPosition::Last},
  };

  for (const auto& pos : positions) {
    std::cout << "--------------------------------------------------------\n"
              << pos.name << "\n"
              << "--------------------------------------------------------\n";
    for (const auto& cls : classes) {
      experiment::SweepConfig config;
      config.solver.inner.max_iters = inner;
      config.solver.outer.tol = 1e-8;
      config.solver.outer.max_outer = 300;
      config.position = pos.position;
      config.model = cls.model;
      config.stride = benchcfg::sweep_stride(1);
      config.threads = threads;
      // No silent batch=0 promotion: the library's validation rejects it.
      config.batch = batch;
      const auto sweep = experiment::run_injection_sweep(A, b, config);
      experiment::print_sweep_series(std::cout, cls.name, sweep, inner);
      experiment::print_sweep_summary(std::cout, cls.name, sweep);
      if (const std::string dir = benchcfg::csv_dir(); !dir.empty()) {
        std::ostringstream path;
        path << dir << "/fig3_"
             << (pos.position == sdc::MgsPosition::First ? "first" : "last")
             << "_" << (&cls - &classes[0] + 1) << ".csv";
        std::ofstream out(path.str());
        if (out) experiment::write_sweep_csv(out, sweep);
      }
      std::cout << '\n';
    }
  }
  return 0;
}
