#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/prepared_sweep.hpp"
#include "experiment/report.hpp"
#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"
#include "solver/solver.hpp"

namespace experiment = sdcgmres::experiment;
namespace krylov = sdcgmres::krylov;
namespace sdc = sdcgmres::sdc;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace solver = sdcgmres::solver;

namespace {

experiment::SweepConfig small_config() {
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 5;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 120;
  return config;
}

/// Every site of \p config solved from scratch: one FtGmresSolver::solve
/// per site, from zero, with its own fault campaign and detector chain --
/// the protocol the sweep's forked solves must reproduce bitwise.
std::vector<experiment::SweepPoint> solve_sites_from_scratch(
    const sdcgmres::sparse::CsrMatrix& A, const la::Vector& b,
    const experiment::SweepConfig& config, std::size_t n_points) {
  krylov::FtGmresOptions opts = config.solver;
  if (config.with_detector) {
    const krylov::InnerRecovery recovery =
        sdc::inner_recovery_for(config.detector_response);
    if (recovery != krylov::InnerRecovery::None) opts.recovery = recovery;
  }
  const krylov::CsrOperator op(A);
  solver::FtGmresSolver ft(op, opts);
  std::vector<experiment::SweepPoint> points;
  for (std::size_t i = 0; i < n_points; ++i) {
    const std::size_t site = i * config.stride;
    sdc::InjectionPlan plan = sdc::InjectionPlan::hessenberg(
        site, config.position, config.model);
    plan.target = config.target;
    sdc::FaultCampaign campaign(plan);
    sdc::HessenbergBoundDetector detector(config.detector_bound > 0.0
                                              ? config.detector_bound
                                              : 1.0,
                                          config.detector_response);
    krylov::HookChain chain;
    chain.add(&campaign);
    if (config.with_detector) chain.add(&detector);
    ft.set_hook(&chain);
    la::Vector x(A.rows());
    const solver::SolveReport run = ft.solve(b.span(), x.span());

    experiment::SweepPoint& p = points.emplace_back();
    p.aggregate_iteration = site;
    p.outer_iterations = run.iterations;
    p.converged = run.converged();
    p.injected = campaign.fired();
    p.detected = config.with_detector && detector.triggered();
    p.sanitized_outputs = run.sanitized_outputs;
    p.inner_applies = run.total_inner_applies;
    p.residual_norm = run.residual_norm;
    p.status = run.status;
    for (const krylov::InnerSolveRecord& rec : run.inner_solves) {
      if (rec.status == krylov::SolveStatus::Diverged) ++p.inner_diverged;
    }
    p.reliable_retries = run.reliable_retries;
    p.outer_restarts = run.outer_restarts;
    p.global_syncs = run.global_syncs;
  }
  return points;
}

/// The operand columns the sweep's sites stream when none may rejoin the
/// recorded baseline: every site solved from its fork boundary, with the
/// sweep's own ForkBase, to its end.
std::size_t fork_only_columns(const sdcgmres::sparse::CsrMatrix& A,
                              const la::Vector& b,
                              const experiment::SweepConfig& config) {
  const experiment::detail::PreparedSweep prep =
      experiment::detail::prepare_sweep(A, b, config);
  const krylov::CsrOperator op(A);
  solver::FtGmresSolver ft(op, prep.config.solver);
  for (std::size_t i = 0; i < prep.result.points.size(); ++i) {
    const std::size_t site = i * config.stride;
    const krylov::FtGmresStart starts[] = {prep.base.start_for(site)};
    sdc::InjectionPlan plan = sdc::InjectionPlan::hessenberg(
        site, config.position, config.model);
    plan.target = config.target;
    sdc::FaultCampaign campaign(plan, prep.base.skipped(starts[0]));
    sdc::HessenbergBoundDetector detector(config.detector_bound,
                                          config.detector_response);
    krylov::HookChain chain({&campaign});
    if (config.with_detector) chain.add(&detector);
    krylov::ArnoldiHook* const hooks[] = {&chain};
    la::Vector x(A.rows());
    const std::span<const double> bs[] = {b.span()};
    const std::span<double> xs[] = {x.span()};
    (void)ft.solve_batch(bs, xs, hooks, starts);
  }
  return op.stats().columns() + ft.mixed_stats().columns();
}

/// Field-by-field, bitwise (a NaN residual compares equal to itself).
void expect_points_bitwise(const std::vector<experiment::SweepPoint>& got,
                           const std::vector<experiment::SweepPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("site " + std::to_string(want[i].aggregate_iteration));
    experiment::SweepPoint a = got[i];
    experiment::SweepPoint b = want[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.residual_norm),
              std::bit_cast<std::uint64_t>(b.residual_norm));
    a.residual_norm = b.residual_norm = 0.0;
    EXPECT_EQ(a, b);
  }
}

} // namespace

TEST(Sweep, BaselineMatchesDirectSolve) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const auto config = small_config();
  const auto direct = experiment::run_baseline(A, b, config.solver);
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  EXPECT_TRUE(sweep.baseline_converged);
  EXPECT_EQ(sweep.baseline_outer, direct.outer_iterations);
  EXPECT_EQ(sweep.baseline_total_inner, direct.total_inner_iterations);
}

TEST(Sweep, OnePointPerInjectionSite) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const auto sweep = experiment::run_injection_sweep(A, b, small_config());
  EXPECT_EQ(sweep.points.size(), sweep.baseline_total_inner);
  for (std::size_t s = 0; s < sweep.points.size(); ++s) {
    EXPECT_EQ(sweep.points[s].aggregate_iteration, s);
  }
}

TEST(Sweep, StrideSamplesSites) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.stride = 4;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(sweep.points.size(),
            (sweep.baseline_total_inner + 3) / 4);
  EXPECT_EQ(sweep.points[1].aggregate_iteration, 4u);
}

TEST(Sweep, SiteLimitRestrictsSweep) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.site_limit = 7;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  ASSERT_EQ(sweep.points.size(), 7u);
  EXPECT_EQ(sweep.points.back().aggregate_iteration, 6u);
  // The baseline is still the full failure-free run.
  EXPECT_GT(sweep.baseline_total_inner, 7u);
}

TEST(Sweep, SolverErrorsInsideTheEngineStillThrow) {
  // Solver-side validation errors fire inside the sweep's OpenMP regions;
  // the engine must convert them back into normal exceptions rather than
  // letting them terminate the process at the region boundary.
  const auto A = gen::poisson2d(4);
  const la::Vector wrong_b = la::ones(7); // size mismatch vs n = 16
  auto config = small_config();
  EXPECT_THROW((void)experiment::run_injection_sweep(A, wrong_b, config),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::run_baseline(A, wrong_b, config.solver),
               std::invalid_argument);
  config.threads = 3;
  EXPECT_THROW((void)experiment::run_injection_sweep(A, wrong_b, config),
               std::invalid_argument);
}

TEST(Sweep, ZeroStrideThrows) {
  const auto A = gen::poisson2d(4);
  auto config = small_config();
  config.stride = 0;
  EXPECT_THROW(
      (void)experiment::run_injection_sweep(A, la::ones(16), config),
      std::invalid_argument);
}

TEST(Sweep, DetectorWithoutBoundThrows) {
  const auto A = gen::poisson2d(4);
  auto config = small_config();
  config.with_detector = true;
  config.detector_bound = 0.0;
  EXPECT_THROW(
      (void)experiment::run_injection_sweep(A, la::ones(16), config),
      std::invalid_argument);
}

TEST(Sweep, SmallFaultsBarelyPerturbConvergence) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.model = sdc::fault_classes::nearly_zero();
  config.stride = 3;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(sweep.failed_runs(), 0u);
  EXPECT_LE(sweep.max_outer_increase(), 3u);
}

TEST(Sweep, DetectorCatchesAllFiredClass1Faults) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.model = sdc::fault_classes::very_large();
  config.position = sdc::MgsPosition::Last; // diagonal coefficients: nonzero
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  config.stride = 3;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  for (const auto& p : sweep.points) {
    if (p.injected) {
      EXPECT_TRUE(p.detected) << "site " << p.aggregate_iteration;
    }
    EXPECT_TRUE(p.converged) << "site " << p.aggregate_iteration;
  }
  EXPECT_GT(sweep.detected_runs(), 0u);
}

TEST(Sweep, ParallelSweepIsIdenticalToSerial) {
  // The parallel engine must be a pure speedup: same points, same order,
  // same doubles.  Every SweepPoint field participates via operator==.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(49);
  auto config = small_config();
  config.solver.inner.max_iters = 6;
  config.model = sdc::fault_classes::very_large();

  config.threads = 1;
  const auto serial = experiment::run_injection_sweep(A, b, config);
  config.threads = 4;
  const auto parallel = experiment::run_injection_sweep(A, b, config);

  EXPECT_EQ(parallel.baseline_outer, serial.baseline_outer);
  EXPECT_EQ(parallel.baseline_total_inner, serial.baseline_total_inner);
  EXPECT_EQ(parallel.baseline_converged, serial.baseline_converged);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(parallel.points[i], serial.points[i]) << "site index " << i;
  }
}

TEST(Sweep, ParallelSweepIsIdenticalToSerialWithDetector) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.model = sdc::fault_classes::very_large();
  config.position = sdc::MgsPosition::Last;
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();

  config.threads = 1;
  const auto serial = experiment::run_injection_sweep(A, b, config);
  config.threads = 0; // all hardware threads
  const auto parallel = experiment::run_injection_sweep(A, b, config);

  ASSERT_EQ(parallel.points.size(), serial.points.size());
  EXPECT_TRUE(parallel.points == serial.points);
  EXPECT_EQ(parallel.detected_runs(), serial.detected_runs());
}

TEST(Sweep, BatchedSweepIsIdenticalToSolo) {
  // Multi-RHS lockstep batching must be a pure traffic optimization:
  // every SweepPoint of a batch=4 sweep equals the batch=1 run bitwise,
  // for both fault classes and both MGS positions of the paper protocol.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(49);
  const sdc::FaultModel models[] = {sdc::fault_classes::very_large(),
                                    sdc::fault_classes::slightly_smaller()};
  const sdc::MgsPosition positions[] = {sdc::MgsPosition::First,
                                        sdc::MgsPosition::Last};
  for (const auto& model : models) {
    for (const auto position : positions) {
      auto config = small_config();
      config.solver.inner.max_iters = 6;
      config.model = model;
      config.position = position;

      config.batch = 1;
      const auto solo = experiment::run_injection_sweep(A, b, config);
      config.batch = 4;
      const auto batched = experiment::run_injection_sweep(A, b, config);

      EXPECT_EQ(batched.baseline_outer, solo.baseline_outer);
      EXPECT_EQ(batched.baseline_total_inner, solo.baseline_total_inner);
      ASSERT_EQ(batched.points.size(), solo.points.size());
      for (std::size_t i = 0; i < solo.points.size(); ++i) {
        EXPECT_EQ(batched.points[i], solo.points[i]) << "site index " << i;
      }
    }
  }
}

TEST(Sweep, BatchedSweepWithDetectorIsIdenticalToSolo) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  for (const auto response :
       {sdc::DetectorResponse::AbortSolve, sdc::DetectorResponse::RecordOnly}) {
    auto config = small_config();
    config.model = sdc::fault_classes::very_large();
    config.with_detector = true;
    config.detector_bound = A.frobenius_norm();
    config.detector_response = response;

    config.batch = 1;
    const auto solo = experiment::run_injection_sweep(A, b, config);
    config.batch = 3;
    const auto batched = experiment::run_injection_sweep(A, b, config);

    ASSERT_EQ(batched.points.size(), solo.points.size());
    EXPECT_TRUE(batched.points == solo.points);
    EXPECT_EQ(batched.detected_runs(), solo.detected_runs());
    EXPECT_GT(batched.detected_runs(), 0u); // class 1 is detectable
  }
}

TEST(Sweep, BatchedAndThreadedSweepIsIdenticalToSerialSolo) {
  // The two axes compose: threads=N batch=B must still reproduce the
  // serial batch=1 points exactly (each worker's blocks are independent
  // lockstep groups; kernel threading stays pinned).
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.model = sdc::fault_classes::very_large();

  config.threads = 1;
  config.batch = 1;
  const auto reference = experiment::run_injection_sweep(A, b, config);
  for (const std::size_t threads : {1u, 3u}) {
    for (const std::size_t batch : {2u, 5u}) {
      config.threads = threads;
      config.batch = batch;
      const auto run = experiment::run_injection_sweep(A, b, config);
      ASSERT_EQ(run.points.size(), reference.points.size());
      EXPECT_TRUE(run.points == reference.points)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(Sweep, BatchLargerThanSiteCountStillMatchesSolo) {
  // One ragged block covering the whole sweep (batch > n_points) plus an
  // early-dropout mix: sites that converge at different outer counts
  // leave the block at different iterations.
  const auto A = gen::poisson2d(5);
  const la::Vector b = la::ones(25);
  auto config = small_config();
  config.model = sdc::fault_classes::very_large();

  config.batch = 1;
  const auto solo = experiment::run_injection_sweep(A, b, config);
  config.batch = solo.points.size() + 7;
  const auto batched = experiment::run_injection_sweep(A, b, config);
  EXPECT_TRUE(batched.points == solo.points);
}

TEST(Sweep, SummaryCountsAreConsistent) {
  const auto A = gen::poisson2d(5);
  const la::Vector b = la::ones(25);
  auto config = small_config();
  config.stride = 2;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  EXPECT_LE(sweep.unchanged_runs(), sweep.points.size());
  EXPECT_LE(sweep.failed_runs(), sweep.points.size());
  EXPECT_EQ(sweep.detected_runs(), 0u); // no detector attached
}

TEST(Report, Table1ContainsHeadersAndNames) {
  const auto A = gen::poisson2d(5);
  const auto report = experiment::characterize("poisson-5", A,
                                               /*estimate_condition=*/false);
  std::ostringstream out;
  experiment::print_table1(out, {report});
  const std::string text = out.str();
  EXPECT_NE(text.find("TABLE I"), std::string::npos);
  EXPECT_NE(text.find("poisson-5"), std::string::npos);
  EXPECT_NE(text.find("||A||_F"), std::string::npos);
  EXPECT_NE(text.find("symmetric"), std::string::npos);
}

TEST(Report, CharacterizeMatchesMatrixFacts) {
  const auto A = gen::poisson2d(5);
  const auto report = experiment::characterize("p", A, false);
  EXPECT_EQ(report.properties.rows, 25u);
  EXPECT_TRUE(report.positive_definite);
  EXPECT_NEAR(report.frobenius_norm, A.frobenius_norm(), 1e-12);
  EXPECT_GT(report.two_norm_estimate, 0.0);
  EXPECT_EQ(report.condition_estimate, 0.0); // skipped
}

TEST(Report, SweepCsvHasHeaderAndRows) {
  const auto A = gen::poisson2d(4);
  auto config = small_config();
  config.stride = 5;
  const auto sweep =
      experiment::run_injection_sweep(A, la::ones(16), config);
  std::ostringstream out;
  experiment::write_sweep_csv(out, sweep);
  const std::string text = out.str();
  EXPECT_NE(text.find("site,outer_iterations"), std::string::npos);
  // header + one line per point
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, sweep.points.size() + 1);
}

TEST(Report, SeriesAndSummaryDoNotThrow) {
  const auto A = gen::poisson2d(4);
  auto config = small_config();
  config.stride = 5;
  const auto sweep =
      experiment::run_injection_sweep(A, la::ones(16), config);
  std::ostringstream out;
  EXPECT_NO_THROW(experiment::print_sweep_series(out, "title", sweep, 5));
  EXPECT_NO_THROW(experiment::print_sweep_summary(out, "title", sweep));
  EXPECT_NE(out.str().find("failure-free outer iterations"),
            std::string::npos);
}

TEST(SweepValidation, StrideZeroRejectedUpFront) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_config();
  config.stride = 0;
  EXPECT_THROW((void)experiment::run_injection_sweep(A, b, config),
               std::invalid_argument);
  EXPECT_THROW(experiment::validate_sweep_config(config),
               std::invalid_argument);
}

TEST(SweepValidation, ZeroBatchRejectedUpFront) {
  auto config = small_config();
  config.batch = 0;
  EXPECT_THROW(experiment::validate_sweep_config(config),
               std::invalid_argument);
  const auto A = gen::poisson2d(4);
  const la::Vector b = la::ones(16);
  EXPECT_THROW((void)experiment::run_injection_sweep(A, b, config),
               std::invalid_argument);
}

TEST(SweepValidation, DetectorWithoutBoundRejectedUpFront) {
  auto config = small_config();
  config.with_detector = true; // detector_bound stays 0.0
  EXPECT_THROW(experiment::validate_sweep_config(config),
               std::invalid_argument);
  config.detector_bound = -1.0;
  EXPECT_THROW(experiment::validate_sweep_config(config),
               std::invalid_argument);
  config.detector_bound = 50.0;
  EXPECT_NO_THROW(experiment::validate_sweep_config(config));
}

TEST(SweepValidation, ZeroInnerBudgetRejectedUpFront) {
  auto config = small_config();
  config.solver.inner.max_iters = 0; // no injectable sites can exist
  EXPECT_THROW(experiment::validate_sweep_config(config),
               std::invalid_argument);
}

TEST(SweepValidation, ZeroSelectedSitesThrowInsteadOfEmptySweep) {
  // b = 0 converges instantly: zero inner iterations, so the site set is
  // empty for every site_limit/stride combination -- loud failure, not a
  // silent empty SweepResult.
  const auto A = gen::poisson2d(6);
  const la::Vector b(36);
  EXPECT_THROW((void)experiment::run_injection_sweep(A, b, small_config()),
               std::invalid_argument);
}

TEST(Sweep, BatchedSweepCutsMatrixStreamsNotColumns) {
  // The measured-traffic contract of the inner-lockstep engine, at the
  // sweep level: batching leaves the operand-column count (the work)
  // untouched and divides the matrix-stream count (the traffic) by ~batch,
  // while every point stays bitwise identical.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(A.rows());
  auto config = small_config();
  config.model = sdc::FaultModel::scale(1e150);

  const auto solo = experiment::run_injection_sweep(A, b, config);
  config.batch = 4;
  const auto batched = experiment::run_injection_sweep(A, b, config);

  EXPECT_EQ(batched.points, solo.points);
  EXPECT_GT(solo.points[0].inner_applies, 0u);
  EXPECT_EQ(batched.inner_operand_columns(), solo.inner_operand_columns());
  EXPECT_EQ(batched.operator_stats.columns(), solo.operator_stats.columns());
  // The inner solves dominate the columns (inner budget vs one outer
  // product per iteration), which is why inner-level lockstep matters.
  EXPECT_GT(2 * solo.inner_operand_columns(),
            solo.operator_stats.columns());
  EXPECT_EQ(solo.operator_stats.apply_block_calls, 0u);
  EXPECT_GT(batched.operator_stats.apply_block_calls, 0u);
  EXPECT_LT(2 * batched.operator_stats.streams(),
            solo.operator_stats.streams());
}

TEST(Sweep, AbortingDetectorUnderThreadsAndBatchStaysIdentical) {
  // threads=N batch=B == serial batch=1 with an inner-abort-inducing
  // fault model: class-1 faults exceed ||A||_F, so the abort-response
  // detector terminates inner solves mid-block at many sites.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  auto config = small_config();
  config.model = sdc::FaultModel::scale(1e150);
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  config.detector_response = sdc::DetectorResponse::AbortSolve;

  const auto serial = experiment::run_injection_sweep(A, b, config);
  EXPECT_GT(serial.detected_runs(), 0u);

  config.threads = 3;
  config.batch = 3;
  const auto batched = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(batched.points, serial.points);
  EXPECT_EQ(batched.baseline_outer, serial.baseline_outer);
  EXPECT_EQ(batched.baseline_total_inner, serial.baseline_total_inner);
}

TEST(Sweep, RetryReliableHealsEveryDetectedSiteAndStaysIdentical) {
  // retry_reliable under threads+batch: the healed sweep is bitwise
  // identical to serial AND every detected site converges in the
  // failure-free outer count (the whole point of the policy).
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  auto config = small_config();
  config.model = sdc::FaultModel::scale(1e150);
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  config.detector_response = sdc::DetectorResponse::RetryReliable;

  const auto serial = experiment::run_injection_sweep(A, b, config);
  EXPECT_GT(serial.detected_runs(), 0u);
  EXPECT_EQ(serial.retried_reliable(), serial.detected_runs());
  EXPECT_EQ(serial.max_outer_increase(), 0u);
  EXPECT_EQ(serial.failed_runs(), 0u);

  config.threads = 3;
  config.batch = 3;
  const auto batched = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(batched.points, serial.points);
  EXPECT_EQ(batched.baseline_outer, serial.baseline_outer);
  EXPECT_EQ(batched.baseline_total_inner, serial.baseline_total_inner);
}

TEST(Sweep, RestartOuterUnderThreadsAndBatchStaysIdentical) {
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  auto config = small_config();
  config.model = sdc::FaultModel::scale(1e150);
  config.with_detector = true;
  config.detector_bound = A.frobenius_norm();
  config.detector_response = sdc::DetectorResponse::RestartOuter;

  const auto serial = experiment::run_injection_sweep(A, b, config);
  EXPECT_GT(serial.detected_runs(), 0u);
  EXPECT_EQ(serial.restarted_outer(), serial.detected_runs());

  config.threads = 3;
  config.batch = 3;
  const auto batched = experiment::run_injection_sweep(A, b, config);
  EXPECT_EQ(batched.points, serial.points);
  EXPECT_EQ(batched.baseline_outer, serial.baseline_outer);
  EXPECT_EQ(batched.baseline_total_inner, serial.baseline_total_inner);
}

TEST(Sweep, ForkedSitesMatchSolvesFromScratch) {
  // Every site starts at the last outer boundary of the recorded
  // failure-free run before it; that must be the same solve, bit for bit,
  // as a per-site solve from zero with its own campaign and detector.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  const sdc::DetectorResponse responses[] = {
      sdc::DetectorResponse::RetryReliable,
      sdc::DetectorResponse::RestartOuter};
  for (const sdc::DetectorResponse response : responses) {
    auto config = small_config();
    config.model = sdc::FaultModel::scale(1e150);
    config.with_detector = true;
    config.detector_bound = A.frobenius_norm();
    config.detector_response = response;
    const auto solo = experiment::run_injection_sweep(A, b, config);
    const auto scratch =
        solve_sites_from_scratch(A, b, config, solo.points.size());
    EXPECT_GT(solo.detected_runs(), 0u);
    expect_points_bitwise(solo.points, scratch);
    config.batch = 4;
    const auto batched = experiment::run_injection_sweep(A, b, config);
    expect_points_bitwise(batched.points, scratch);
    // The forked sites skip their prefixes: fewer operand columns than
    // the points' own inner applies account for, at any batch.
    EXPECT_LT(solo.operator_stats.columns(), solo.inner_operand_columns());
    EXPECT_EQ(batched.operator_stats.columns(), solo.operator_stats.columns());
    // A retried site is back on the baseline and ends at its rejoin; a
    // restarted outer cycle never returns to it.
    const std::size_t fork_only = fork_only_columns(A, b, config);
    if (response == sdc::DetectorResponse::RetryReliable) {
      EXPECT_LT(solo.operator_stats.columns(), fork_only);
    } else {
      EXPECT_EQ(solo.operator_stats.columns(), fork_only);
    }
  }
}

TEST(Sweep, ForkedSitesMatchSolvesFromScratchOnEveryAxis) {
  // The fork and the rejoin on the s-step inner mode with power faults,
  // the float/int32 inner plane and the SELL backend, each at batch 1/4
  // and threads 1/2: every point as from scratch, every site that a retry
  // put back on the baseline ending there.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  auto base = small_config();
  base.model = sdc::FaultModel::scale(1e150);
  base.with_detector = true;
  base.detector_bound = A.frobenius_norm();
  base.detector_response = sdc::DetectorResponse::RetryReliable;

  std::vector<std::pair<std::string, experiment::SweepConfig>> axes;
  auto powers = base;
  powers.solver.inner.max_iters = 8;
  powers.solver.inner.s_step = 4;
  powers.target = sdc::InjectionTarget::PowerElement;
  axes.emplace_back("s=4 fault_target=powers", powers);
  auto narrow = base;
  narrow.solver.precision = krylov::Precision::Float;
  narrow.solver.index_width = krylov::IndexWidth::I32;
  axes.emplace_back("precision=float index=32", narrow);
  auto sell = base;
  sell.backend_key = "sell";
  axes.emplace_back("backend=sell", sell);

  for (auto& [label, config] : axes) {
    SCOPED_TRACE(label);
    const auto one = experiment::run_injection_sweep(A, b, config);
    const auto scratch =
        solve_sites_from_scratch(A, b, config, one.points.size());
    EXPECT_GT(one.retried_reliable(), 0u);
    expect_points_bitwise(one.points, scratch);
    EXPECT_LT(one.operator_stats.columns(), fork_only_columns(A, b, config));
    for (const std::size_t batch : {1u, 4u}) {
      for (const std::size_t threads : {1u, 2u}) {
        if (batch == 1 && threads == 1) continue;
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        auto variant = config;
        variant.batch = batch;
        variant.threads = threads;
        const auto run = experiment::run_injection_sweep(A, b, variant);
        expect_points_bitwise(run.points, scratch);
        EXPECT_EQ(run.operator_stats.columns(), one.operator_stats.columns());
      }
    }
  }
}

TEST(Sweep, DetectorFiringInTheBaselineLimitsTheFork) {
  // A bound below ||A||_2 fires in the failure-free run itself (here
  // first in outer iteration 3 of 6).  Sites may only fork from
  // boundaries up to that iteration: a later boundary would drop the
  // detection (detected) or the retry it triggers.  The baseline fields
  // still describe the hook-free run.
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(A.rows());
  const sdc::DetectorResponse responses[] = {
      sdc::DetectorResponse::RecordOnly,
      sdc::DetectorResponse::RetryReliable};
  for (const sdc::DetectorResponse response : responses) {
    auto config = small_config();
    config.model = sdc::FaultModel::scale(2.0);
    config.with_detector = true;
    config.detector_bound = 5.5;
    config.detector_response = response;
    config.batch = 4;
    const auto sweep = experiment::run_injection_sweep(A, b, config);
    const auto direct = experiment::run_baseline(A, b, config.solver);
    EXPECT_EQ(sweep.baseline_outer, direct.outer_iterations);
    EXPECT_EQ(sweep.baseline_total_inner, direct.total_inner_iterations);
    EXPECT_EQ(sweep.baseline_global_syncs, direct.global_syncs);
    EXPECT_EQ(sweep.detected_runs(), sweep.points.size());
    expect_points_bitwise(
        sweep.points,
        solve_sites_from_scratch(A, b, config, sweep.points.size()));
  }

  // A class-1 fault before outer iteration 3 is caught and retried, which
  // puts its site back on the recorded run before the baseline's own
  // detection: it rejoins there, and the recording supplies that
  // detection's retry.
  auto config = small_config();
  config.model = sdc::FaultModel::scale(1e150);
  config.with_detector = true;
  config.detector_bound = 5.5;
  config.detector_response = sdc::DetectorResponse::RetryReliable;
  config.batch = 4;
  const auto sweep = experiment::run_injection_sweep(A, b, config);
  expect_points_bitwise(
      sweep.points,
      solve_sites_from_scratch(A, b, config, sweep.points.size()));
  EXPECT_LT(sweep.operator_stats.columns(), fork_only_columns(A, b, config));
  const std::size_t early = 3 * config.solver.inner.max_iters;
  for (std::size_t i = 0; i * config.stride < early; ++i) {
    EXPECT_TRUE(sweep.points[i].detected);
    EXPECT_GE(sweep.points[i].reliable_retries, 2u)
        << "site " << i << ": its own retry and the baseline's";
  }

  // A fault that changes nothing (scale 1) leaves its site on the recording
  // with its detector silent.  Rejoining before the baseline's detection
  // would lose that detection from the point, so such a site may only
  // rejoin after it.
  config.model = sdc::FaultModel::scale(1.0);
  for (const sdc::DetectorResponse response :
       {sdc::DetectorResponse::RecordOnly,
        sdc::DetectorResponse::RetryReliable}) {
    config.detector_response = response;
    const auto unchanged = experiment::run_injection_sweep(A, b, config);
    EXPECT_EQ(unchanged.detected_runs(), unchanged.points.size());
    expect_points_bitwise(
        unchanged.points,
        solve_sites_from_scratch(A, b, config, unchanged.points.size()));
    EXPECT_LT(unchanged.operator_stats.columns(),
              fork_only_columns(A, b, config));
  }
}
