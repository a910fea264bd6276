/// \file experiment_scenario_test.cpp
/// \brief The spec parser and the config-driven scenario runner: parse /
/// round-trip / error behaviour, and equality of spec-driven runs with
/// their hand-assembled equivalents.

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "experiment/scenario.hpp"
#include "experiment/scenario_spec.hpp"
#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "la/blas1.hpp"
#include "solver/solver.hpp"

namespace experiment = sdcgmres::experiment;
namespace solver = sdcgmres::solver;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace sdc = sdcgmres::sdc;
namespace la = sdcgmres::la;
using experiment::ScenarioSpec;

// ---------------------------------------------------------------------------
// ScenarioSpec parser
// ---------------------------------------------------------------------------

TEST(ScenarioSpec, ParsesAndRoundTrips) {
  const auto spec =
      ScenarioSpec::parse("  solver=ft_gmres  n=40\tfault=scale:1e150 ");
  EXPECT_EQ(spec.get("solver"), "ft_gmres");
  EXPECT_EQ(spec.get_size("n", 0), 40u);
  EXPECT_EQ(spec.get("fault"), "scale:1e150"); // ':' survives in values
  EXPECT_EQ(spec.to_string(), "solver=ft_gmres n=40 fault=scale:1e150");

  // Round-trip: parse(to_string(s)) == s.
  const auto again = ScenarioSpec::parse(spec.to_string());
  EXPECT_EQ(again.to_string(), spec.to_string());
}

TEST(ScenarioSpec, LaterAssignmentsOverride) {
  auto spec = ScenarioSpec::parse("n=10 n=20");
  EXPECT_EQ(spec.get_size("n", 0), 20u);
  spec.merge(ScenarioSpec::parse("n=30 tol=1e-6"));
  EXPECT_EQ(spec.get_size("n", 0), 30u);
  EXPECT_EQ(spec.get_double("tol", 0.0), 1e-6);
  // Order is preserved: n first (where it was first assigned).
  EXPECT_EQ(spec.keys().front(), "n");
}

TEST(ScenarioSpec, TypedAccessorsValidate) {
  const auto spec =
      ScenarioSpec::parse("n=ten tol=fast flag=maybe ok=7 neg=-5");
  EXPECT_EQ(spec.get_size("ok", 0), 7u);
  EXPECT_EQ(spec.get_size("absent", 3), 3u);
  EXPECT_THROW((void)spec.get_size("n", 0), std::invalid_argument);
  // std::stoull would silently wrap a negative value to ~1.8e19.
  EXPECT_THROW((void)spec.get_size("neg", 0), std::invalid_argument);
  EXPECT_EQ(spec.get_double("neg", 0.0), -5.0); // doubles may be negative
  EXPECT_THROW((void)spec.get_double("tol", 0.0), std::invalid_argument);
  EXPECT_THROW((void)spec.get_bool("flag", false), std::invalid_argument);
}

TEST(ScenarioSpec, MalformedTokensThrow) {
  EXPECT_THROW((void)ScenarioSpec::parse("novalue"), std::invalid_argument);
  EXPECT_THROW((void)ScenarioSpec::parse("=value"), std::invalid_argument);
  EXPECT_NO_THROW((void)ScenarioSpec::parse("empty="));
  EXPECT_NO_THROW((void)ScenarioSpec::parse(""));
}

TEST(ScenarioSpec, UnknownKeyValidationListsKnownKeys) {
  const auto spec = ScenarioSpec::parse("solver=gmres positon=first");
  try {
    experiment::validate_scenario_keys(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("positon"), std::string::npos);
    EXPECT_NE(what.find("position"), std::string::npos) << what;
    EXPECT_NE(what.find("matrix"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Scenario runner: single solves
// ---------------------------------------------------------------------------

TEST(Scenario, SingleSolveMatchesDirectCallBitwise) {
  const auto result = experiment::run_scenario(
      "solver=gmres matrix=poisson n=8 restart=20 max_iters=200");

  const auto A = gen::poisson2d(8);
  krylov::GmresOptions opts;
  opts.restart = 20;
  opts.max_iters = 200;
  const auto direct = krylov::gmres(A, la::ones(A.rows()), opts);

  EXPECT_EQ(result.report.status, direct.status);
  EXPECT_EQ(result.report.iterations, direct.iterations);
  EXPECT_EQ(result.report.residual_norm, direct.residual_norm);
  ASSERT_EQ(result.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i) {
    EXPECT_EQ(result.x[i], direct.x[i]);
  }
}

TEST(Scenario, FaultAndDetectorWireUp) {
  // A class-1 fault at site 3 must fire and the bound detector must see
  // it (the detector is chained after the campaign).
  const auto result = experiment::run_scenario(
      "solver=ft_gmres matrix=poisson n=8 inner=6 fault=class1 site=3 "
      "position=first detector=bound response=record");
  EXPECT_TRUE(result.injected);
  EXPECT_TRUE(result.detected);
  EXPECT_TRUE(result.report.converged());
}

TEST(Scenario, HookOnHooklessSolverThrows) {
  EXPECT_THROW((void)experiment::run_scenario(
                   "solver=cg matrix=poisson n=6 fault=class1"),
               std::invalid_argument);
}

TEST(Scenario, UnknownNamesFailLoudly) {
  EXPECT_THROW((void)experiment::run_scenario("solver=bicgstab n=6"),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::run_scenario("matrix=hilbert n=6"),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::run_scenario("precond=ssor n=6"),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::run_scenario("rhs=zeros n=6"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scenario runner: sweeps
// ---------------------------------------------------------------------------

TEST(Scenario, SweepFromSpecEqualsHandAssembledSweep) {
  const auto spec = ScenarioSpec::parse(
      "solver=ft_gmres matrix=poisson n=6 inner=5 max_iters=120 sweep=1 "
      "fault=class1 position=first stride=2");
  const auto from_spec = experiment::run_injection_sweep(spec);

  const auto A = gen::poisson2d(6);
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 5;
  config.solver.outer.max_outer = 120;
  config.position = sdc::MgsPosition::First;
  config.model = sdc::fault_classes::very_large();
  config.stride = 2;
  const auto direct =
      experiment::run_injection_sweep(A, la::ones(A.rows()), config);

  EXPECT_EQ(from_spec.baseline_outer, direct.baseline_outer);
  EXPECT_EQ(from_spec.baseline_total_inner, direct.baseline_total_inner);
  EXPECT_EQ(from_spec.points, direct.points);
}

TEST(Scenario, RunScenarioSweepModeReturnsSweep) {
  const auto result = experiment::run_scenario(
      "matrix=poisson n=6 inner=5 sweep=1 fault=class1 site_limit=5");
  EXPECT_TRUE(result.is_sweep);
  EXPECT_EQ(result.sweep.points.size(), 5u);
  EXPECT_GT(result.sweep.baseline_total_inner, 5u);
}

TEST(Scenario, SweepSpecValidation) {
  // Sweeps are the nested solver's protocol.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "solver=gmres matrix=poisson n=6 sweep=1")),
               std::invalid_argument);
  // A sweep without a fault is meaningless.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 fault=none")),
               std::invalid_argument);
  // Detector bound must be positive.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 detector=bound bound=-2")),
               std::invalid_argument);
  // stride=0 is rejected before any solve runs.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 stride=0")),
               std::invalid_argument);
}

TEST(Scenario, ThreadedSweepFromSpecIdenticalToSerial) {
  const char* base =
      "matrix=poisson n=6 inner=5 sweep=1 fault=class1 position=last";
  auto serial = ScenarioSpec::parse(base);
  serial.set("threads", "1");
  auto threaded = ScenarioSpec::parse(base);
  threaded.set("threads", "2");
  const auto a = experiment::run_injection_sweep(serial);
  const auto b = experiment::run_injection_sweep(threaded);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.baseline_outer, b.baseline_outer);
}

TEST(Scenario, BatchKeyDrivesLockstepSweepIdenticalToSolo) {
  const char* base =
      "matrix=poisson n=6 inner=5 sweep=1 fault=class1 position=first";
  auto solo = ScenarioSpec::parse(base);
  solo.set("batch", "1");
  auto batched = ScenarioSpec::parse(base);
  batched.set("batch", "4");
  batched.set("threads", "2");
  const auto a = experiment::run_injection_sweep(solo);
  const auto b = experiment::run_injection_sweep(batched);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.baseline_outer, b.baseline_outer);
  // batch=0 is rejected before any solve runs.
  auto zero = ScenarioSpec::parse(base);
  zero.set("batch", "0");
  EXPECT_THROW((void)experiment::run_injection_sweep(zero),
               std::invalid_argument);
  // solver=ft_gmres_batch promises batching: a sweep without an explicit
  // batch=B is rejected instead of silently running solo solves.
  auto named = ScenarioSpec::parse(base);
  named.set("solver", "ft_gmres_batch");
  EXPECT_THROW((void)experiment::run_injection_sweep(named),
               std::invalid_argument);
  named.set("batch", "3");
  const auto c = experiment::run_injection_sweep(named);
  EXPECT_EQ(c.points, a.points);
}

TEST(Scenario, BatchedSolverRunsSingleSolveMode) {
  // ft_gmres_batch is a full registry citizen: single-solve scenarios run
  // it as a batch of one, matching ft_gmres exactly.
  const auto batched = experiment::run_scenario(
      "solver=ft_gmres_batch matrix=poisson n=6 inner=5");
  const auto solo =
      experiment::run_scenario("solver=ft_gmres matrix=poisson n=6 inner=5");
  EXPECT_TRUE(batched.report.converged());
  EXPECT_EQ(batched.report.iterations, solo.report.iterations);
  EXPECT_EQ(batched.report.residual_norm, solo.report.residual_norm);
  ASSERT_EQ(batched.x.size(), solo.x.size());
  for (std::size_t i = 0; i < solo.x.size(); ++i) {
    ASSERT_EQ(batched.x[i], solo.x[i]) << "x[" << i << "]";
  }
}

TEST(Scenario, SweepRangeValidationIsUpFrontAndListsRanges) {
  // batch=0 / inner=0 and negative values fail inside
  // sweep_config_from_spec itself -- before any matrix is built or solve
  // runs -- with messages naming the offending key and the valid range.
  const auto expect_range_throw = [](const char* spec_text, const char* key) {
    const auto spec = ScenarioSpec::parse(spec_text);
    try {
      (void)experiment::sweep_config_from_spec(spec, /*frobenius_norm=*/1.0);
      FAIL() << "expected std::invalid_argument for " << spec_text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  };
  expect_range_throw("matrix=poisson n=6 sweep=1 fault=class1 batch=0",
                     "batch");
  expect_range_throw("matrix=poisson n=6 sweep=1 fault=class1 batch=-4",
                     "batch");
  expect_range_throw("matrix=poisson n=6 sweep=1 fault=class1 inner=0",
                     "inner");
  expect_range_throw("matrix=poisson n=6 sweep=1 fault=class1 inner=-25",
                     "inner");
  // The zero cases state what IS valid.
  try {
    (void)experiment::sweep_config_from_spec(
        ScenarioSpec::parse("matrix=poisson n=6 sweep=1 fault=class1 inner=0"),
        1.0);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("inner >= 1"), std::string::npos)
        << e.what();
  }
  try {
    (void)experiment::sweep_config_from_spec(
        ScenarioSpec::parse("matrix=poisson n=6 sweep=1 fault=class1 batch=0"),
        1.0);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch >= 1"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Resilient sweep runtime keys: guards, recovery, journal, workers.
// ---------------------------------------------------------------------------

TEST(Scenario, GuardKeysReachTheSolverOptions) {
  const auto opts = experiment::solver_options_from_spec(
      ScenarioSpec::parse("deadline=2.5 divergence=50"));
  EXPECT_DOUBLE_EQ(opts.deadline_seconds, 2.5);
  EXPECT_DOUBLE_EQ(opts.divergence_factor, 50.0);
  // Negative guard values are rejected with the valid range.
  EXPECT_THROW((void)experiment::solver_options_from_spec(
                   ScenarioSpec::parse("deadline=-1")),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::solver_options_from_spec(
                   ScenarioSpec::parse("divergence=-3")),
               std::invalid_argument);
}

TEST(ScenarioSpec, NonFiniteNumbersAreRejectedNamingTheKey) {
  // nan passes every "< 0" range check and inf overflows the deadline's
  // duration cast, so neither may reach a solver or a shard watchdog.
  for (const char* text : {"deadline=inf", "deadline=nan", "divergence=nan",
                           "tol=nan", "tol=inf", "inner_tol=-inf"}) {
    try {
      (void)experiment::solver_options_from_spec(ScenarioSpec::parse(text));
      FAIL() << text << ": expected a throw";
    } catch (const std::invalid_argument& e) {
      const std::string key(text, std::string(text).find('='));
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)experiment::shard_options_from_spec(
                   ScenarioSpec::parse("workers=2 worker_timeout=inf")),
               std::invalid_argument);
}

TEST(Scenario, NegativeTolerancesAreRejected) {
  // A negative target is never met: the solve would silently run out its
  // budget and report max-iterations.
  for (const char* text : {"tol=-1", "inner_tol=-1e-3"}) {
    EXPECT_THROW((void)experiment::solver_options_from_spec(
                     ScenarioSpec::parse(text)),
                 std::invalid_argument)
        << text;
  }
  const auto opts = experiment::solver_options_from_spec(
      ScenarioSpec::parse("tol=0 inner_tol=0"));
  EXPECT_EQ(opts.tol, 0.0);
  EXPECT_EQ(opts.inner_tol, 0.0);
}

TEST(Scenario, RecoveryKeyNeedsADetector) {
  // A recovery mode nothing can trigger would silently run unprotected.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 fault=class1 "
                   "recovery=retry_reliable")),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::run_scenario(
                   "matrix=poisson n=6 recovery=retry_reliable"),
               std::invalid_argument);
  // Unknown recovery names list the registered modes.
  try {
    (void)experiment::run_injection_sweep(ScenarioSpec::parse(
        "matrix=poisson n=6 sweep=1 fault=class1 detector=bound "
        "recovery=bogus"));
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("retry_reliable"),
              std::string::npos)
        << e.what();
  }
}

TEST(Scenario, RecoveryKeyDrivesDetectorTriggeredRecovery) {
  // retry_reliable heals every detected class-1 fault back to the
  // failure-free outer count; with plain abort some sites pay extra outer
  // iterations.  The counters surface through SweepResult.
  const char* base =
      "matrix=poisson n=6 inner=5 sweep=1 fault=class1 detector=bound";
  auto retry = ScenarioSpec::parse(base);
  retry.set("recovery", "retry_reliable");
  const auto sweep = experiment::run_injection_sweep(retry);
  EXPECT_GT(sweep.detected_runs(), 0u);
  EXPECT_EQ(sweep.retried_reliable(), sweep.detected_runs());
  EXPECT_EQ(sweep.max_outer_increase(), 0u);
  EXPECT_EQ(sweep.unchanged_runs(), sweep.points.size());

  auto restart = ScenarioSpec::parse(base);
  restart.set("recovery", "restart_outer");
  const auto restarted = experiment::run_injection_sweep(restart);
  EXPECT_EQ(restarted.restarted_outer(), restarted.detected_runs());
  EXPECT_EQ(restarted.failed_runs(), 0u);
}

TEST(Scenario, ResumeWithoutJournalIsRejected) {
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 fault=class1 resume=1")),
               std::invalid_argument);
}

TEST(Scenario, WorkerKeysValidate) {
  EXPECT_THROW((void)experiment::shard_options_from_spec(
                   ScenarioSpec::parse("workers=0")),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::shard_options_from_spec(
                   ScenarioSpec::parse("workers=2 worker_timeout=-1")),
               std::invalid_argument);
  const auto shard = experiment::shard_options_from_spec(
      ScenarioSpec::parse("workers=3 worker_timeout=2.5"));
  EXPECT_EQ(shard.workers, 3u);
  EXPECT_DOUBLE_EQ(shard.worker_timeout_seconds, 2.5);
  // Sharding requires a journal: the merged result derives from it.
  EXPECT_THROW((void)experiment::run_injection_sweep(ScenarioSpec::parse(
                   "matrix=poisson n=6 sweep=1 fault=class1 workers=2")),
               std::invalid_argument);
}

TEST(Scenario, ParallelismKeysAreCappedBeforeAnythingStarts) {
  // Parse only: no thread or process is started by these calls.
  const char* sweep = "sweep=1 fault=class1 ";
  EXPECT_THROW((void)experiment::sweep_config_from_spec(
                   ScenarioSpec::parse(std::string(sweep) + "threads=257"),
                   1.0),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::sweep_config_from_spec(
                   ScenarioSpec::parse(std::string(sweep) +
                                       "threads=4000000000"),
                   1.0),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::shard_options_from_spec(
                   ScenarioSpec::parse("workers=257")),
               std::invalid_argument);
  EXPECT_THROW((void)experiment::shard_options_from_spec(
                   ScenarioSpec::parse("workers=4000000000")),
               std::invalid_argument);
  EXPECT_EQ(experiment::sweep_config_from_spec(
                ScenarioSpec::parse(std::string(sweep) + "threads=256"), 1.0)
                .threads,
            256u);
  EXPECT_EQ(experiment::shard_options_from_spec(
                ScenarioSpec::parse("workers=256"))
                .workers,
            256u);
}

TEST(Scenario, BatchAboveTheSiteCountMatchesSoloSolves) {
  // The iterate buffers are sized by the pending points, not by batch, so
  // a batch far beyond the 5-site sweep allocates nothing extra.
  const char* base =
      "matrix=poisson n=6 inner=5 site_limit=5 sweep=1 fault=class1";
  auto solo = ScenarioSpec::parse(base);
  solo.set("batch", "1");
  auto huge = ScenarioSpec::parse(base);
  huge.set("batch", "100000");
  const auto a = experiment::run_injection_sweep(solo);
  const auto b = experiment::run_injection_sweep(huge);
  ASSERT_EQ(a.points.size(), 5u);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.operator_stats.columns(), b.operator_stats.columns());
}

TEST(Scenario, MtxErrorsNameThePath) {
  try {
    (void)experiment::run_scenario("matrix=mtx:/no/such/file.mtx");
    FAIL() << "expected a throw";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/no/such/file.mtx"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// ScenarioSpec::parse_file (job-file parsing: duplicates are errors)
// ---------------------------------------------------------------------------

namespace {

std::string spec_file(const char* name, const std::string& body) {
  const std::string path = testing::TempDir() + "sdcgmres_spec_" + name +
                           "_" + std::to_string(::getpid()) + ".spec";
  std::ofstream(path, std::ios::trunc) << body;
  return path;
}

} // namespace

TEST(ScenarioSpecFile, ParsesMultiLineSpecsWithComments) {
  const std::string path = spec_file("ok",
                                     "# a queued job\n"
                                     "matrix=poisson n=20   # inline note\n"
                                     "\n"
                                     "  inner=10 sweep=1\n");
  const auto spec = ScenarioSpec::parse_file(path);
  EXPECT_EQ(spec.to_string(), "matrix=poisson n=20 inner=10 sweep=1");
}

TEST(ScenarioSpecFile, RejectsDuplicateKeysWithBothLineNumbers) {
  const std::string path = spec_file("dup",
                                     "matrix=poisson\n"
                                     "n=20\n"
                                     "n=40\n");
  try {
    (void)ScenarioSpec::parse_file(path);
    FAIL() << "duplicate key must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("duplicate key 'n' at line 3"), std::string::npos);
    EXPECT_NE(what.find("first assigned at line 2"), std::string::npos);
  }
}

TEST(ScenarioSpecFile, RejectsMalformedTokensWithLineNumber) {
  const std::string path = spec_file("tok", "matrix=poisson\ngarbage\n");
  try {
    (void)ScenarioSpec::parse_file(path);
    FAIL() << "a token without '=' must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'garbage' at line 2"), std::string::npos);
  }
}

TEST(ScenarioSpecFile, UnreadableFileThrowsWithPath) {
  const std::string path = testing::TempDir() + "sdcgmres_spec_absent_" +
                           std::to_string(::getpid()) + ".spec";
  try {
    (void)ScenarioSpec::parse_file(path);
    FAIL() << "a missing spec file must be an error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(ScenarioSpecFile, CommandLineParseStillMergesLastWins) {
  // The contrast that justifies parse_file's strictness: on a command
  // line, a later token deliberately overrides an earlier one.
  const auto spec = ScenarioSpec::parse("n=20 n=40");
  EXPECT_EQ(spec.get_size("n", 0), 40u);
}
