#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "experiment/journal.hpp"
#include "experiment/shard.hpp"
#include "experiment/sweep.hpp"
#include "gen/poisson.hpp"
#include "la/blas1.hpp"

namespace experiment = sdcgmres::experiment;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

std::string journal_path(const char* name) {
  return testing::TempDir() + "sdcgmres_shard_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

experiment::SweepConfig small_sweep_config(const std::string& journal) {
  experiment::SweepConfig config;
  config.solver.inner.max_iters = 5;
  config.solver.outer.tol = 1e-8;
  config.solver.outer.max_outer = 120;
  config.journal = journal;
  return config;
}

void remove_journals(const std::string& path) {
  std::remove(path.c_str());
  for (int r = 0; r < 4; ++r) {
    std::remove((path + ".range" + std::to_string(r)).c_str());
  }
}

/// The header a journal of \p serial's sweep carries (stride 1, no limit).
experiment::SweepJournalHeader header_of(
    const experiment::SweepResult& serial) {
  return {.version = 2,
          .baseline_outer = serial.baseline_outer,
          .baseline_total_inner = serial.baseline_total_inner,
          .baseline_converged = serial.baseline_converged,
          .n_points = serial.points.size(),
          .stride = 1,
          .site_limit = 0};
}

void expect_identical(const experiment::SweepResult& a,
                      const experiment::SweepResult& b) {
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.baseline_outer, b.baseline_outer);
  EXPECT_EQ(a.baseline_total_inner, b.baseline_total_inner);
  EXPECT_EQ(a.baseline_converged, b.baseline_converged);
}

} // namespace

TEST(ShardedSweep, MatchesSerialResultBitwise) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  experiment::SweepConfig serial_config = small_sweep_config("");
  const auto serial = experiment::run_injection_sweep(A, b, serial_config);

  const std::string path = journal_path("plain");
  experiment::ShardOptions shard;
  shard.workers = 3;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_EQ(report.ranges, 3u);
  EXPECT_EQ(report.worker_crashes, 0u);
  // The merged journal holds every point.
  const auto contents = experiment::SweepJournal::load(path);
  EXPECT_TRUE(contents.has_header);
  EXPECT_EQ(contents.points.size(), serial.points.size());
  std::remove(path.c_str());
}

TEST(ShardedSweep, Kill9MidRangeStillMatchesSerialBitwise) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  // Drill: range 1's first-attempt worker SIGKILLs itself after
  // journaling 3 points -- a crash the parent must observe, re-queue, and
  // heal by resuming the range journal.  The retry skips the 3 journaled
  // points, so the final result exercises the resume path too.
  const std::string path = journal_path("kill9");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.drill.range = 1;
  shard.drill.after_points = 3;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_GE(report.worker_crashes, 1u);
  EXPECT_GE(report.ranges_requeued, 1u);
  std::remove(path.c_str());
}

TEST(ShardedSweep, StalledWorkerIsKilledByTheDeadlineAndHealed) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  // Drill: range 0's first attempt hangs forever after journaling one
  // point.  Only the worker_timeout deadline can unstick the sweep.
  const std::string path = journal_path("stall");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.worker_timeout_seconds = 1.0;
  shard.drill.range = 0;
  shard.drill.after_points = 1;
  shard.drill.stall = true;
  experiment::ShardReport report;
  const auto sharded = experiment::run_sharded_sweep(
      A, b, small_sweep_config(path), shard, &report);

  expect_identical(sharded, serial);
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_GE(report.ranges_requeued, 1u);
  std::remove(path.c_str());
}

TEST(ShardedSweep, RetryExhaustionFailsLoudly) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  // Drill every attempt: the range can never complete, so after the
  // fixed retry cap the sweep must throw instead of spinning forever.
  const std::string path = journal_path("exhaust");
  experiment::ShardOptions shard;
  shard.workers = 2;
  shard.drill.range = 0;
  shard.drill.after_points = 0;
  shard.drill.every_attempt = true;
  EXPECT_THROW((void)experiment::run_sharded_sweep(
                   A, b, small_sweep_config(path), shard),
               std::runtime_error);
  // Clean up whatever journals the aborted run left behind.
  std::remove(path.c_str());
  std::remove((path + ".range0").c_str());
  std::remove((path + ".range1").c_str());
}

TEST(ShardedSweep, RequiresAJournalPath) {
  const auto A = gen::poisson2d(4);
  const la::Vector b = la::ones(16);
  experiment::ShardOptions shard;
  EXPECT_THROW((void)experiment::run_sharded_sweep(
                   A, b, small_sweep_config(""), shard),
               std::invalid_argument);
}

TEST(ShardedSweep, MoreWorkersThanPointsClampsToThePointCount) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);

  auto config = small_sweep_config(journal_path("clamp"));
  config.site_limit = 3; // 3 points only
  const auto serial_config = [&] {
    auto c = config;
    c.journal.clear();
    return c;
  }();
  const auto serial = experiment::run_injection_sweep(A, b, serial_config);

  experiment::ShardOptions shard;
  shard.workers = 16;
  experiment::ShardReport report;
  const auto sharded =
      experiment::run_sharded_sweep(A, b, config, shard, &report);
  expect_identical(sharded, serial);
  EXPECT_EQ(report.ranges, 3u);
  std::remove(config.journal.c_str());
}

TEST(ShardedSweep, TrafficColumnsMatchTheInProcessSweepAtBatch4) {
  // Operand columns are the work, the same however the sites are grouped
  // into lockstep blocks or worker processes.
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  auto config = small_sweep_config("");
  config.batch = 4;
  const auto in_process = experiment::run_injection_sweep(A, b, config);

  config.journal = journal_path("traffic4");
  experiment::ShardOptions shard;
  shard.workers = 3;
  const auto sharded = experiment::run_sharded_sweep(A, b, config, shard);
  expect_identical(sharded, in_process);
  EXPECT_GT(in_process.operator_stats.columns(), 0u);
  EXPECT_EQ(sharded.operator_stats.columns(),
            in_process.operator_stats.columns());
  remove_journals(config.journal);
}

TEST(ShardedSweep, TrafficMatchesTheInProcessSweepAtBatch1) {
  // At batch 1 every site streams the matrix on its own, so every counter
  // is a per-site sum -- also when a worker dies and its range resumes.
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const auto in_process =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));
  for (const bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "drill-killed worker" : "no crash");
    const std::string path = journal_path(crash ? "traffic1_kill" : "traffic1");
    experiment::ShardOptions shard;
    shard.workers = 2;
    if (crash) {
      shard.drill.range = 1;
      shard.drill.after_points = 3;
    }
    experiment::ShardReport report;
    const auto sharded = experiment::run_sharded_sweep(
        A, b, small_sweep_config(path), shard, &report);
    expect_identical(sharded, in_process);
    EXPECT_EQ(report.worker_crashes, crash ? 1u : 0u);
    EXPECT_GT(sharded.operator_stats.bytes(), 0u);
    EXPECT_EQ(sharded.operator_stats, in_process.operator_stats);
    remove_journals(path);
  }
}

TEST(ShardedSweep, InProcessResumeOfAShardedJournalRestoresItsTraffic) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const std::string path = journal_path("resume_traffic");
  experiment::ShardOptions shard;
  shard.workers = 3;
  const auto sharded =
      experiment::run_sharded_sweep(A, b, small_sweep_config(path), shard);

  auto config = small_sweep_config(path);
  config.resume = true;
  const auto resumed = experiment::run_injection_sweep(A, b, config);
  expect_identical(resumed, sharded);
  EXPECT_GT(sharded.operator_stats.columns(), 0u);
  EXPECT_EQ(resumed.operator_stats, sharded.operator_stats);
  remove_journals(path);
}

TEST(ShardedSweep, ResumeKeepsTheRangeJournalsOfADeadParent) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  // What a SIGKILL'd parent leaves: a header-only merged journal and the
  // range journals its workers flushed.  The planted point tells a kept
  // point from a re-solved one.
  const std::string path = journal_path("dead_parent");
  const auto header = header_of(serial);
  experiment::SweepJournal::write_merged(path, header, {});
  experiment::SweepPoint planted = serial.points.front();
  planted.outer_iterations = 999;
  experiment::SweepJournal::write_merged(path + ".range0", header,
                                         {{0, planted}});
  const std::size_t last = serial.points.size() - 1;
  experiment::SweepJournal::write_merged(path + ".range1", header,
                                         {{last, serial.points.back()}});

  auto config = small_sweep_config(path);
  config.resume = true;
  experiment::ShardOptions shard;
  shard.workers = 3;
  const auto resumed = experiment::run_sharded_sweep(A, b, config, shard);
  auto expected = serial.points;
  expected.front() = planted;
  EXPECT_EQ(resumed.points, expected);
  EXPECT_NE(::access((path + ".range0").c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".range1").c_str(), F_OK), 0);
  EXPECT_EQ(experiment::SweepJournal::load(path).points.size(),
            serial.points.size());
  remove_journals(path);
}

TEST(ShardedSweep, ResumeRefusesARangeJournalOfAnotherSweepNamingIt) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const auto serial =
      experiment::run_injection_sweep(A, b, small_sweep_config(""));

  const std::string path = journal_path("foreign_range");
  auto foreign = header_of(serial);
  foreign.n_points += 1;
  experiment::SweepJournal::write_merged(path, header_of(serial), {});
  experiment::SweepJournal::write_merged(path + ".range1", foreign, {});

  auto config = small_sweep_config(path);
  config.resume = true;
  experiment::ShardOptions shard;
  try {
    (void)experiment::run_sharded_sweep(A, b, config, shard);
    ADD_FAILURE() << "a foreign range journal was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path + ".range1"), std::string::npos)
        << e.what();
  }
  remove_journals(path);
}

#ifdef __linux__
TEST(ShardedSweep, WorkersDieWithTheirParent) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(36);
  const std::string path = journal_path("orphans");

  // Orphaned workers are re-parented to this process, which can then see
  // and reap them once their parent is gone.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t parent = ::fork();
  ASSERT_GE(parent, 0);
  if (parent == 0) {
    // The sweep's parent, in its own process group with its workers.
    // Range 0 stalls forever, so the sweep never ends on its own.
    (void)::setpgid(0, 0);
    experiment::ShardOptions shard;
    shard.drill.range = 0;
    shard.drill.after_points = 1;
    shard.drill.stall = true;
    try {
      (void)experiment::run_sharded_sweep(A, b, small_sweep_config(path),
                                          shard);
    } catch (...) {
    }
    std::_Exit(0);
  }
  (void)::setpgid(parent, parent); // whichever side runs first sets it

  // Kill the parent once the stalled worker has journaled its point.
  bool stalled = false;
  for (int i = 0; i < 3000 && !stalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stalled =
        !experiment::SweepJournal::load(path + ".range0").points.empty();
  }
  int status = 0;
  (void)::kill(parent, SIGKILL);
  (void)::waitpid(parent, &status, 0);

  // Every worker must be gone (reaped from the group) within 2 s.
  bool gone = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    const pid_t reaped = ::waitpid(-parent, &status, WNOHANG);
    gone = reaped < 0 && errno == ECHILD;
    if (reaped == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Never leak a process, whatever the outcome.
  (void)::kill(-parent, SIGKILL);
  while (::waitpid(-parent, &status, 0) > 0) {
  }
  (void)::prctl(PR_SET_CHILD_SUBREAPER, 0);
  EXPECT_TRUE(stalled);
  EXPECT_TRUE(gone) << "a shard worker outlived its parent";
  remove_journals(path);
}
#endif
