#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiment/journal.hpp"
#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "service/scheduler.hpp"
#include "service/spool.hpp"

namespace service = sdcgmres::service;
namespace experiment = sdcgmres::experiment;

namespace {

std::string fresh_root(const char* name) {
  return testing::TempDir() + "sdcgmres_sched_" + name + "_" +
         std::to_string(::getpid());
}

service::SchedulerOptions quick_options(const std::string& root) {
  service::SchedulerOptions options;
  options.root = root;
  options.max_concurrent_jobs = 1;
  options.poll_ms = 5;
  return options;
}

/// Poll until \p done returns true or ~30 s pass.
template <typename F>
bool wait_for(F&& done) {
  for (int i = 0; i < 3000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// The result JSON a direct `sdc_run --json` run of \p spec_text emits.
std::string direct_json(const std::string& spec_text) {
  const experiment::ScenarioResult result =
      experiment::run_scenario(experiment::ScenarioSpec::parse(spec_text));
  std::ostringstream out;
  experiment::write_scenario_json(out, result);
  return out.str();
}

constexpr const char* kSweepSpec =
    "matrix=poisson n=20 inner=10 sweep=1 fault=class1 site_limit=12";

} // namespace

TEST(SweepScheduler, ServiceResultIsBitwiseIdenticalToDirectRun) {
  service::SweepScheduler scheduler(quick_options(fresh_root("identical")));
  scheduler.start();
  const std::string id =
      scheduler.submit(std::string("tenant=alice priority=3\n") + kSweepSpec +
                       "\n# trailing comment\n");
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status(id).state == service::JobStatus::State::Done;
  }));
  std::string got;
  ASSERT_TRUE(scheduler.read_result(id, &got));
  EXPECT_EQ(got, direct_json(kSweepSpec))
      << "the service must emit exactly the bytes sdc_run --json emits";
  scheduler.stop();
}

TEST(SweepScheduler, SingleSolveJobsRunToo) {
  service::SweepScheduler scheduler(quick_options(fresh_root("solve")));
  scheduler.start();
  const std::string spec = "solver=gmres matrix=poisson n=12 precond=ilu0";
  const std::string id = scheduler.submit(spec + "\n");
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status(id).state == service::JobStatus::State::Done;
  }));
  std::string got;
  ASSERT_TRUE(scheduler.read_result(id, &got));
  EXPECT_EQ(got, direct_json(spec));
  scheduler.stop();
}

TEST(SweepScheduler, SubmitWakesAnIdleWorkerWithoutWaitingForThePoll) {
  // A 2 s idle poll: a submission must wake the sleeping worker at once,
  // not when its poll happens to expire.
  service::SchedulerOptions options = quick_options(fresh_root("wakeup"));
  options.poll_ms = 2000;
  service::SweepScheduler scheduler(options);
  scheduler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200)); // idle
  const auto t0 = std::chrono::steady_clock::now();
  const std::string id = scheduler.submit("solver=gmres matrix=poisson n=6\n");
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status(id).state == service::JobStatus::State::Done;
  }));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(1));
  scheduler.stop();
}

TEST(SweepScheduler, RepeatedMatrixBurstHitsTheArtifactCache) {
  service::SweepScheduler scheduler(quick_options(fresh_root("cachehit")));
  scheduler.start();
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(scheduler.submit(std::string(kSweepSpec) + "\n"));
  }
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status(ids.back()).state ==
           service::JobStatus::State::Done;
  }));
  const service::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GT(stats.cache.hits, 0u)
      << "jobs 2 and 3 must reuse job 1's matrix and calibration";
  // Identical jobs produce identical result bytes.
  std::string first, last;
  ASSERT_TRUE(scheduler.read_result(ids.front(), &first));
  ASSERT_TRUE(scheduler.read_result(ids.back(), &last));
  EXPECT_EQ(first, last);
  scheduler.stop();
}

TEST(SweepScheduler, MalformedJobsAreQuarantinedWithAReason) {
  service::SweepScheduler scheduler(quick_options(fresh_root("quarantine")));
  scheduler.start();
  const std::string dup = scheduler.submit("matrix=poisson\nn=20\nn=40\n");
  const std::string typo = scheduler.submit("matrix=poisson positon=first\n");
  const std::string owned = scheduler.submit("matrix=poisson resume=1\n");
  ASSERT_TRUE(wait_for([&] { return scheduler.stats().failed == 3; }));

  const service::JobStatus dup_status = scheduler.status(dup);
  EXPECT_EQ(dup_status.state, service::JobStatus::State::Failed);
  EXPECT_NE(dup_status.reason.find("duplicate key 'n'"), std::string::npos);

  EXPECT_NE(scheduler.status(typo).reason.find("positon"), std::string::npos);
  EXPECT_NE(scheduler.status(owned).reason.find("owned by the scheduler"),
            std::string::npos);

  // Quarantined, not lost: job file and reason file sit in failed/.
  EXPECT_EQ(service::list_jobs(scheduler.spool().failed).size(), 3u);
  EXPECT_EQ(scheduler.stats().completed, 0u);
  scheduler.stop();
}

TEST(SweepScheduler, PerTenantRoundRobinUnderSaturatedQueue) {
  const std::string root = fresh_root("fairness");
  std::vector<std::string> order;
  std::mutex order_mutex;
  service::SchedulerOptions options = quick_options(root);
  options.on_job_finished = [&](const std::string& id) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };

  // Saturate the queue BEFORE any worker runs: alice submits a 4-job
  // burst first, bob two jobs after.  FIFO alone would run alice's whole
  // burst first; round-robin must interleave.
  const service::SpoolPaths paths = service::init_spool(root);
  const std::string solve = "solver=gmres matrix=poisson n=10\n";
  service::submit_job(paths, "j00000001", "tenant=alice\n" + solve);
  service::submit_job(paths, "j00000002", "tenant=alice\n" + solve);
  service::submit_job(paths, "j00000003", "tenant=alice\n" + solve);
  service::submit_job(paths, "j00000004", "tenant=alice\n" + solve);
  service::submit_job(paths, "j00000005", "tenant=bob\n" + solve);
  service::submit_job(paths, "j00000006", "tenant=bob\n" + solve);

  service::SweepScheduler scheduler(options);
  scheduler.start();
  ASSERT_TRUE(wait_for([&] { return scheduler.stats().completed == 6; }));
  scheduler.stop();

  const std::vector<std::string> expected{"j00000001", "j00000005",
                                          "j00000002", "j00000006",
                                          "j00000003", "j00000004"};
  EXPECT_EQ(order, expected)
      << "tenants alternate; a tenant's burst must not starve the other";
}

TEST(SweepScheduler, PriorityOrdersWithinATenantFifoBreaksTies) {
  const std::string root = fresh_root("priority");
  std::vector<std::string> order;
  std::mutex order_mutex;
  service::SchedulerOptions options = quick_options(root);
  options.on_job_finished = [&](const std::string& id) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };
  const service::SpoolPaths paths = service::init_spool(root);
  const std::string solve = "solver=gmres matrix=poisson n=10\n";
  service::submit_job(paths, "j00000001", "priority=0\n" + solve);
  service::submit_job(paths, "j00000002", "priority=5\n" + solve);
  service::submit_job(paths, "j00000003", "priority=5\n" + solve);
  service::submit_job(paths, "j00000004", "priority=-1\n" + solve);

  service::SweepScheduler scheduler(options);
  scheduler.start();
  ASSERT_TRUE(wait_for([&] { return scheduler.stats().completed == 4; }));
  scheduler.stop();

  const std::vector<std::string> expected{"j00000002", "j00000003",
                                          "j00000001", "j00000004"};
  EXPECT_EQ(order, expected)
      << "higher priority first, FIFO among equals, negative last";
}

TEST(SweepScheduler, StopDrainsInFlightWorkAndKeepsTheQueue) {
  const std::string root = fresh_root("drain");
  service::SweepScheduler scheduler(quick_options(root));
  scheduler.start();
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(scheduler.submit(std::string(kSweepSpec) + "\n"));
  }
  // Let the single worker get into (at least) the first job, then drain.
  ASSERT_TRUE(wait_for([&] {
    const service::SchedulerStats stats = scheduler.stats();
    return stats.running > 0 || stats.completed > 0;
  }));
  scheduler.stop();

  // Drained: nothing half-done in running/, every claimed job finished
  // with its result written, the rest still queued.
  const service::SpoolPaths& paths = scheduler.spool();
  EXPECT_TRUE(service::list_jobs(paths.running).empty());
  const std::size_t done = service::list_jobs(paths.done).size();
  const std::size_t queued = service::list_jobs(paths.queue).size();
  EXPECT_EQ(done + queued, ids.size());
  EXPECT_GT(done, 0u);
  for (const std::string& id : service::list_jobs(paths.done)) {
    EXPECT_TRUE(service::file_exists(paths.done + "/" + id + ".json"))
        << "done implies the result file exists";
  }

  // A restart picks the queue back up and finishes everything.
  service::SweepScheduler again(quick_options(root));
  again.start();
  ASSERT_TRUE(wait_for([&] {
    return service::list_jobs(again.spool().done).size() == ids.size();
  }));
  again.stop();
  std::string first, last;
  ASSERT_TRUE(again.read_result(ids.front(), &first));
  ASSERT_TRUE(again.read_result(ids.back(), &last));
  EXPECT_EQ(first, last) << "pre- and post-restart runs of the same spec "
                            "must produce identical bytes";
}

TEST(SweepScheduler, Kill9MidSweepThenRestartResumesBitwiseIdentical) {
  const std::string root = fresh_root("kill9");
  const service::SpoolPaths paths = service::init_spool(root);
  // One job big enough to be mid-flight when the SIGKILL lands.
  const std::string spec =
      "matrix=poisson n=24 inner=12 sweep=1 fault=class1";
  service::submit_job(paths, "j00000001", spec + "\n");
  const std::string journal = paths.journals + "/j00000001.jsonl";

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Crash victim: run the scheduler until the parent SIGKILLs us.
    service::SweepScheduler scheduler(quick_options(root));
    scheduler.start();
    for (;;) ::usleep(100 * 1000);
    ::_exit(0); // not reached
  }

  // Wait until the journal proves real progress, then kill -9 mid-job.
  ASSERT_TRUE(wait_for([&] {
    if (!service::file_exists(journal)) return false;
    try {
      return experiment::tail_sweep_journal(journal).points_done >= 3;
    } catch (const std::exception&) {
      return false;
    }
  }));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // The crash left the job claimed and partially journaled.
  EXPECT_EQ(service::list_jobs(paths.running).size(), 1u);
  const experiment::SweepProgress partial =
      experiment::tail_sweep_journal(journal);
  ASSERT_GT(partial.points_done, 0u);
  ASSERT_LT(partial.points_done, partial.header.n_points)
      << "the SIGKILL must land before the sweep finished for this drill "
         "to mean anything";

  // Restart: running/ is re-queued, the journal resumes, and the final
  // result is bitwise identical to a never-crashed run.
  service::SweepScheduler restarted(quick_options(root));
  restarted.start();
  EXPECT_EQ(restarted.stats().requeued_at_start, 1u);
  ASSERT_TRUE(wait_for([&] {
    return restarted.status("j00000001").state ==
           service::JobStatus::State::Done;
  }));
  std::string got;
  ASSERT_TRUE(restarted.read_result("j00000001", &got));
  EXPECT_EQ(got, direct_json(spec));
  restarted.stop();
}

TEST(SweepScheduler, StatusTracksTheSpoolStates) {
  const std::string root = fresh_root("status");
  service::SweepScheduler scheduler(quick_options(root));
  EXPECT_EQ(scheduler.status("j99999999").state,
            service::JobStatus::State::Unknown);
  // Submitted before start(): stays queued until workers exist.
  const service::SpoolPaths paths = service::init_spool(root);
  service::submit_job(paths, "j00000001",
                      std::string("tenant=carol priority=2\n") + kSweepSpec +
                          "\n");
  scheduler.start();
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status("j00000001").state ==
           service::JobStatus::State::Done;
  }));
  const service::JobStatus done = scheduler.status("j00000001");
  EXPECT_EQ(done.state, service::JobStatus::State::Done);
  EXPECT_TRUE(done.progress.started)
      << "a finished sweep's journal remains its progress record";
  EXPECT_EQ(done.progress.points_done, done.progress.header.n_points);
  EXPECT_TRUE(done.progress.has_stats);
  EXPECT_GT(done.progress.stats.traffic.scalar_bytes, 0u);

  const std::string rendered = service::status_json(done);
  EXPECT_NE(rendered.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(rendered.find("\"points_done\""), std::string::npos);
  EXPECT_NE(rendered.find("\"bytes_streamed\""), std::string::npos);
  scheduler.stop();
}

TEST(SweepScheduler, BackendJobsFlowThroughTheCachedAssembly) {
  // A backend=sell job must emit exactly the bytes a direct run emits,
  // and a repeat submission must hit the cached SELL assembly.
  service::SweepScheduler scheduler(quick_options(fresh_root("backend")));
  scheduler.start();
  const std::string spec =
      std::string(kSweepSpec) + " backend=sell threads=2 batch=4";
  const std::string first = scheduler.submit(spec + "\n");
  const std::string second = scheduler.submit(spec + "\n");
  ASSERT_TRUE(wait_for([&] {
    return scheduler.status(second).state == service::JobStatus::State::Done;
  }));
  std::string got_first, got_second;
  ASSERT_TRUE(scheduler.read_result(first, &got_first));
  ASSERT_TRUE(scheduler.read_result(second, &got_second));
  EXPECT_EQ(got_first, direct_json(spec));
  EXPECT_EQ(got_second, got_first);
  EXPECT_NE(got_first.find("\"backend\": \"sell:8:1\""), std::string::npos)
      << got_first.substr(0, 400);
  EXPECT_GT(scheduler.stats().cache.hits, 0u)
      << "the second job must reuse the first job's SELL assembly";
  scheduler.stop();
}
