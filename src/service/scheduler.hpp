#pragma once
/// \file scheduler.hpp
/// \brief SweepScheduler: multi-tenant job scheduling over the spool.
///
/// N worker threads poll the spool's queue/ directory and dispatch jobs
/// onto the existing scenario runner (run_injection_sweep /
/// run_sharded_sweep / single solves via run_scenario).  Scheduling
/// order under contention:
///
///   1. per-tenant ROUND-ROBIN: tenants take turns in cyclic name order,
///      so one tenant's 100-job burst cannot starve another's single job;
///   2. PRIORITY within the tenant: higher priority= runs first;
///   3. FIFO within the priority class: ids embed a zero-padded submit
///      sequence, so lexicographic id order is submission order.
///
/// Every job is journaled under its own id (journals/<id>.jsonl) and run
/// with resume=1, which yields both halves of the durability story:
///
///   * SIGTERM drain: stop() lets in-flight jobs finish (their results
///     are written and spooled to done/), queued jobs stay queued;
///   * kill -9: the job file stays in running/; the next start() moves
///     it back to queue/, and the re-run resumes from the journal --
///     completed points are not re-solved and the final result is
///     bitwise identical to an uninterrupted run (the journal stores
///     residuals as raw IEEE-754 bit patterns).
///
/// The journal doubles as the job's live progress stream: status() tails
/// it (summing per-range journals while a sharded job is in flight) into
/// a SweepProgress -- points done, guard/recovery counters, and the
/// bytes streamed so far.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiment/journal.hpp"
#include "service/cache.hpp"
#include "service/spool.hpp"

namespace sdcgmres::service {

struct SchedulerOptions {
  std::string root;                    ///< spool root directory
  std::size_t max_concurrent_jobs = 1; ///< worker threads
  std::size_t cache_bytes = 256ull << 20; ///< ArtifactCache byte budget
  std::size_t poll_ms = 20;            ///< queue poll interval when idle
  /// Called (from the worker thread, outside the scheduler lock) after a
  /// job reaches done/ or failed/ -- the observable service order
  /// (fairness tests, metrics hooks).  Null = off.
  std::function<void(const std::string& id)> on_job_finished;
};

/// Live view of one job, assembled from the spool + its journal.
struct JobStatus {
  enum class State { Unknown, Queued, Running, Done, Failed };
  State state = State::Unknown;
  std::string id;
  std::string tenant;  ///< empty when the job file does not parse
  long priority = 0;
  experiment::SweepProgress progress; ///< journal tail (sweep jobs)
  std::string reason;  ///< failure reason (state == Failed)
};

[[nodiscard]] const char* to_string(JobStatus::State state);

/// Counter snapshot for GET /stats.
struct SchedulerStats {
  std::size_t submitted = 0;         ///< via submit() since start()
  std::size_t completed = 0;
  std::size_t failed = 0;            ///< quarantined into failed/
  std::size_t requeued_at_start = 0; ///< running/ jobs recovered by start()
  std::size_t queued = 0;            ///< current queue/ depth
  std::size_t running = 0;           ///< jobs being solved right now
  CacheStats cache;
};

class SweepScheduler {
public:
  explicit SweepScheduler(SchedulerOptions options);
  ~SweepScheduler(); ///< stop()s

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  /// Initialize the spool (creating it if needed), re-queue any jobs a
  /// crashed predecessor left in running/, and spawn the workers.
  void start();

  /// Graceful drain: workers finish their current job (results written
  /// and spooled), then exit; queued jobs stay queued.  Idempotent.
  void stop();

  /// Enqueue a job file body.  Returns the assigned id (a zero-padded
  /// sequence, so id order is submission order).  The body is validated
  /// by the claiming worker, not here -- a malformed job is quarantined
  /// into failed/ with a reason file, never silently dropped.
  std::string submit(const std::string& body);

  /// Assemble the current state of \p id from the spool + journal tail.
  [[nodiscard]] JobStatus status(const std::string& id) const;

  /// Read done/<id>.json into \p json.  False when the job is not done.
  [[nodiscard]] bool read_result(const std::string& id,
                                 std::string* json) const;

  [[nodiscard]] SchedulerStats stats() const;

  [[nodiscard]] const SpoolPaths& spool() const noexcept { return paths_; }
  [[nodiscard]] ArtifactCache& cache() noexcept { return cache_; }

private:
  struct JobMeta {
    std::string tenant;
    long priority = 0;
  };

  void worker_loop();
  [[nodiscard]] std::string pick_and_claim_locked();
  [[nodiscard]] const JobMeta& meta_locked(const std::string& id);
  void run_one(const std::string& id);

  SchedulerOptions options_;
  SpoolPaths paths_;
  ArtifactCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool started_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::size_t seq_ = 0; ///< highest assigned submit sequence number
  std::size_t queued_signals_ = 0; ///< submit()s whose job file is in
                                   ///< queue/ (idle workers wait on it)
  std::string last_tenant_; ///< round-robin cursor
  std::map<std::string, JobMeta> meta_; ///< parsed envelopes of known jobs
  std::size_t running_jobs_ = 0;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t requeued_at_start_ = 0;
};

/// Render \p status as the GET /jobs/<id> JSON document.
[[nodiscard]] std::string status_json(const JobStatus& status);

/// Render \p stats as the GET /stats JSON document.
[[nodiscard]] std::string stats_json(const SchedulerStats& stats);

} // namespace sdcgmres::service
