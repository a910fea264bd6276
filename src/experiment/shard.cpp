#include "experiment/shard.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "experiment/prepared_sweep.hpp"

namespace sdcgmres::experiment {

namespace {

using Clock = std::chrono::steady_clock;

/// Extra attempts per range before the sweep fails loudly, and the pause
/// before attempt k+1 of a range (scaled linearly by k).
constexpr std::size_t kMaxRetries = 3;
constexpr double kRetryBackoffSeconds = 0.05;

/// One contiguous point range and its supervision state.
struct Range {
  std::size_t index = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t attempts = 0;       ///< attempts already consumed
  Clock::time_point not_before{}; ///< retry backoff gate
};

struct RunningWorker {
  pid_t pid = -1;
  Range range;
  std::optional<Clock::time_point> deadline; ///< per-attempt, if any
};

Clock::duration after(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The child's whole life: solve \p pending into the range journal and
/// exit.  It dies with the parent (PR_SET_PDEATHSIG; the getppid check
/// covers a parent that died before the prctl).  Exits 0 on success and
/// 1 on any exception (retryable up to the cap -- a transient failure
/// heals, a deterministic one fails loudly after kMaxRetries).  Uses _Exit
/// so the child never runs the parent's atexit handlers or flushes its
/// duplicated stdio buffers.
[[noreturn]] void run_child(detail::PreparedSweep& prep,
                            const sparse::CsrMatrix& A, const la::Vector& b,
                            const Range& range,
                            const std::vector<std::size_t>& pending,
                            const SweepRunningStats& resumed,
                            const ShardDrill& drill, pid_t parent) {
#ifdef __linux__
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  if (::getppid() != parent) std::_Exit(1);
  try {
    std::function<void(std::size_t)> on_flush;
    if (drill.range == range.index &&
        (range.attempts == 0 || drill.every_attempt)) {
      on_flush = [&drill](std::size_t completed) {
        if (completed < drill.after_points) return;
        if (drill.stall) {
          // Hang past any worker_timeout; the parent must SIGKILL us.
          for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        (void)::raise(SIGKILL); // die mid-range, journal already flushed
      };
    }
    detail::solve_points(prep, A, b, pending,
                         range_journal_path(prep.config.journal, range.index),
                         resumed, on_flush);
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep shard %zu (points %zu..%zu): %s\n",
                 range.index, range.first, range.first + range.count - 1,
                 e.what());
    std::_Exit(1);
  } catch (...) {
    std::_Exit(1);
  }
}

} // namespace

SweepResult run_sharded_sweep(const sparse::CsrMatrix& A, const la::Vector& b,
                              const SweepConfig& config,
                              const ShardOptions& shard, ShardReport* report) {
  if (shard.workers == 0) {
    throw std::invalid_argument("run_sharded_sweep: workers must be >= 1");
  }
  if (config.journal.empty()) {
    throw std::invalid_argument(
        "run_sharded_sweep: a journal path is required (per-range journals "
        "and the merged result derive from it); set journal=<path>");
  }

  // --- The sweep's one preamble, in the parent: the pinned baseline (a
  // 1-thread OpenMP region, so no helper threads exist when we fork), the
  // point count, and the journal -- a resume has folded in every range
  // journal a dead parent left.  The children inherit all of it.
  detail::PreparedSweep prep = detail::prepare_sweep(A, b, config);
  const std::string& journal = prep.config.journal;
  const std::size_t n_points = prep.done.size();

  const std::size_t n_ranges = std::min(shard.workers, n_points);
  std::vector<Range> queue;
  queue.reserve(n_ranges);
  for (std::size_t r = 0; r < n_ranges; ++r) {
    // Contiguous split, remainder spread over the leading ranges.
    const std::size_t base = n_points / n_ranges;
    const std::size_t extra = n_points % n_ranges;
    queue.push_back({.index = r,
                     .first = r * base + std::min(r, extra),
                     .count = base + (r < extra ? 1 : 0)});
  }

  ShardReport local_report;
  local_report.ranges = n_ranges;

  // --- Supervision loop: keep up to `workers` children alive, re-queue
  // abnormal exits with capped retries + backoff, enforce deadlines.
  std::vector<RunningWorker> running;
  running.reserve(shard.workers);

  const auto kill_all = [&running] {
    for (const RunningWorker& w : running) (void)::kill(w.pid, SIGKILL);
    for (const RunningWorker& w : running) {
      int status = 0;
      (void)::waitpid(w.pid, &status, 0);
    }
    running.clear();
  };

  try {
    while (!queue.empty() || !running.empty()) {
      // Spawn: any queued range whose backoff gate has passed, while
      // worker slots are free.
      const Clock::time_point now = Clock::now();
      for (std::size_t q = 0;
           q < queue.size() && running.size() < shard.workers;) {
        if (queue[q].not_before > now) {
          ++q;
          continue;
        }
        const Range range = queue[q];
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(q));
        // A retry resumes what the dead attempt flushed: the range journal
        // is compacted (dropping a torn tail) and its points are skipped.
        // First attempts spawn in index order, which creates the range
        // journals in that order (see journal_range_paths).
        const std::string path = range_journal_path(journal, range.index);
        const SweepJournalContents mine = prep.fold(path);
        SweepJournal::write_merged(path, prep.header, mine.points,
                                   mine.has_stats ? &mine.stats : nullptr);
        const std::vector<std::size_t> pending =
            prep.pending(range.first, range.count);
        if (pending.empty()) continue;
        const pid_t parent = ::getpid();
        const pid_t pid = ::fork();
        if (pid < 0) {
          throw std::runtime_error(
              std::string("run_sharded_sweep: fork failed: ") +
              std::strerror(errno));
        }
        if (pid == 0) {
          run_child(prep, A, b, range, pending, mine.stats, shard.drill,
                    parent);
        }
        RunningWorker worker{.pid = pid, .range = range};
        if (shard.worker_timeout_seconds > 0.0) {
          worker.deadline = Clock::now() + after(shard.worker_timeout_seconds);
        }
        running.push_back(worker);
      }

      // Deadlines: SIGKILL overrunning workers; the reap below observes
      // the signal exit and re-queues like any other crash.
      for (RunningWorker& w : running) {
        if (w.deadline && Clock::now() >= *w.deadline) {
          (void)::kill(w.pid, SIGKILL);
          w.deadline.reset(); // kill once
          ++local_report.timeouts;
        }
      }

      // Reap.
      int status = 0;
      const pid_t reaped = ::waitpid(-1, &status, WNOHANG);
      if (reaped > 0) {
        const auto it = std::find_if(
            running.begin(), running.end(),
            [reaped](const RunningWorker& w) { return w.pid == reaped; });
        if (it != running.end()) {
          Range range = it->range;
          running.erase(it);
          const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
          if (!ok) {
            ++local_report.worker_crashes;
            ++range.attempts;
            if (range.attempts > kMaxRetries) {
              kill_all();
              throw std::runtime_error(
                  "run_sharded_sweep: range " + std::to_string(range.index) +
                  " (points " + std::to_string(range.first) + ".." +
                  std::to_string(range.first + range.count - 1) +
                  ") failed " + std::to_string(range.attempts) +
                  " times; giving up (see worker stderr)");
            }
            ++local_report.ranges_requeued;
            range.not_before =
                Clock::now() + after(kRetryBackoffSeconds *
                                     static_cast<double>(range.attempts));
            queue.push_back(range);
          }
        }
        continue; // a reap may free a slot: spawn immediately
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } catch (...) {
    kill_all();
    throw;
  }

  // --- Deterministic merge: the range journals -> points by index, and
  // their last stats records onto the traffic the preamble restored.  The
  // merge trusts only the journals (never a child's memory), which is
  // exactly what makes a kill -9 invisible in the final result.
  SweepRunningStats total = prep.restored;
  for (std::size_t r = 0; r < n_ranges; ++r) {
    total.traffic += prep.fold(range_journal_path(journal, r)).stats.traffic;
  }
  std::vector<std::pair<std::size_t, SweepPoint>> merged;
  merged.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    if (prep.done[i] == 0) {
      throw std::runtime_error(
          "run_sharded_sweep: merged journals are missing point " +
          std::to_string(i) + " although every range completed");
    }
    merged.emplace_back(i, prep.result.points[i]);
  }
  // Publish the merged journal, with the total traffic as its stats
  // record so a later resume restores it, and drop the range files.
  total.points_done = n_points;
  prep.result.operator_stats = total.traffic;
  SweepJournal::write_merged(journal, prep.header, merged, &total);
  for (std::size_t r = n_ranges; r-- > 0;) { // see journal_range_paths
    (void)::unlink(range_journal_path(journal, r).c_str());
  }

  if (report != nullptr) *report = local_report;
  return std::move(prep.result);
}

} // namespace sdcgmres::experiment
