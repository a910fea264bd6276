#pragma once
/// \file shard.hpp
/// \brief Crash-tolerant process sharding of an injection sweep.
///
/// run_sharded_sweep runs the sweep's preamble once, in the parent: the
/// recorded failure-free baseline, the point count and the journal (see
/// experiment/prepared_sweep.hpp).  It then forks worker processes over
/// contiguous point ranges.  Each worker inherits the prepared sweep and
/// only runs the block loop over its range's pending points, journaling
/// every completed point into a per-range journal file
/// (`<journal>.range<K>`, see experiment/journal.hpp).  The parent
/// monitors the children and re-queues the range of any worker that exits
/// abnormally -- crash, signal (SIGKILL included), or a worker_timeout
/// deadline -- with a capped retry count and backoff.  A re-run worker
/// skips the points the dead attempt had flushed to its range journal.
/// When all ranges complete, the parent merges the range journals
/// deterministically by point index into one SweepResult (and one merged
/// journal file), so the final result is bitwise identical to a serial
/// run no matter how many workers died along the way.  Workers die with
/// the parent (Linux: PR_SET_PDEATHSIG), and a resume of a sweep whose
/// parent died keeps the points its range journals hold.
///
/// Because each injection-site solve is independent and deterministic
/// (the sweep determinism contract), process sharding -- like thread
/// sharding and lockstep batching -- cannot change any point's value;
/// it only changes which process computes it.
///
/// Fork/OpenMP discipline: before forking, the parent only ever runs
/// 1-thread OpenMP regions (the pinned baseline), which spawn no helper
/// threads, so the children never inherit a torn thread pool; each child
/// builds its own OpenMP team from scratch.

#include <cstddef>
#include <string>

#include "experiment/sweep.hpp"
#include "la/vector.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::experiment {

/// Crash-drill instructions for tests: make one range's worker die (or
/// stall) after journaling a few points, proving that the parent's
/// re-queue + resume machinery reconstructs the exact serial result.
struct ShardDrill {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t range = kNone;   ///< range index whose worker drills
  std::size_t after_points = 0; ///< act after this many journaled points
  bool stall = false;          ///< instead of SIGKILL'ing itself, hang
                               ///< forever (exercises worker_timeout)
  bool every_attempt = false;  ///< drill retries too (drives the range to
                               ///< retry exhaustion; tests the cap)
};

/// Configuration of the sharded run.
struct ShardOptions {
  std::size_t workers = 2;     ///< worker processes (= point ranges);
                               ///< must be >= 1
  double worker_timeout_seconds = 0.0; ///< per-attempt wall-clock deadline;
                               ///< an overrunning worker is SIGKILL'd and
                               ///< its range re-queued (0 = no deadline)
  ShardDrill drill;            ///< test-only crash drill (default: none)
};

/// What the parent observed while supervising the workers.
struct ShardReport {
  std::size_t ranges = 0;          ///< point ranges (== workers clamped to
                                   ///< the point count)
  std::size_t worker_crashes = 0;  ///< abnormal exits (nonzero status or
                                   ///< signal, timeouts included)
  std::size_t timeouts = 0;        ///< workers SIGKILL'd by the deadline
  std::size_t ranges_requeued = 0; ///< re-queue events (a range may
                                   ///< contribute several)
};

/// Run \p config's sweep sharded over ShardOptions::workers processes.
/// Requires a non-empty config.journal: the per-range journals live at
/// `<journal>.range<K>` and the merged journal replaces `<journal>`
/// atomically at the end.  config.resume seeds the sweep from the merged
/// journal and any range journals an interrupted sharded run left.  Throws
/// std::runtime_error when a range fails more than 3 retries.  The
/// returned SweepResult's points and baseline fields are bitwise identical
/// to run_injection_sweep's serial result.  operator_stats sums the
/// workers' traffic (the baseline is never counted) plus what a resume
/// restored; the merged journal's `stats` record holds the same total.
[[nodiscard]] SweepResult run_sharded_sweep(const sparse::CsrMatrix& A,
                                            const la::Vector& b,
                                            const SweepConfig& config,
                                            const ShardOptions& shard,
                                            ShardReport* report = nullptr);

} // namespace sdcgmres::experiment
