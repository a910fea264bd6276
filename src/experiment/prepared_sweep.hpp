#pragma once
/// \file prepared_sweep.hpp
/// \brief The two halves of an injection sweep, shared by the in-process
/// driver (sweep.cpp) and the process-sharded one (shard.cpp).
///
/// prepare_sweep is the sweep's whole preamble: validation, the recovery
/// policy, the backend, the recorded failure-free baseline, the point count,
/// the journal header and the journal itself.  solve_points is the block
/// loop over a list of pending points.  An in-process sweep runs one after
/// the other; a sharded sweep prepares once in the parent and each forked
/// worker solves its share of the pending points against the inherited
/// PreparedSweep, so the baseline is solved exactly once.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "experiment/journal.hpp"
#include "experiment/sweep.hpp"

namespace sdcgmres::experiment::detail {

/// The failure-free run every site forks from: the baseline, recorded at
/// each outer boundary with the sweep's detector installed, the number of
/// leading boundaries a faulted solve may start from, and where that
/// detector fired.
struct ForkBase {
  krylov::FtGmresTrajectory trajectory;
  std::size_t usable = 0;
  std::size_t detected_until = 0; ///< one past the last outer iteration in
                                  ///< which the recorded run's detector
                                  ///< fired (0: it never fired)

  /// Where the site's solve starts: the last usable boundary before its
  /// aggregate iteration.  Boundary 0 starts from zero; no start carries a
  /// trajectory when nothing was recorded.
  [[nodiscard]] krylov::FtGmresStart start_for(std::size_t site) const {
    if (usable == 0) return {};
    std::size_t k = 0;
    while (k + 1 < usable && trajectory.hook_iterations[k + 1] <= site) ++k;
    return {.trajectory = &trajectory, .boundary = k};
  }

  /// True when the recorded run's detector fires in outer iteration k or
  /// later: a solve that rejoins at boundary k would see it fire there.
  [[nodiscard]] bool detects_from(std::size_t k) const noexcept {
    return k < detected_until;
  }

  /// The aggregate inner iterations a solve starting at \p start skips:
  /// its fault campaign's seed.
  [[nodiscard]] std::size_t skipped(const krylov::FtGmresStart& start) const {
    return start.trajectory == nullptr
               ? 0
               : trajectory.hook_iterations[start.boundary];
  }
};

/// A sweep whose preamble has run.
struct PreparedSweep {
  SweepConfig config; ///< recovery policy translated, backend resolved
  ForkBase base;
  SweepJournalHeader header;
  SweepResult result; ///< baseline fields; every point slot, the journaled
                      ///< ones filled; operator_stats = restored.traffic
  std::vector<char> done;     ///< points the journal already held
  SweepRunningStats restored; ///< what the journal recorded for them

  /// Load journal \p path (a missing file loads empty) and mark its points
  /// done.  Refuses, naming the path, a journal written for another
  /// sweep: a header other than `header` or a point index beyond it.
  SweepJournalContents fold(const std::string& path);

  /// The points of [first, first + count) the journal does not hold yet.
  [[nodiscard]] std::vector<std::size_t> pending(std::size_t first,
                                                 std::size_t count) const;
};

/// The sweep's preamble.  Validates \p config, translates its recovery
/// policy, resolves the backend and runs the recorded baseline (pinned to
/// one OpenMP thread, so a caller may fork afterwards).  With a journal,
/// a fresh run truncates it to the header and removes its range journals;
/// a resume folds the journal and every range journal a dead sharded
/// parent left (journal_range_paths) into one compact journal, then
/// removes the range journals.
[[nodiscard]] PreparedSweep prepare_sweep(const sparse::CsrMatrix& A,
                                          const la::Vector& b,
                                          const SweepConfig& config);

/// Solve the \p pending points of \p prep in blocks of config.batch over
/// config.threads threads, writing them into prep.result and adding the
/// traffic they streamed to prep.result.operator_stats.  With a non-empty
/// \p journal every block is appended there with a `stats` record that
/// continues \p resumed, and \p on_flush (when set) is called after each
/// flush with the journal's cumulative point count.
void solve_points(PreparedSweep& prep, const sparse::CsrMatrix& A,
                  const la::Vector& b, std::span<const std::size_t> pending,
                  const std::string& journal, const SweepRunningStats& resumed,
                  const std::function<void(std::size_t)>& on_flush = {});

} // namespace sdcgmres::experiment::detail
