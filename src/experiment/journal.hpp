#pragma once
/// \file journal.hpp
/// \brief Append-only sweep journal: the checkpoint/resume substrate.
///
/// A sweep journal is a JSONL file -- one self-contained JSON object per
/// line -- holding a header record (the sweep's shape, so a resume can
/// refuse a journal written for a different sweep) followed by one point
/// record per completed injection-site solve.  Records are appended as
/// points finish and fsync'd in batches, so a crashed sweep (or a
/// SIGKILL'd shard worker) loses at most the solves that were in flight.
///
/// Durability/consistency rules:
///   * residual norms are stored as raw IEEE-754 bit patterns (u64), so a
///     resumed point is bitwise identical to its originally-solved run --
///     decimal round-trips would not be;
///   * a final line without a trailing newline is ALWAYS discarded on
///     load, even when it happens to parse (a truncated number can parse
///     to the wrong value); the discarded point is simply re-solved;
///   * a malformed INTERIOR line is corruption, not truncation: load()
///     throws with the journal path and 1-based line number;
///   * compact()/write_merged() replace a journal atomically
///     (tmp-write + fsync + rename), so readers never observe a partially
///     rewritten file.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "experiment/sweep.hpp"

namespace sdcgmres::experiment {

/// The sweep-shape header every journal starts with.  A resume checks it
/// against the live sweep's measured baseline and sampling parameters and
/// refuses a mismatch (a journal of some other sweep would silently
/// poison the merged result).
struct SweepJournalHeader {
  std::size_t version = 2; ///< 2 added the per-point "syncs" field; a
                           ///< version-1 journal is a different sweep
  std::size_t baseline_outer = 0;
  std::size_t baseline_total_inner = 0;
  bool baseline_converged = false;
  std::size_t n_points = 0; ///< total points of the FULL sweep (not the
                            ///< shard range a given journal file covers)
  std::size_t stride = 1;
  std::size_t site_limit = 0;

  bool operator==(const SweepJournalHeader&) const = default;
};

/// Cumulative progress counters a running sweep appends alongside its
/// point records (one `stats` line per journal flush).  These make the
/// journal a live progress stream: a tailing reader sees points done and
/// the bytes/streams paid so far without waiting for the SweepResult.
/// The traffic counters are stored as the RAW OperatorStats decomposition
/// (not the derived streams/columns sums) so a resumed sweep can restore
/// the last record as its traffic baseline: the final operator_stats --
/// and hence the result JSON's bytes-streamed fields -- come out bitwise
/// identical to an uninterrupted run.  A resume compacts the journal with
/// the restored record (write_merged's \p stats), so the baseline survives
/// repeated crashes, and a finished sharded sweep writes its total here.
struct SweepRunningStats {
  std::size_t points_done = 0; ///< points this JOURNAL has recorded, i.e.
                               ///< cumulative across resumed incarnations
  krylov::OperatorStats traffic; ///< cumulative raw traffic counters

  bool operator==(const SweepRunningStats&) const = default;
};

/// What load() recovered from an existing journal file.
struct SweepJournalContents {
  bool has_header = false;
  SweepJournalHeader header;
  /// (point index, point) pairs in file order; duplicates keep the LAST
  /// occurrence (a re-queued shard range legitimately re-solves points).
  std::vector<std::pair<std::size_t, SweepPoint>> points;
  bool has_stats = false;  ///< at least one `stats` record was present
  SweepRunningStats stats; ///< the LAST stats record (cumulative counters)
  bool discarded_tail = false; ///< the final line had no trailing newline
                               ///< and was dropped (crash mid-append)
};

/// Live progress view of a (possibly still-growing, possibly absent)
/// journal: the journal IS the job's progress stream, and this is the
/// tail.  points_done counts UNIQUE point indexes (re-queued ranges may
/// journal a point twice); the outcome counters aggregate over those
/// points exactly like the SweepResult accessors will once the sweep
/// finishes.  A missing journal file reports zero progress (the job has
/// not started solving), matching load().
struct SweepProgress {
  bool started = false; ///< the journal exists and has a header
  SweepJournalHeader header;
  std::size_t points_done = 0;
  std::size_t failed = 0;            ///< points that did not converge
  std::size_t detected = 0;          ///< points whose detector fired
  std::size_t diverged = 0;          ///< divergence-guard trips
  std::size_t deadline_exceeded = 0; ///< deadline-guard trips
  std::size_t reliable_retries = 0;  ///< recovery: inner solves re-run
  std::size_t outer_restarts = 0;    ///< recovery: outer cycles restarted
  bool has_stats = false;
  SweepRunningStats stats; ///< latest cumulative traffic counters
};

/// Where a sharded sweep's worker for point range \p range journals:
/// `<journal>.range<range>`.
[[nodiscard]] std::string range_journal_path(const std::string& journal,
                                             std::size_t range);

/// The range journals of \p journal that exist: `<journal>.range0`,
/// `.range1`, ... up to the first missing one.  A sharded sweep creates
/// them in index order and removes them in reverse, so a crash at any
/// point leaves no other.
[[nodiscard]] std::vector<std::string> journal_range_paths(
    const std::string& journal);

/// Tail \p path: load the journal (tolerating the in-flight tail a live
/// writer leaves) and fold its records into a SweepProgress.  Throws only
/// on what load() throws on (corrupt interior lines, unreadable files).
[[nodiscard]] SweepProgress tail_sweep_journal(const std::string& path);

/// Append-only writer + loader of sweep journals.
class SweepJournal {
public:
  /// Parse \p path.  A missing file returns an empty contents object (a
  /// fresh start); any other open failure, or a malformed interior line,
  /// throws std::runtime_error naming the path (and line number).
  [[nodiscard]] static SweepJournalContents load(const std::string& path);

  /// Atomically replace \p path with a compact journal: one header line,
  /// then \p points in the given order, then \p stats when given
  /// (tmp-write + fsync + rename).  Throws std::runtime_error naming the
  /// path and reason on any failure.
  static void write_merged(
      const std::string& path, const SweepJournalHeader& header,
      const std::vector<std::pair<std::size_t, SweepPoint>>& points,
      const SweepRunningStats* stats = nullptr);

  /// Open \p path for appending (created if missing).  Throws
  /// std::runtime_error naming the path and reason when it cannot be
  /// opened (e.g. the directory does not exist or is unwritable).
  explicit SweepJournal(std::string path);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Append one record (buffered until flush()).
  void append_header(const SweepJournalHeader& header);
  void append_point(std::size_t index, const SweepPoint& point);
  void append_stats(const SweepRunningStats& stats);

  /// Write the buffered records and fsync: after flush() returns, every
  /// appended record survives a crash of this process.
  void flush();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
  std::string path_;
  int fd_ = -1;
  std::string buffer_;
};

} // namespace sdcgmres::experiment
