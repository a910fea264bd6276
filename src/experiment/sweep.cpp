#include "experiment/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "experiment/prepared_sweep.hpp"
#include "krylov/operator.hpp"
#include "krylov/workspace.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace sdcgmres::experiment {

std::size_t SweepResult::max_outer_increase() const {
  std::size_t worst = 0;
  for (const SweepPoint& p : points) {
    if (p.outer_iterations > baseline_outer) {
      worst = std::max(worst, p.outer_iterations - baseline_outer);
    }
  }
  return worst;
}

std::size_t SweepResult::unchanged_runs() const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(), [this](const SweepPoint& p) {
        return p.converged && p.outer_iterations <= baseline_outer;
      }));
}

std::size_t SweepResult::failed_runs() const {
  return static_cast<std::size_t>(std::count_if(
      points.begin(), points.end(),
      [](const SweepPoint& p) { return !p.converged; }));
}

std::size_t SweepResult::detected_runs() const {
  return static_cast<std::size_t>(std::count_if(
      points.begin(), points.end(),
      [](const SweepPoint& p) { return p.detected; }));
}

std::size_t SweepResult::inner_operand_columns() const {
  std::size_t total = 0;
  for (const SweepPoint& p : points) total += p.inner_applies;
  return total;
}

std::size_t SweepResult::diverged_runs() const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(), [](const SweepPoint& p) {
        return p.status == krylov::SolveStatus::Diverged ||
               p.inner_diverged > 0;
      }));
}

std::size_t SweepResult::deadline_exceeded_runs() const {
  return static_cast<std::size_t>(
      std::count_if(points.begin(), points.end(), [](const SweepPoint& p) {
        return p.status == krylov::SolveStatus::DeadlineExceeded;
      }));
}

std::size_t SweepResult::retried_reliable() const {
  std::size_t total = 0;
  for (const SweepPoint& p : points) total += p.reliable_retries;
  return total;
}

std::size_t SweepResult::restarted_outer() const {
  std::size_t total = 0;
  for (const SweepPoint& p : points) total += p.outer_restarts;
  return total;
}

std::size_t SweepResult::total_global_syncs() const {
  std::size_t total = 0;
  for (const SweepPoint& p : points) total += p.global_syncs;
  return total;
}

namespace {

/// Run \p fn inside a 1-thread OpenMP region with kernel threading pinned
/// to 1, converting any escaping exception back into a normal throw -- an
/// exception crossing an OpenMP region boundary would call std::terminate.
/// The pin is a tuning choice, not a correctness one: the kernels'
/// reductions are bitwise independent of the thread count, and the sweep
/// already runs one solve per thread across sites.
template <typename Fn>
void run_pinned(Fn&& fn) {
  std::exception_ptr error;
#pragma omp parallel num_threads(1)
  {
#ifdef _OPENMP
    omp_set_num_threads(1);
#endif
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

/// The failure-free solve over a CSR matrix or a backend operator, pinned
/// like every sweep solve so run_baseline always agrees with the sweep's
/// baseline fields exactly.
template <typename Matrix>
krylov::FtGmresResult pinned_baseline(const Matrix& A, const la::Vector& b,
                                      const krylov::FtGmresOptions& opts) {
  krylov::FtGmresResult baseline;
  run_pinned([&] { baseline = krylov::ft_gmres(A, b, opts, nullptr); });
  return baseline;
}

} // namespace

krylov::FtGmresResult run_baseline(const sparse::CsrMatrix& A,
                                   const la::Vector& b,
                                   const krylov::FtGmresOptions& opts) {
  return pinned_baseline(A, b, opts);
}

namespace {

/// The SolveReport -> SweepPoint translation of one site.
SweepPoint make_sweep_point(const solver::SolveReport& run, std::size_t site,
                            const sdc::FaultCampaign& campaign,
                            const sdc::HessenbergBoundDetector* detector) {
  SweepPoint point;
  point.aggregate_iteration = site;
  point.outer_iterations = run.iterations;
  point.converged = run.converged();
  point.injected = campaign.fired();
  point.detected = detector != nullptr && detector->triggered();
  point.sanitized_outputs = run.sanitized_outputs;
  point.inner_applies = run.total_inner_applies;
  point.residual_norm = run.residual_norm;
  point.status = run.status;
  for (const krylov::InnerSolveRecord& rec : run.inner_solves) {
    if (rec.status == krylov::SolveStatus::Diverged) ++point.inner_diverged;
  }
  point.reliable_retries = run.reliable_retries;
  point.outer_restarts = run.outer_restarts;
  point.global_syncs = run.global_syncs;
  return point;
}

/// The per-site injection plan: the paper's Hessenberg fault by default,
/// or the fault_target= axis (subdiagonal / matvec / powers) at the same
/// aggregate-iteration site vocabulary.
sdc::InjectionPlan sweep_plan(const SweepConfig& config, std::size_t site) {
  sdc::InjectionPlan plan;
  plan.target = config.target;
  plan.position = config.position;
  plan.aggregate_iteration = site;
  plan.element_index = config.element_index;
  plan.model = config.model;
  return plan;
}

/// Run the failure-free baseline and record \p base from it.  Up to its
/// site, a faulted solve sees the hook events of this run, so a site may
/// start at any boundary the run reached before its detector first fired
/// (a boundary after that would lose the detection).  When it fired, the
/// baseline is rerun hook-free: the baseline fields never depend on the
/// detector.  A wall-clock deadline disables forking and rejoining: that
/// guard is per solve and not deterministic.
krylov::FtGmresResult run_recorded_baseline(const krylov::LinearOperator& A,
                                            const la::Vector& b,
                                            const SweepConfig& config,
                                            detail::ForkBase& base) {
  if (config.solver.outer.deadline_seconds > 0.0) {
    return pinned_baseline(A, b, config.solver);
  }
  std::unique_ptr<sdc::HessenbergBoundDetector> detector;
  if (config.with_detector) {
    detector = std::make_unique<sdc::HessenbergBoundDetector>(
        config.detector_bound, config.detector_response);
  }
  krylov::FtGmresResult baseline;
  run_pinned([&] {
    baseline = krylov::ft_gmres_recorded(A, b, config.solver, detector.get(),
                                         base.trajectory);
  });
  base.usable = base.trajectory.size();
  if (detector && detector->triggered()) {
    const std::vector<sdc::Event>& events = detector->log().events();
    base.usable = std::min(base.usable, events.front().solve_index + 1);
    for (const sdc::Event& e : events) {
      base.detected_until = std::max(base.detected_until, e.solve_index + 1);
    }
    return pinned_baseline(A, b, config.solver);
  }
  return baseline;
}

/// A block of faulty solves advanced in lockstep through the worker's
/// reusable FtGmresSolver \p ft (its internal workspace makes every block
/// after the worker's first allocation-free): one fault campaign +
/// detector chain per site, all sites of the block sharing each step's
/// matrix stream.  Every site's result is bitwise identical to its block
/// of one (asserted in tests and by sdc_run --assert-identical), so
/// batching is purely a traffic optimization.  Each site starts at its
/// boundary of \p base with its campaign seeded with the boundary's
/// iteration count, which is bitwise the same solve as one from zero.
/// Once its campaign has fired, its hooks act as the recorded run's did,
/// so a site whose outer state is back on the recording bitwise rejoins it
/// there -- unless the recorded run's detector fires after that boundary
/// and the site's has not fired yet: its `detected` would then be lost.
/// \p point_indices names the sweep-point slots this block solves (not
/// necessarily contiguous: a resumed sweep blocks over the PENDING
/// points); \p xs provides one iterate buffer per instance.  All mutable
/// state (campaigns, detectors, event logs, solver workspace) is owned by
/// the caller's thread.
void run_block(solver::FtGmresSolver& ft, const la::Vector& b,
               const SweepConfig& config, const detail::ForkBase& base,
               std::span<const std::size_t> point_indices, SweepPoint* points,
               std::vector<la::Vector>& xs) {
  const std::size_t count = point_indices.size();
  std::vector<sdc::FaultCampaign> campaigns;
  campaigns.reserve(count);
  std::vector<std::unique_ptr<sdc::HessenbergBoundDetector>> detectors(count);
  std::vector<krylov::HookChain> chains(count);
  std::vector<krylov::ArnoldiHook*> hooks(count);
  std::vector<std::span<const double>> bs(count);
  std::vector<std::span<double>> xspans(count);
  std::vector<krylov::FtGmresStart> starts(count);
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t site = point_indices[s] * config.stride;
    starts[s] = base.start_for(site);
    campaigns.emplace_back(sweep_plan(config, site), base.skipped(starts[s]));
    chains[s].add(&campaigns.back());
    if (config.with_detector) {
      detectors[s] = std::make_unique<sdc::HessenbergBoundDetector>(
          config.detector_bound, config.detector_response);
      chains[s].add(detectors[s].get());
    }
    hooks[s] = &chains[s];
    starts[s].settled = [&base, campaign = &campaigns.back(),
                         detector = detectors[s].get()](std::size_t k) {
      return campaign->fired() &&
             (detector == nullptr || detector->triggered() ||
              !base.detects_from(k));
    };
    bs[s] = b.span();
    xspans[s] = xs[s].span();
  }

  const std::vector<solver::SolveReport> runs =
      ft.solve_batch(bs, xspans, hooks, starts);

  for (std::size_t s = 0; s < count; ++s) {
    points[point_indices[s]] =
        make_sweep_point(runs[s], point_indices[s] * config.stride,
                         campaigns[s], detectors[s].get());
  }
}

} // namespace

void validate_sweep_config(const SweepConfig& config) {
  if (config.with_detector && config.detector_bound <= 0.0) {
    throw std::invalid_argument(
        "run_injection_sweep: detector enabled but detector_bound is not "
        "positive (use e.g. ||A||_F)");
  }
  if (config.stride == 0) {
    throw std::invalid_argument("run_injection_sweep: stride must be >= 1");
  }
  if (config.batch == 0) {
    throw std::invalid_argument(
        "run_injection_sweep: batch must be >= 1 (1 = solo solves)");
  }
  if (config.solver.inner.max_iters == 0) {
    throw std::invalid_argument(
        "run_injection_sweep: inner.max_iters == 0 admits no injection "
        "sites (the site axis counts inner Arnoldi iterations)");
  }
  if (config.target == sdc::InjectionTarget::PowerElement &&
      config.solver.inner.s_step < 2) {
    throw std::invalid_argument(
        "run_injection_sweep: fault_target=powers corrupts a staged matrix "
        "power, which only exists in the s-step inner mode; set s >= 2 "
        "(valid range: 2..restart cycle length)");
  }
}

namespace detail {

std::vector<std::size_t> PreparedSweep::pending(std::size_t first,
                                                std::size_t count) const {
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    if (done[i] == 0) out.push_back(i);
  }
  return out;
}

SweepJournalContents PreparedSweep::fold(const std::string& path) {
  SweepJournalContents loaded = SweepJournal::load(path);
  if (loaded.has_header && loaded.header != header) {
    throw std::invalid_argument(
        "run_injection_sweep: journal '" + path +
        "' was written for a different sweep (header mismatch); "
        "delete it or fix the scenario");
  }
  for (const auto& [index, point] : loaded.points) {
    if (index >= header.n_points) {
      throw std::invalid_argument(
          "run_injection_sweep: journal '" + path + "' holds point index " +
          std::to_string(index) + " but this sweep has only " +
          std::to_string(header.n_points) + " points (header mismatch)");
    }
    result.points[index] = point; // duplicates: last occurrence wins
    done[index] = 1;
  }
  return loaded;
}

PreparedSweep prepare_sweep(const sparse::CsrMatrix& A, const la::Vector& b,
                            const SweepConfig& config) {
  validate_sweep_config(config);
  PreparedSweep prep;
  SweepConfig& cfg = prep.config;
  SweepResult& result = prep.result;

  // The detector response carries the recovery policy: any response
  // beyond record/abort translates onto the nested solver's
  // InnerRecovery (sdc::inner_recovery_for).  Runs where no detector
  // fires are bitwise identical at every policy.
  cfg = config;
  if (cfg.with_detector) {
    const krylov::InnerRecovery rec =
        sdc::inner_recovery_for(cfg.detector_response);
    if (rec != krylov::InnerRecovery::None) cfg.solver.recovery = rec;
  }

  // --- Execution backend: one assembly serves the baseline and every
  // worker thread and process (each worker still gets its OWN thin
  // operator so traffic counters stay per-worker).  Every backend is
  // bitwise identical to csr per solve, so the determinism contract is
  // unaffected.
  if (!cfg.backend) {
    cfg.backend = solver::backend_registry().make(cfg.backend_key, A);
  }

  // --- Failure-free baseline: learns the injection-site count and
  // records the outer boundaries the sites fork from. ---
  const std::unique_ptr<krylov::LinearOperator> baseline_op =
      cfg.backend->make_operator(A);
  const krylov::FtGmresResult baseline =
      run_recorded_baseline(*baseline_op, b, cfg, prep.base);
  result.baseline_outer = baseline.outer_iterations;
  result.baseline_total_inner = baseline.total_inner_iterations;
  result.baseline_converged =
      baseline.status == krylov::SolveStatus::Converged ||
      baseline.status == krylov::SolveStatus::HappyBreakdown;
  result.baseline_global_syncs = baseline.global_syncs;

  // --- One faulty solve per (sampled) injection site. ---
  std::size_t last_site = result.baseline_total_inner;
  if (cfg.site_limit > 0) {
    last_site = std::min(last_site, cfg.site_limit);
  }
  const std::size_t n_points = (last_site + cfg.stride - 1) / cfg.stride;
  if (n_points == 0) {
    throw std::invalid_argument(
        "run_injection_sweep: the site_limit/stride combination selects "
        "zero injection sites (baseline produced " +
        std::to_string(result.baseline_total_inner) +
        " inner iterations, site_limit=" + std::to_string(cfg.site_limit) +
        ", stride=" + std::to_string(cfg.stride) + ")");
  }
  result.points.resize(n_points);
  prep.done.assign(n_points, 0);

  // --- Checkpoint/resume.  The journaled header must match the live
  // sweep's measured shape -- resuming some OTHER sweep's journal would
  // silently poison the merged result.
  prep.header = {
      .version = 2,
      .baseline_outer = result.baseline_outer,
      .baseline_total_inner = result.baseline_total_inner,
      .baseline_converged = result.baseline_converged,
      .n_points = n_points,
      .stride = cfg.stride,
      .site_limit = cfg.site_limit,
  };
  if (!cfg.journal.empty()) {
    // A resume folds in the range journals a dead sharded parent left
    // behind, so their points are not re-solved.  The restored traffic is
    // the sum of the journals' last stats records: what previous
    // incarnations paid for the journaled points.  Folding it into
    // operator_stats makes a resumed run's totals -- and hence the result
    // JSON -- identical to an uninterrupted run (partial work a crash
    // destroyed was never published and is re-solved in full).
    const std::vector<std::string> ranges = journal_range_paths(cfg.journal);
    std::vector<std::pair<std::size_t, SweepPoint>> journaled;
    bool restore_stats = false;
    if (cfg.resume) {
      std::vector<std::string> paths{cfg.journal};
      paths.insert(paths.end(), ranges.begin(), ranges.end());
      for (const std::string& path : paths) {
        const SweepJournalContents loaded = prep.fold(path);
        journaled.insert(journaled.end(), loaded.points.begin(),
                         loaded.points.end());
        if (loaded.has_stats) {
          prep.restored.traffic += loaded.stats.traffic;
          restore_stats = true;
        }
      }
    }
    prep.restored.points_done = static_cast<std::size_t>(
        std::count(prep.done.begin(), prep.done.end(), static_cast<char>(1)));
    // Compact (a fresh run truncates to the header): drops a
    // crash-truncated tail line so new records start on a clean line, and
    // carries the restored stats record so a second crash still restores
    // it.  Only then are the folded range journals redundant.
    SweepJournal::write_merged(cfg.journal, prep.header, journaled,
                               restore_stats ? &prep.restored : nullptr);
    for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
      (void)std::remove(it->c_str());
    }
  }
  result.operator_stats = prep.restored.traffic;
  return prep;
}

void solve_points(PreparedSweep& prep, const sparse::CsrMatrix& A,
                  const la::Vector& b, std::span<const std::size_t> pending,
                  const std::string& journal, const SweepRunningStats& resumed,
                  const std::function<void(std::size_t)>& on_flush) {
  const SweepConfig& cfg = prep.config;
  std::optional<SweepJournal> writer;
  if (!journal.empty()) writer.emplace(journal);

  // Determinism contract: every kernel reduction is bitwise independent
  // of the OpenMP thread count, and points merge by site, so a sweep at
  // threads == N is bitwise identical to threads == 1: same points, same
  // order, same doubles.  The sweep owns the parallelism: every solve
  // runs inside a sweep-created OpenMP region with its per-thread kernel
  // threading pinned to 1 (a tuning choice; nthreads-var is a per-region
  // ICV, so the pin dies with the region).
  int workers = 1;
#ifdef _OPENMP
  workers = cfg.threads == 0 ? omp_get_max_threads()
                             : static_cast<int>(cfg.threads);
  if (workers < 1) workers = 1;
#endif

  // Batching: each worker packs `batch` consecutive pending points into
  // one lockstep multi-RHS solve, so every step streams the matrix once
  // for the whole block instead of once per site.  The schedule runs over
  // BLOCKS; batch == 1 makes every block one site.
  const std::size_t batch = cfg.batch;
  const std::size_t n_blocks = (pending.size() + batch - 1) / batch;

  SweepPoint* points = prep.result.points.data();
  // Journal-level progress: already-journaled points plus what this run
  // flushes, so the stats records stay cumulative across resumes.
  std::size_t completed = resumed.points_done;
  // Per-worker traffic snapshots, published under the journal critical
  // section so each flush can append a cumulative `stats` progress record
  // (the journal doubles as the job's live progress stream).
  std::vector<krylov::OperatorStats> worker_stats(
      static_cast<std::size_t>(workers));
  std::exception_ptr error;
#pragma omp parallel num_threads(workers)
  {
#ifdef _OPENMP
    omp_set_num_threads(1); // solver kernels stay serial inside a worker
#endif
    // One reusable façade solver per worker thread: its internal nested
    // workspace (per-instance slots + staging blocks) makes every solve
    // after the worker's first block allocation-free on the iteration path.
    const std::unique_ptr<krylov::LinearOperator> op_ptr =
        cfg.backend->make_operator(A);
    const krylov::LinearOperator& op = *op_ptr;
    solver::FtGmresSolver ft(op, cfg.solver);
    // No block is larger than the pending list, whatever batch says.
    std::vector<la::Vector> xs(std::min(batch, pending.size()),
                               la::Vector(b.size()));
#pragma omp for schedule(dynamic)
    for (std::int64_t idx = 0; idx < static_cast<std::int64_t>(n_blocks);
         ++idx) {
      try {
        const std::size_t first = static_cast<std::size_t>(idx) * batch;
        const std::size_t count = std::min(batch, pending.size() - first);
        const std::span<const std::size_t> block(pending.data() + first,
                                                 count);
        run_block(ft, b, cfg, prep.base, block, points, xs);
        if (writer) {
          // Serialize journal traffic; each flush is a durability point
          // (these records survive a SIGKILL of this process).
#pragma omp critical(sdcgmres_sweep_journal)
          {
            for (const std::size_t p : block) {
              writer->append_point(p, points[p]);
            }
            completed += count;
            // Publish this worker's current traffic and append one
            // cumulative stats record per flush: the journal is the
            // job's live progress stream (tail_sweep_journal reads it
            // back), and these counters are the incremental view of
            // what SweepResult::operator_stats will total.
            int tid = 0;
#ifdef _OPENMP
            tid = omp_get_thread_num();
#endif
            krylov::OperatorStats mine = op.stats();
            mine += ft.mixed_stats();
            worker_stats[static_cast<std::size_t>(tid)] = mine;
            SweepRunningStats running;
            running.points_done = completed;
            running.traffic = resumed.traffic;
            for (const krylov::OperatorStats& ws : worker_stats) {
              running.traffic += ws;
            }
            writer->append_stats(running);
            writer->flush();
            if (on_flush) on_flush(completed);
          }
        }
      } catch (...) {
        // An exception may not cross the region boundary (std::terminate);
        // keep the first one and rethrow it on the calling thread.
#pragma omp critical(sdcgmres_sweep_error)
        if (!error) error = std::current_exception();
      }
    }
    // Each worker counted its own operator's traffic; the sum of counters
    // is order-independent, so the merged stats are deterministic too.
    // On mixed precision/index configurations the inner solves stream the
    // narrowed mirror instead of the operator, so its counters are folded
    // in too -- bytes then reflect the compressed traffic actually paid.
#pragma omp critical(sdcgmres_sweep_stats)
    {
      prep.result.operator_stats += op.stats();
      prep.result.operator_stats += ft.mixed_stats();
    }
  }
  if (error) std::rethrow_exception(error);
}

} // namespace detail

SweepResult run_injection_sweep(const sparse::CsrMatrix& A,
                                const la::Vector& b,
                                const SweepConfig& config) {
  detail::PreparedSweep prep = detail::prepare_sweep(A, b, config);
  detail::solve_points(prep, A, b, prep.pending(0, prep.done.size()),
                       prep.config.journal, prep.restored);
  return std::move(prep.result);
}

} // namespace sdcgmres::experiment
