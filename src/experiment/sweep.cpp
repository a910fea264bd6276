#include "experiment/sweep.hpp"

#include <algorithm>
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

#include "experiment/journal.hpp"
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

} // namespace

krylov::FtGmresResult run_baseline(const sparse::CsrMatrix& A,
                                   const la::Vector& b,
                                   const krylov::FtGmresOptions& opts) {
  // Pinned like every sweep solve, so run_baseline always agrees with
  // run_injection_sweep's baseline fields exactly.
  krylov::FtGmresResult baseline;
  run_pinned([&] { baseline = krylov::ft_gmres(A, b, opts, nullptr); });
  return baseline;
}

krylov::FtGmresResult run_baseline(const krylov::LinearOperator& A,
                                   const la::Vector& b,
                                   const krylov::FtGmresOptions& opts) {
  krylov::FtGmresResult baseline;
  run_pinned([&] { baseline = krylov::ft_gmres(A, b, opts, nullptr); });
  return baseline;
}

namespace {

/// The one SolveReport -> SweepPoint translation, shared by the solo and
/// batched site runners so batch=1 and batch>1 points can never diverge
/// field-wise.
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

/// One faulty solve at one injection site, run through the unified
/// façade: \p ft is the worker's reusable FtGmresSolver (its internal
/// workspace makes every solve after the first allocation-free) and \p x
/// the worker's iterate buffer.  All mutable state (campaign, detector,
/// event logs, solver workspace) is owned by the caller's thread.
SweepPoint run_site(solver::FtGmresSolver& ft, const la::Vector& b,
                    const SweepConfig& config, std::size_t site,
                    la::Vector& x) {
  sdc::FaultCampaign campaign(sweep_plan(config, site));
  std::unique_ptr<sdc::HessenbergBoundDetector> detector;
  krylov::HookChain chain;
  chain.add(&campaign);
  if (config.with_detector) {
    detector = std::make_unique<sdc::HessenbergBoundDetector>(
        config.detector_bound, config.detector_response);
    chain.add(detector.get());
  }

  ft.set_hook(&chain);
  const solver::SolveReport run = ft.solve(b.span(), x.span());
  ft.set_hook(nullptr);

  return make_sweep_point(run, site, campaign, detector.get());
}

/// A block of faulty solves advanced in lockstep (config.batch > 1): one
/// fault campaign + detector chain per site, all sites of the block
/// sharing each outer iteration's matrix stream through
/// BatchedFtGmresSolver.  Every site's result is bitwise identical to its
/// run_site() solo run (asserted in tests and by sdc_run
/// --assert-identical), so batching is purely a traffic optimization.
/// \p point_indices names the sweep-point slots this block solves (not
/// necessarily contiguous: a resumed sweep blocks over the PENDING
/// points); \p xs provides one iterate buffer per instance.
void run_block(solver::BatchedFtGmresSolver& ft, const la::Vector& b,
               const SweepConfig& config,
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
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t site = point_indices[s] * config.stride;
    campaigns.emplace_back(sweep_plan(config, site));
    chains[s].add(&campaigns.back());
    if (config.with_detector) {
      detectors[s] = std::make_unique<sdc::HessenbergBoundDetector>(
          config.detector_bound, config.detector_response);
      chains[s].add(detectors[s].get());
    }
    hooks[s] = &chains[s];
    bs[s] = b.span();
    xspans[s] = xs[s].span();
  }

  const std::vector<solver::SolveReport> runs =
      ft.solve_batch(bs, xspans, hooks);

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

SweepResult run_injection_sweep(const sparse::CsrMatrix& A,
                                const la::Vector& b,
                                const SweepConfig& config) {
  validate_sweep_config(config);

  // The detector response carries the recovery policy: any response
  // beyond record/abort translates onto the nested solver's
  // InnerRecovery (sdc::inner_recovery_for).  Runs where no detector
  // fires are bitwise identical at every policy.
  SweepConfig cfg = config;
  if (cfg.with_detector) {
    const krylov::InnerRecovery rec =
        sdc::inner_recovery_for(cfg.detector_response);
    if (rec != krylov::InnerRecovery::None) cfg.solver.recovery = rec;
  }

  SweepResult result;

  // Determinism contract: every kernel reduction is bitwise independent
  // of the OpenMP thread count, and points merge by site, so a sweep at
  // threads == N is bitwise identical to threads == 1: same points, same
  // order, same doubles.  The sweep owns the parallelism: every solve
  // (baseline included) runs inside a sweep-created OpenMP region with its
  // per-thread kernel threading pinned to 1 (a tuning choice; nthreads-var
  // is a per-region ICV, so the pin dies with the region).

  // --- Execution backend: one assembly serves the baseline and every
  // worker (each worker still gets its OWN thin operator so traffic
  // counters stay per-worker).  Every backend is bitwise identical to
  // csr per solve, so the determinism contract above is unaffected.
  const std::shared_ptr<const krylov::MatrixBackend> backend =
      cfg.backend ? cfg.backend
                  : solver::backend_registry().make(cfg.backend_key, A);

  // --- Failure-free baseline: learns the injection-site count. ---
  const std::unique_ptr<krylov::LinearOperator> baseline_op =
      backend->make_operator(A);
  const krylov::FtGmresResult baseline =
      run_baseline(*baseline_op, b, cfg.solver);
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

  // --- Checkpoint/resume: load the journal, mark completed points, and
  // open the append writer.  The journaled header must match the live
  // sweep's measured shape -- resuming some OTHER sweep's journal would
  // silently poison the merged result.
  const SweepJournalHeader header{
      .version = 2,
      .baseline_outer = result.baseline_outer,
      .baseline_total_inner = result.baseline_total_inner,
      .baseline_converged = result.baseline_converged,
      .n_points = n_points,
      .stride = cfg.stride,
      .site_limit = cfg.site_limit,
  };
  std::vector<char> done(n_points, 0);
  std::optional<SweepJournal> writer;
  // Traffic baseline restored from the journal's last stats record: the
  // counters the previous incarnation(s) paid for the already-journaled
  // points.  Folding it into operator_stats makes a resumed run's totals
  // -- and hence the result JSON -- bitwise identical to an uninterrupted
  // run (each completed point's traffic is counted exactly once; partial
  // work a crash destroyed was never published and is re-solved in full).
  krylov::OperatorStats resumed_traffic;
  bool restore_stats = false;
  if (!cfg.journal.empty()) {
    if (cfg.resume) {
      SweepJournalContents loaded = SweepJournal::load(cfg.journal);
      if (loaded.has_header && loaded.header != header) {
        throw std::invalid_argument(
            "run_injection_sweep: journal '" + cfg.journal +
            "' was written for a different sweep (header mismatch); "
            "delete it or fix the scenario");
      }
      for (const auto& [index, point] : loaded.points) {
        if (index >= n_points) {
          throw std::invalid_argument(
              "run_injection_sweep: journal '" + cfg.journal +
              "' holds point index " + std::to_string(index) +
              " but this sweep has only " + std::to_string(n_points) +
              " points (header mismatch)");
        }
        result.points[index] = point; // duplicates: last occurrence wins
        done[index] = 1;
      }
      if (loaded.has_stats) {
        resumed_traffic = loaded.stats.traffic;
        restore_stats = true;
      }
      // Compact before appending: drops a crash-truncated tail line so
      // new records start on a clean line, and dedups re-queued ranges.
      SweepJournal::write_merged(cfg.journal, header, loaded.points);
    } else {
      // Fresh run: truncate any stale journal down to the header.
      SweepJournal::write_merged(cfg.journal, header, {});
    }
    writer.emplace(cfg.journal);
  }
  result.operator_stats = resumed_traffic;
  const std::size_t journaled_points = static_cast<std::size_t>(
      std::count(done.begin(), done.end(), static_cast<char>(1)));
  if (writer && restore_stats) {
    // write_merged's compaction dropped the stats lines; re-seed the
    // restored baseline record so a tailing reader keeps seeing the
    // cumulative traffic and a second crash still restores correctly.
    SweepRunningStats restored;
    restored.points_done = journaled_points;
    restored.traffic = resumed_traffic;
    writer->append_stats(restored);
    writer->flush();
  }

  // --- Range restriction (the shard seam): this run solves only the
  // pending points inside [point_offset, point_offset + point_count).
  const std::size_t first_point = std::min(cfg.point_offset, n_points);
  const std::size_t range_count =
      cfg.point_count == 0
          ? n_points - first_point
          : std::min(cfg.point_count, n_points - first_point);
  std::vector<std::size_t> pending;
  pending.reserve(range_count);
  for (std::size_t i = first_point; i < first_point + range_count; ++i) {
    if (done[i] == 0) pending.push_back(i);
  }

  int workers = 1;
#ifdef _OPENMP
  workers = cfg.threads == 0 ? omp_get_max_threads()
                             : static_cast<int>(cfg.threads);
  if (workers < 1) workers = 1;
#endif

  // Batching: each worker packs `batch` consecutive pending points into
  // one lockstep multi-RHS solve, so every outer iteration streams the
  // matrix once for the whole block instead of once per site.  The
  // schedule runs over BLOCKS; with batch == 1 this is exactly the
  // per-site schedule of earlier generations.
  const std::size_t batch = cfg.batch;
  const std::size_t n_blocks = (pending.size() + batch - 1) / batch;

  SweepPoint* points = result.points.data();
  // Journal-level progress: already-journaled points plus what this run
  // flushes, so the stats records stay cumulative across resumes.
  std::size_t completed = journaled_points;
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
    // One reusable façade solver per worker thread (solo or batched by
    // mode): its internal nested workspace (per-instance slots + staging
    // blocks in batch mode) makes every solve after the worker's first
    // block allocation-free on the iteration path.
    const std::unique_ptr<krylov::LinearOperator> op_ptr =
        backend->make_operator(A);
    const krylov::LinearOperator& op = *op_ptr;
    std::optional<solver::FtGmresSolver> ft;
    std::optional<solver::BatchedFtGmresSolver> ft_batch;
    la::Vector x;
    std::vector<la::Vector> xs;
    if (batch == 1) {
      ft.emplace(op, cfg.solver);
      x.resize(b.size());
    } else {
      ft_batch.emplace(op, cfg.solver);
      xs.assign(batch, la::Vector(b.size()));
    }
#pragma omp for schedule(dynamic)
    for (std::int64_t idx = 0; idx < static_cast<std::int64_t>(n_blocks);
         ++idx) {
      try {
        const std::size_t first = static_cast<std::size_t>(idx) * batch;
        const std::size_t count = std::min(batch, pending.size() - first);
        const std::span<const std::size_t> block(pending.data() + first,
                                                 count);
        if (batch == 1) {
          points[block[0]] = run_site(*ft, b, cfg, block[0] * cfg.stride, x);
        } else {
          run_block(*ft_batch, b, cfg, block, points, xs);
        }
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
            if (ft) mine += ft->mixed_stats();
            if (ft_batch) mine += ft_batch->mixed_stats();
            worker_stats[static_cast<std::size_t>(tid)] = mine;
            SweepRunningStats running;
            running.points_done = completed;
            running.traffic = resumed_traffic;
            for (const krylov::OperatorStats& ws : worker_stats) {
              running.traffic += ws;
            }
            writer->append_stats(running);
            writer->flush();
            if (cfg.on_progress) cfg.on_progress(completed);
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
    // (A resumed sweep adds its re-executed solves on top of the baseline
    // restored from the journal's last stats record, so the totals match
    // an uninterrupted run exactly.)  On mixed precision/index
    // configurations the inner solves stream the narrowed mirror instead
    // of the operator, so its counters are folded in too -- bytes then
    // reflect the compressed traffic actually paid.
#pragma omp critical(sdcgmres_sweep_stats)
    {
      result.operator_stats += op.stats();
      if (ft) result.operator_stats += ft->mixed_stats();
      if (ft_batch) result.operator_stats += ft_batch->mixed_stats();
    }
  }
  if (error) std::rethrow_exception(error);
  return result;
}

} // namespace sdcgmres::experiment
