#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "service/artifacts.hpp"
#include "service/job.hpp"

namespace sdcgmres::service {

namespace {

/// Submit-sequence ids: "j" + zero-padded decimal, so lexicographic
/// order IS submission order.
std::string format_id(std::size_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "j%08zu", seq);
  return buf;
}

std::size_t parse_seq(const std::string& id) {
  if (id.size() < 2 || id[0] != 'j') return 0;
  std::size_t value = 0;
  for (std::size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    value = value * 10 + static_cast<std::size_t>(id[i] - '0');
  }
  return value;
}

/// Fold one journal tail into an aggregate (sharded jobs: the ranges
/// partition the point set, so counters sum without overlap).
void accumulate_progress(experiment::SweepProgress& total,
                         const experiment::SweepProgress& part) {
  if (!part.started) return;
  if (!total.started) total.header = part.header;
  total.started = true;
  total.points_done += part.points_done;
  total.failed += part.failed;
  total.detected += part.detected;
  total.diverged += part.diverged;
  total.deadline_exceeded += part.deadline_exceeded;
  total.reliable_retries += part.reliable_retries;
  total.outer_restarts += part.outer_restarts;
  if (part.has_stats) {
    total.has_stats = true;
    total.stats.points_done += part.stats.points_done;
    total.stats.traffic += part.stats.traffic;
  }
}

/// Tail \p id's progress: the merged journal once it exists, else the
/// per-range journals a sharded run is still writing.  A live writer may
/// be mid-append; tail_sweep_journal tolerates the unterminated tail.
experiment::SweepProgress job_progress(const SpoolPaths& paths,
                                       const std::string& id) {
  const std::string journal = paths.journals + "/" + id + ".jsonl";
  if (file_exists(journal)) {
    try {
      return experiment::tail_sweep_journal(journal);
    } catch (const std::exception&) {
      return {}; // a corrupt journal reads as "no progress", not a crash
    }
  }
  experiment::SweepProgress total;
  const std::string prefix = id + ".jsonl.range";
  std::error_code ec;
  std::vector<std::string> ranges;
  for (const auto& entry :
       std::filesystem::directory_iterator(paths.journals, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) ranges.push_back(entry.path().string());
  }
  std::sort(ranges.begin(), ranges.end());
  for (const std::string& path : ranges) {
    try {
      accumulate_progress(total, experiment::tail_sweep_journal(path));
    } catch (const std::exception&) {
    }
  }
  return total;
}

} // namespace

const char* to_string(JobStatus::State state) {
  switch (state) {
    case JobStatus::State::Queued: return "queued";
    case JobStatus::State::Running: return "running";
    case JobStatus::State::Done: return "done";
    case JobStatus::State::Failed: return "failed";
    case JobStatus::State::Unknown: break;
  }
  return "unknown";
}

SweepScheduler::SweepScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      paths_(spool_paths(options_.root)),
      cache_(options_.cache_bytes) {}

SweepScheduler::~SweepScheduler() { stop(); }

void SweepScheduler::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  paths_ = init_spool(options_.root);
  requeued_at_start_ = requeue_running(paths_);
  // Resume the submit sequence past every id any state directory holds,
  // so a restarted service never reissues an id.
  seq_ = 0;
  for (const std::string* dir :
       {&paths_.queue, &paths_.running, &paths_.done, &paths_.failed}) {
    for (const std::string& id : list_jobs(*dir)) {
      seq_ = std::max(seq_, parse_seq(id));
    }
  }
  stop_ = false;
  started_ = true;
  const std::size_t n = std::max<std::size_t>(1, options_.max_concurrent_jobs);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SweepScheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
}

std::string SweepScheduler::submit(const std::string& body) {
  std::string id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = format_id(++seq_);
    ++submitted_;
  }
  submit_job(paths_, id, body);
  {
    // Bumped only once the job file is in queue/, so a worker the counter
    // wakes is guaranteed to find it.
    std::lock_guard<std::mutex> lock(mutex_);
    ++queued_signals_;
  }
  cv_.notify_one();
  return id;
}

const SweepScheduler::JobMeta& SweepScheduler::meta_locked(
    const std::string& id) {
  const auto it = meta_.find(id);
  if (it != meta_.end()) return it->second;
  JobMeta meta;
  try {
    const JobRecord job = load_job_file(job_path(paths_.queue, id));
    meta.tenant = job.tenant;
    meta.priority = job.priority;
  } catch (const std::exception&) {
    // Malformed jobs still get scheduled (under the default tenant at
    // priority 0) so the claiming worker can quarantine them with a
    // reason file -- dropping them here would lose the diagnosis.
    meta.tenant = "default";
  }
  return meta_.emplace(id, std::move(meta)).first->second;
}

std::string SweepScheduler::pick_and_claim_locked() {
  const std::vector<std::string> queued = list_jobs(paths_.queue);
  if (queued.empty()) return {};

  // Group by tenant (std::map iterates tenants in sorted order -- the
  // cyclic round-robin order).
  std::map<std::string, std::vector<const std::string*>> by_tenant;
  for (const std::string& id : queued) {
    by_tenant[meta_locked(id).tenant].push_back(&id);
  }

  // Round-robin: the first tenant strictly after the last served one,
  // wrapping to the smallest.
  auto turn = by_tenant.upper_bound(last_tenant_);
  if (turn == by_tenant.end()) turn = by_tenant.begin();

  // Within the tenant: highest priority, then FIFO (ids sort by submit
  // sequence, and list_jobs returned them sorted).
  const std::string* best = nullptr;
  long best_priority = 0;
  for (const std::string* id : turn->second) {
    const long priority = meta_locked(*id).priority;
    if (best == nullptr || priority > best_priority) {
      best = id;
      best_priority = priority;
    }
  }

  if (!claim_job(paths_, *best)) return {}; // raced; re-poll
  last_tenant_ = turn->first;
  return *best;
}

void SweepScheduler::worker_loop() {
  while (true) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) break;
    const std::string id = pick_and_claim_locked();
    if (id.empty()) {
      // Wake on stop or on any submission since the (empty) scan above;
      // the poll only catches jobs that arrive in queue/ by other means.
      const std::size_t seen = queued_signals_;
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                   [&] { return stop_ || queued_signals_ != seen; });
      continue;
    }
    ++running_jobs_;
    lock.unlock();
    run_one(id);
    if (options_.on_job_finished) options_.on_job_finished(id);
    lock.lock();
    --running_jobs_;
    meta_.erase(id);
  }
}

void SweepScheduler::run_one(const std::string& id) {
  JobRecord job;
  try {
    job = load_job_file(job_path(paths_.running, id));
    job.id = id;
  } catch (const std::exception& e) {
    // Quarantine: the job file itself is bad (parse error, duplicate
    // key, forbidden journal=/resume=, unknown scenario key).
    try {
      fail_job(paths_, id, e.what());
    } catch (const std::exception&) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    return;
  }

  try {
    experiment::ScenarioSeams seams;
    seams.problem = cached_problem(cache_, job.spec);
    seams.frobenius_norm =
        *cached_calibration(cache_, job.spec, *seams.problem);
    seams.backend = cached_backend(cache_, job.spec, *seams.problem);
    if (!job.spec.get_bool("sweep", false)) {
      seams.precond = cached_preconditioner(cache_, job.spec, *seams.problem);
    }
    seams.journal = paths_.journals + "/" + id + ".jsonl";
    seams.resume = true; // a missing journal is a fresh start
    const experiment::ScenarioResult result =
        experiment::run_scenario(job.spec, seams);

    std::ostringstream json;
    experiment::write_scenario_json(json, result);
    // Result first, then the state transition: "done" implies the result
    // file exists (a crash between the two re-runs the job, which the
    // journal makes cheap and bitwise identical).
    atomic_write(paths_.tmp, paths_.done + "/" + id + ".json", json.str());
    finish_job(paths_, id);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
  } catch (const std::exception& e) {
    try {
      fail_job(paths_, id, e.what());
    } catch (const std::exception&) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
  }
}

JobStatus SweepScheduler::status(const std::string& id) const {
  JobStatus status;
  status.id = id;
  const auto fill_meta = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = meta_.find(id); it != meta_.end()) {
      status.tenant = it->second.tenant;
      status.priority = it->second.priority;
    }
  };
  if (file_exists(job_path(paths_.queue, id))) {
    status.state = JobStatus::State::Queued;
    fill_meta();
    return status;
  }
  if (file_exists(job_path(paths_.running, id))) {
    status.state = JobStatus::State::Running;
    fill_meta();
    status.progress = job_progress(paths_, id);
    return status;
  }
  if (file_exists(job_path(paths_.done, id))) {
    status.state = JobStatus::State::Done;
    status.progress = job_progress(paths_, id);
    return status;
  }
  if (file_exists(job_path(paths_.failed, id))) {
    status.state = JobStatus::State::Failed;
    try {
      status.reason = read_file(paths_.failed + "/" + id + ".reason");
      while (!status.reason.empty() && status.reason.back() == '\n') {
        status.reason.pop_back();
      }
    } catch (const std::exception&) {
    }
    return status;
  }
  return status;
}

bool SweepScheduler::read_result(const std::string& id,
                                 std::string* json) const {
  const std::string path = paths_.done + "/" + id + ".json";
  if (!file_exists(path)) return false;
  *json = read_file(path);
  return true;
}

SchedulerStats SweepScheduler::stats() const {
  SchedulerStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.submitted = submitted_;
    out.completed = completed_;
    out.failed = failed_;
    out.requeued_at_start = requeued_at_start_;
    out.running = running_jobs_;
  }
  out.queued = list_jobs(paths_.queue).size();
  out.cache = cache_.stats();
  return out;
}

std::string status_json(const JobStatus& status) {
  std::ostringstream out;
  out << "{\n"
      << "  \"id\": \"" << experiment::json_escape(status.id) << "\",\n"
      << "  \"state\": \"" << to_string(status.state) << "\"";
  if (!status.tenant.empty()) {
    out << ",\n  \"tenant\": \"" << experiment::json_escape(status.tenant)
        << "\",\n  \"priority\": " << status.priority;
  }
  if (status.state == JobStatus::State::Failed) {
    out << ",\n  \"reason\": \"" << experiment::json_escape(status.reason)
        << "\"";
  }
  if (status.progress.started) {
    const experiment::SweepProgress& p = status.progress;
    out << ",\n  \"progress\": {\n"
        << "    \"points_done\": " << p.points_done << ",\n"
        << "    \"points_total\": " << p.header.n_points << ",\n"
        << "    \"failed\": " << p.failed << ",\n"
        << "    \"detected\": " << p.detected << ",\n"
        << "    \"diverged\": " << p.diverged << ",\n"
        << "    \"deadline_exceeded\": " << p.deadline_exceeded << ",\n"
        << "    \"retried_reliable\": " << p.reliable_retries << ",\n"
        << "    \"restarted_outer\": " << p.outer_restarts;
    if (p.has_stats) {
      out << ",\n    \"matrix_streams\": " << p.stats.traffic.streams()
          << ",\n    \"operand_columns\": " << p.stats.traffic.columns()
          << ",\n    \"scalar_bytes\": " << p.stats.traffic.scalar_bytes
          << ",\n    \"index_bytes\": " << p.stats.traffic.index_bytes
          << ",\n    \"bytes_streamed\": " << p.stats.traffic.bytes();
    }
    out << "\n  }";
  }
  out << "\n}\n";
  return out.str();
}

std::string stats_json(const SchedulerStats& stats) {
  std::ostringstream out;
  out << "{\n"
      << "  \"jobs\": {\n"
      << "    \"submitted\": " << stats.submitted << ",\n"
      << "    \"completed\": " << stats.completed << ",\n"
      << "    \"failed\": " << stats.failed << ",\n"
      << "    \"requeued_at_start\": " << stats.requeued_at_start << ",\n"
      << "    \"queued\": " << stats.queued << ",\n"
      << "    \"running\": " << stats.running << "\n  },\n"
      << "  \"cache\": {\n"
      << "    \"hits\": " << stats.cache.hits << ",\n"
      << "    \"misses\": " << stats.cache.misses << ",\n"
      << "    \"evictions\": " << stats.cache.evictions << ",\n"
      << "    \"oversize\": " << stats.cache.oversize << ",\n"
      << "    \"entries\": " << stats.cache.entries << ",\n"
      << "    \"bytes\": " << stats.cache.bytes << ",\n"
      << "    \"byte_budget\": " << stats.cache.byte_budget << "\n  }\n"
      << "}\n";
  return out.str();
}

} // namespace sdcgmres::service
