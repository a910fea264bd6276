#include "experiment/journal.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "krylov/status.hpp"

namespace sdcgmres::experiment {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
  throw std::runtime_error("sweep journal '" + path + "': " + reason);
}

[[noreturn]] void fail_errno(const std::string& path,
                             const std::string& action) {
  fail(path, action + " failed: " + std::strerror(errno));
}

// ---------------------------------------------------------------------------
// Record formatting.  The journal's JSON needs are tiny (flat objects,
// unsigned integers, booleans, and two enum-spelling strings), so both the
// writer and the reader are hand-rolled -- no JSON dependency.
// ---------------------------------------------------------------------------

void put_u64(std::string& out, const char* key, std::uint64_t value,
             bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void put_bool(std::string& out, const char* key, bool value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

void put_str(std::string& out, const char* key, const char* value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += value; // journal strings are enum spellings: no escaping needed
  out += '"';
}

/// Doubles round-trip as raw IEEE-754 bit patterns: a resumed point's
/// residual is the exact double the original solve produced.
std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string format_header(const SweepJournalHeader& h) {
  std::string line = "{\"type\":\"header\"";
  put_u64(line, "version", h.version);
  put_u64(line, "baseline_outer", h.baseline_outer);
  put_u64(line, "baseline_total_inner", h.baseline_total_inner);
  put_bool(line, "baseline_converged", h.baseline_converged);
  put_u64(line, "n_points", h.n_points);
  put_u64(line, "stride", h.stride);
  put_u64(line, "site_limit", h.site_limit);
  line += "}\n";
  return line;
}

std::string format_point(std::size_t index, const SweepPoint& p) {
  std::string line = "{\"type\":\"point\"";
  put_u64(line, "index", index);
  put_u64(line, "site", p.aggregate_iteration);
  put_u64(line, "outer", p.outer_iterations);
  put_str(line, "status", krylov::to_string(p.status));
  put_bool(line, "converged", p.converged);
  put_bool(line, "injected", p.injected);
  put_bool(line, "detected", p.detected);
  put_u64(line, "sanitized", p.sanitized_outputs);
  put_u64(line, "inner_applies", p.inner_applies);
  put_u64(line, "inner_diverged", p.inner_diverged);
  put_u64(line, "retries", p.reliable_retries);
  put_u64(line, "restarts", p.outer_restarts);
  put_u64(line, "syncs", p.global_syncs);
  put_u64(line, "residual_bits", double_bits(p.residual_norm));
  line += "}\n";
  return line;
}

std::string format_stats(const SweepRunningStats& s) {
  // The raw OperatorStats decomposition, not the derived streams/columns
  // sums: a resume restores this record as its traffic baseline, so it
  // must round-trip the exact counters operator_stats accumulates.
  std::string line = "{\"type\":\"stats\"";
  put_u64(line, "done", s.points_done);
  put_u64(line, "applies", s.traffic.apply_calls);
  put_u64(line, "block_applies", s.traffic.apply_block_calls);
  put_u64(line, "block_columns", s.traffic.block_columns);
  put_u64(line, "scalar_bytes", s.traffic.scalar_bytes);
  put_u64(line, "index_bytes", s.traffic.index_bytes);
  line += "}\n";
  return line;
}

// ---------------------------------------------------------------------------
// Record parsing.
// ---------------------------------------------------------------------------

/// Locate `"key":` in \p line and return a pointer to the value token, or
/// nullptr when the key is absent.
const char* find_value(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  return line.c_str() + pos + needle.size();
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || errno != 0) return false;
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

bool get_bool(const std::string& line, const char* key, bool& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  if (std::strncmp(v, "true", 4) == 0) {
    out = true;
    return true;
  }
  if (std::strncmp(v, "false", 5) == 0) {
    out = false;
    return true;
  }
  return false;
}

bool get_str(const std::string& line, const char* key, std::string& out) {
  const char* v = find_value(line, key);
  if (v == nullptr || *v != '"') return false;
  const char* end = std::strchr(v + 1, '"');
  if (end == nullptr) return false;
  out.assign(v + 1, end);
  return true;
}

bool parse_header(const std::string& line, SweepJournalHeader& h) {
  std::uint64_t u = 0;
  if (!get_u64(line, "version", u)) return false;
  h.version = static_cast<std::size_t>(u);
  if (!get_u64(line, "baseline_outer", u)) return false;
  h.baseline_outer = static_cast<std::size_t>(u);
  if (!get_u64(line, "baseline_total_inner", u)) return false;
  h.baseline_total_inner = static_cast<std::size_t>(u);
  if (!get_bool(line, "baseline_converged", h.baseline_converged)) {
    return false;
  }
  if (!get_u64(line, "n_points", u)) return false;
  h.n_points = static_cast<std::size_t>(u);
  if (!get_u64(line, "stride", u)) return false;
  h.stride = static_cast<std::size_t>(u);
  if (!get_u64(line, "site_limit", u)) return false;
  h.site_limit = static_cast<std::size_t>(u);
  return true;
}

bool parse_point(const std::string& line, std::size_t& index, SweepPoint& p) {
  std::uint64_t u = 0;
  if (!get_u64(line, "index", u)) return false;
  index = static_cast<std::size_t>(u);
  if (!get_u64(line, "site", u)) return false;
  p.aggregate_iteration = static_cast<std::size_t>(u);
  if (!get_u64(line, "outer", u)) return false;
  p.outer_iterations = static_cast<std::size_t>(u);
  std::string status;
  if (!get_str(line, "status", status) ||
      !krylov::status_from_string(status.c_str(), p.status)) {
    return false;
  }
  if (!get_bool(line, "converged", p.converged)) return false;
  if (!get_bool(line, "injected", p.injected)) return false;
  if (!get_bool(line, "detected", p.detected)) return false;
  if (!get_u64(line, "sanitized", u)) return false;
  p.sanitized_outputs = static_cast<std::size_t>(u);
  if (!get_u64(line, "inner_applies", u)) return false;
  p.inner_applies = static_cast<std::size_t>(u);
  if (!get_u64(line, "inner_diverged", u)) return false;
  p.inner_diverged = static_cast<std::size_t>(u);
  if (!get_u64(line, "retries", u)) return false;
  p.reliable_retries = static_cast<std::size_t>(u);
  if (!get_u64(line, "restarts", u)) return false;
  p.outer_restarts = static_cast<std::size_t>(u);
  // "syncs" arrived with header version 2; leave a version-1 point's count
  // at zero so the header mismatch (not a parse error) reports the problem.
  if (get_u64(line, "syncs", u)) p.global_syncs = static_cast<std::size_t>(u);
  if (!get_u64(line, "residual_bits", u)) return false;
  p.residual_norm = bits_double(u);
  return true;
}

bool parse_stats(const std::string& line, SweepRunningStats& s) {
  std::uint64_t u = 0;
  if (!get_u64(line, "done", u)) return false;
  s.points_done = static_cast<std::size_t>(u);
  if (!get_u64(line, "applies", u)) return false;
  s.traffic.apply_calls = static_cast<std::size_t>(u);
  if (!get_u64(line, "block_applies", u)) return false;
  s.traffic.apply_block_calls = static_cast<std::size_t>(u);
  if (!get_u64(line, "block_columns", u)) return false;
  s.traffic.block_columns = static_cast<std::size_t>(u);
  if (!get_u64(line, "scalar_bytes", u)) return false;
  s.traffic.scalar_bytes = static_cast<std::size_t>(u);
  if (!get_u64(line, "index_bytes", u)) return false;
  s.traffic.index_bytes = static_cast<std::size_t>(u);
  return true;
}

void write_fully(int fd, const std::string& path, const char* data,
                 std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "write");
    }
    written += static_cast<std::size_t>(n);
  }
}

} // namespace

// ---------------------------------------------------------------------------
// load
// ---------------------------------------------------------------------------

SweepJournalContents SweepJournal::load(const std::string& path) {
  SweepJournalContents contents;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return contents; // a fresh start, not an error
    fail_errno(path, "open for reading");
  }
  std::string data;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail_errno(path, "read");
    }
    if (n == 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      // Crash mid-append: the unterminated tail is discarded EVEN when it
      // parses -- a truncated number can parse to the wrong value.  The
      // dropped point is simply re-solved.
      contents.discarded_tail = true;
      break;
    }
    ++line_no;
    const std::string line = data.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;

    std::string type;
    if (get_str(line, "type", type)) {
      if (type == "header") {
        if (parse_header(line, contents.header)) {
          contents.has_header = true;
          continue;
        }
      } else if (type == "point") {
        std::size_t index = 0;
        SweepPoint point;
        if (parse_point(line, index, point)) {
          contents.points.emplace_back(index, point);
          continue;
        }
      } else if (type == "stats") {
        // Cumulative progress counters; each record supersedes the last.
        if (parse_stats(line, contents.stats)) {
          contents.has_stats = true;
          continue;
        }
      }
    }
    // An interior line that is not a well-formed record is corruption,
    // not truncation: refuse loudly rather than silently re-solving.
    fail(path, "malformed record at line " + std::to_string(line_no) +
                   " (delete the journal to start over)");
  }
  return contents;
}

std::string range_journal_path(const std::string& journal, std::size_t range) {
  return journal + ".range" + std::to_string(range);
}

std::vector<std::string> journal_range_paths(const std::string& journal) {
  std::vector<std::string> paths;
  for (std::string path = range_journal_path(journal, 0);
       ::access(path.c_str(), F_OK) == 0;
       path = range_journal_path(journal, paths.size())) {
    paths.push_back(path);
  }
  return paths;
}

// ---------------------------------------------------------------------------
// write_merged
// ---------------------------------------------------------------------------

void SweepJournal::write_merged(
    const std::string& path, const SweepJournalHeader& header,
    const std::vector<std::pair<std::size_t, SweepPoint>>& points,
    const SweepRunningStats* stats) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_errno(tmp, "open for writing");

  std::string body = format_header(header);
  for (const auto& [index, point] : points) {
    body += format_point(index, point);
  }
  if (stats != nullptr) body += format_stats(*stats);
  write_fully(fd, tmp, body.data(), body.size());
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(tmp, "fsync");
  }
  ::close(fd);

  // Atomic publish: readers see either the old journal or the complete
  // new one, never a partial rewrite.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    fail_errno(path, "rename into place");
  }
}

// ---------------------------------------------------------------------------
// Appending writer
// ---------------------------------------------------------------------------

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) fail_errno(path_, "open for appending");
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) {
    // Best effort on teardown; explicit flush() is the durability point.
    if (!buffer_.empty()) {
      ::write(fd_, buffer_.data(), buffer_.size());
    }
    ::close(fd_);
  }
}

void SweepJournal::append_header(const SweepJournalHeader& header) {
  buffer_ += format_header(header);
}

void SweepJournal::append_point(std::size_t index, const SweepPoint& point) {
  buffer_ += format_point(index, point);
}

void SweepJournal::append_stats(const SweepRunningStats& stats) {
  buffer_ += format_stats(stats);
}

void SweepJournal::flush() {
  if (buffer_.empty()) return;
  write_fully(fd_, path_, buffer_.data(), buffer_.size());
  buffer_.clear();
  if (::fsync(fd_) != 0) fail_errno(path_, "fsync");
}

// ---------------------------------------------------------------------------
// Tailing: the journal as a progress stream
// ---------------------------------------------------------------------------

SweepProgress tail_sweep_journal(const std::string& path) {
  const SweepJournalContents contents = SweepJournal::load(path);
  SweepProgress progress;
  progress.started = contents.has_header;
  progress.header = contents.header;
  progress.has_stats = contents.has_stats;
  progress.stats = contents.stats;

  // Re-queued shard ranges may journal a point twice; the LAST occurrence
  // is what a resume would keep, so count and aggregate by unique index
  // with last-wins (mirroring run_injection_sweep's resume path).
  std::map<std::size_t, const SweepPoint*> latest;
  for (const auto& [index, point] : contents.points) {
    latest[index] = &point;
  }
  progress.points_done = latest.size();
  for (const auto& [index, p] : latest) {
    if (!p->converged) ++progress.failed;
    if (p->detected) ++progress.detected;
    if (p->status == krylov::SolveStatus::Diverged || p->inner_diverged > 0) {
      ++progress.diverged;
    }
    if (p->status == krylov::SolveStatus::DeadlineExceeded) {
      ++progress.deadline_exceeded;
    }
    progress.reliable_retries += p->reliable_retries;
    progress.outer_restarts += p->outer_restarts;
  }
  return progress;
}

} // namespace sdcgmres::experiment
