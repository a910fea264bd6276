#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the layered benchmark harness: clocks,
/// order statistics, the metric sink, and the span tracer.
///
/// Spans are recorded only by the harness, around the public calls it
/// makes into the library (and, for solves, by a pass-through Arnoldi
/// hook).  A span's self time is its duration minus the part of its
/// interval that its child spans cover.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// OpenMP threads the library's kernels use (OMP_NUM_THREADS).
inline int kernel_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Pins the calling thread's kernels to one OpenMP thread for its scope,
/// as the sweep pins its own solves.
class SerialKernels {
public:
  SerialKernels() : saved_(kernel_threads()) { set(1); }
  ~SerialKernels() { set(saved_); }
  SerialKernels(const SerialKernels&) = delete;
  SerialKernels& operator=(const SerialKernels&) = delete;

private:
  static void set(int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  int saved_;
};

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the two middle values for an even count); 0 for empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]); 0 for empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Median wall time of \p reps calls of \p fn, in seconds.
template <typename Fn>
double median_time(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One recorded interval.  parent < 0 marks a root span.  The layer is
/// the name's prefix before the first '.'.
struct Span {
  std::string name;
  int parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

class Tracer {
public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now_s(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_s(); }
  int add(std::string name, int parent, double t0, double t1) {
    spans_.push_back({std::move(name), parent, t0, t1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int id, double t1) { spans_[static_cast<std::size_t>(id)].t1 = t1; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span: duration minus the union of its children's
  /// intervals clipped to its own.
  [[nodiscard]] std::vector<double> self_times() const;

  /// Self time summed by layer (name prefix).
  [[nodiscard]] std::map<std::string, double> self_by_layer() const;

  /// Total duration of spans named \p name.
  [[nodiscard]] double total(const std::string& name) const;

  /// Durations of spans named \p name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(Tracer* t, std::string name, int parent = -1)
      : t_(t), id_(t ? t->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

private:
  Tracer* t_;
  int id_;
};

inline std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> iv;
    iv.reserve(children[i].size());
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const double a = std::max(k.t0, s.t0);
      const double b = std::min(k.t1, s.t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = std::max(0.0, (s.t1 - s.t0) - covered);
  }
  return self;
}

inline std::map<std::string, double> Tracer::self_by_layer() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

inline double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.t1 - s.t0;
  }
  return sum;
}

inline std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

} // namespace perfbench
