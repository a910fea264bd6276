#pragma once
/// \file hooks.hpp
/// \brief Pass-through Arnoldi hooks the harness installs from outside the
/// library: they observe (never mutate) the inner solves.
///
/// TracingHook partitions each inner solve's timeline at the hook events
/// into non-overlapping segments, recorded as child spans of one
/// krylov.inner_solve span per inner solve:
///
///   solve_begin -> iteration_begin   krylov.inner_start (initial residual)
///   iteration_begin -> matvec_result sparse.inner_spmv (operator product)
///   matvec_result -> iteration_end   la.inner_ortho (orthogonalization,
///   iteration_end -> iteration_end                   norm, projected QR;
///                                                    s-step block commit)
///   matvec_result -> iteration_begin krylov.inner_stage (s-step staging)
///   iteration_end -> iteration_begin krylov.inner_step  (loop control)
///
/// The time from an inner solve's last event to the next solve_begin
/// (inner iterate update + the reliable outer FGMRES step) stays in the
/// parent span's self time.
///
/// TimingHook forwards every event to an inner hook (a fault campaign +
/// detector chain) and accumulates the time spent inside the forwarded
/// calls.

#include <cstddef>
#include <span>

#include "common.hpp"
#include "krylov/hooks.hpp"

namespace perfbench {

class TracingHook final : public sdcgmres::krylov::ArnoldiHook {
public:
  TracingHook(Tracer& tracer, int parent) : t_(tracer), parent_(parent) {}

  void on_solve_begin(std::size_t) override {
    finish();
    last_t_ = now_s();
    inner_ = t_.add("krylov.inner_solve", parent_, last_t_, last_t_);
    last_ = Event::Start;
  }
  void on_iteration_begin(const sdcgmres::krylov::ArnoldiContext&) override {
    segment(Event::Begin);
  }
  void on_matvec_result(const sdcgmres::krylov::ArnoldiContext&,
                        std::span<double>) override {
    segment(Event::Matvec);
  }
  void on_iteration_end(const sdcgmres::krylov::ArnoldiContext&,
                        const sdcgmres::krylov::ArnoldiIterationView&) override {
    segment(Event::End);
  }

  /// Close the open inner-solve span at its last event.
  void finish() {
    if (inner_ >= 0) t_.set_end(inner_, last_t_);
    inner_ = -1;
  }

private:
  enum class Event { Start, Begin, Matvec, End };

  void segment(Event e) {
    const double t = now_s();
    const char* name = "krylov.inner_step";
    if (last_ == Event::Start) {
      name = "krylov.inner_start";
    } else if (last_ == Event::Begin && e == Event::Matvec) {
      name = "sparse.inner_spmv";
    } else if (e == Event::End) {
      name = "la.inner_ortho";
    } else if (last_ == Event::Matvec && e == Event::Begin) {
      name = "krylov.inner_stage";
    }
    if (inner_ >= 0) t_.add(name, inner_, last_t_, t);
    last_ = e;
    last_t_ = t;
  }

  Tracer& t_;
  int parent_;
  int inner_ = -1;
  Event last_ = Event::Start;
  double last_t_ = 0.0;
};

class TimingHook final : public sdcgmres::krylov::ArnoldiHook {
public:
  explicit TimingHook(sdcgmres::krylov::ArnoldiHook& inner) : h_(inner) {}

  void on_solve_begin(std::size_t i) override {
    timed([&] { h_.on_solve_begin(i); });
  }
  void on_iteration_begin(const sdcgmres::krylov::ArnoldiContext& c) override {
    timed([&] { h_.on_iteration_begin(c); });
  }
  void on_matvec_result(const sdcgmres::krylov::ArnoldiContext& c,
                        std::span<double> v) override {
    timed([&] { h_.on_matvec_result(c, v); });
  }
  void on_power_computed(const sdcgmres::krylov::ArnoldiContext& c,
                         std::size_t p, std::size_t b,
                         std::span<double> v) override {
    timed([&] { h_.on_power_computed(c, p, b, v); });
  }
  void on_projection_coefficient(const sdcgmres::krylov::ArnoldiContext& c,
                                 std::size_t i, std::size_t m,
                                 double& h) override {
    timed([&] { h_.on_projection_coefficient(c, i, m, h); });
  }
  void on_subdiagonal(const sdcgmres::krylov::ArnoldiContext& c,
                      double& h) override {
    timed([&] { h_.on_subdiagonal(c, h); });
  }
  void on_iteration_end(
      const sdcgmres::krylov::ArnoldiContext& c,
      const sdcgmres::krylov::ArnoldiIterationView& v) override {
    timed([&] { h_.on_iteration_end(c, v); });
  }
  [[nodiscard]] bool abort_requested() const override {
    return h_.abort_requested();
  }

  [[nodiscard]] std::size_t events() const noexcept { return events_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

private:
  template <typename Fn>
  void timed(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
    ++events_;
  }

  sdcgmres::krylov::ArnoldiHook& h_;
  std::size_t events_ = 0;
  double seconds_ = 0.0;
};

} // namespace perfbench
