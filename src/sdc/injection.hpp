#pragma once
/// \file injection.hpp
/// \brief Single-event fault injection into the Arnoldi process.
///
/// Reproduces the paper's experiment protocol (Section VII-B): exactly one
/// SDC event per solve, applied to a projection coefficient h(i,j) on a
/// chosen *aggregate* inner iteration (counting Arnoldi iterations across
/// all inner solves, e.g. "25 inner x 9 outer" = 225 possible sites for
/// the Poisson problem), at either the first or the last step of the
/// Modified Gram-Schmidt loop.  The general model also supports faults in
/// the subdiagonal norm and in individual matvec result elements.

#include <cstddef>
#include <optional>

#include "krylov/hooks.hpp"
#include "sdc/event_log.hpp"
#include "sdc/fault_model.hpp"

namespace sdcgmres::sdc {

/// Which value the fault corrupts.
enum class InjectionTarget {
  ProjectionCoefficient, ///< h(i,j) from the orthogonalization dot product
                         ///< (the paper's site, Alg. 1 Line 6)
  SubdiagonalNorm,       ///< h(j+1,j) = ||v|| (Alg. 1 Line 9)
  MatvecElement,         ///< one element of v = A*q_j (Alg. 1 Line 4)
  PowerElement,          ///< one element of a staged matrix power A^k*q_j
                         ///< (s-step mode only; corrupts the block basis
                         ///< before TSQR, so it taints every later column
                         ///< of the block)
};

/// Which MGS step of the targeted iteration is corrupted.
enum class MgsPosition {
  First, ///< i = 0 (taints all subsequent MGS steps; paper's worst case)
  Last,  ///< i = j (the last projection coefficient of the column)
  Index, ///< an explicit step index (skipped when out of range)
};

/// Full description of a single planned SDC event.
struct InjectionPlan {
  InjectionTarget target = InjectionTarget::ProjectionCoefficient;
  MgsPosition position = MgsPosition::First;
  std::size_t coefficient_index = 0; ///< used when position == Index
  std::size_t aggregate_iteration = 0; ///< 0-based Arnoldi iteration count
                                       ///< across all solves seen by the hook
  std::size_t element_index = 0;       ///< used for MatvecElement
  FaultModel model = FaultModel::scale(1e150);

  /// Paper-style plan: corrupt h(i,j) at the given aggregate iteration.
  [[nodiscard]] static InjectionPlan hessenberg(std::size_t aggregate_iteration,
                                                MgsPosition position,
                                                FaultModel model) {
    InjectionPlan p;
    p.target = InjectionTarget::ProjectionCoefficient;
    p.position = position;
    p.aggregate_iteration = aggregate_iteration;
    p.model = model;
    return p;
  }
};

/// Arnoldi hook that fires the planned fault exactly once.
///
/// The hook counts Arnoldi iterations across every solve it observes (the
/// "aggregate inner solve iteration" axis of the paper's figures) and, when
/// the target iteration and MGS position line up, applies the fault model
/// and records an Event.  A single transient SDC: it never fires twice.
class FaultCampaign final : public krylov::ArnoldiHook {
public:
  /// \param iterations_seen aggregate Arnoldi iterations to count as
  ///        already observed: a campaign for a solve resumed after a
  ///        recorded fault-free prefix (krylov::FtGmresStart) is seeded
  ///        with the prefix's count and fires where the campaign that
  ///        observed the prefix would.
  explicit FaultCampaign(InjectionPlan plan, std::size_t iterations_seen = 0)
      : plan_(plan), iterations_seen_(iterations_seen) {}

  // --- krylov::ArnoldiHook ---
  void on_solve_begin(std::size_t solve_index) override;
  void on_iteration_begin(const krylov::ArnoldiContext& ctx) override;
  void on_matvec_result(const krylov::ArnoldiContext& ctx,
                        std::span<double> v) override;
  void on_power_computed(const krylov::ArnoldiContext& ctx,
                         std::size_t power_index, std::size_t block_size,
                         std::span<double> power) override;
  void on_projection_coefficient(const krylov::ArnoldiContext& ctx,
                                 std::size_t i, std::size_t mgs_steps,
                                 double& h) override;
  void on_subdiagonal(const krylov::ArnoldiContext& ctx, double& h) override;

  /// True once the single fault has been applied.
  [[nodiscard]] bool fired() const noexcept { return fired_; }

  /// Total Arnoldi iterations observed so far (across solves).
  [[nodiscard]] std::size_t aggregate_iterations() const noexcept {
    return iterations_seen_;
  }

  /// The injection event record (empty until fired).
  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  /// Re-arm for a fresh solve (clears counters and the log).
  void reset();

private:
  [[nodiscard]] bool armed_for_current_iteration() const noexcept;

  InjectionPlan plan_;
  EventLog log_;
  bool fired_ = false;
  std::size_t iterations_seen_ = 0; ///< incremented at on_iteration_begin
};

/// Extension beyond the paper's single-event model: a fault that recurs
/// every `period` aggregate iterations (starting at `first_iteration`),
/// corrupting the same MGS position with the same model each time.  The
/// paper argues single-event analysis is the right baseline (Section
/// II-A); this hook lets users probe how far the FT-GMRES resilience
/// extends as the event rate grows (see bench_ablation_fault_rate).
class RecurringFaultCampaign final : public krylov::ArnoldiHook {
public:
  /// Throws std::invalid_argument for period == 0 and for
  /// MgsPosition::Index, which has no coefficient index here.
  RecurringFaultCampaign(std::size_t first_iteration, std::size_t period,
                         MgsPosition position, FaultModel model);

  void on_iteration_begin(const krylov::ArnoldiContext& ctx) override;
  void on_projection_coefficient(const krylov::ArnoldiContext& ctx,
                                 std::size_t i, std::size_t mgs_steps,
                                 double& h) override;

  /// Number of faults applied so far.
  [[nodiscard]] std::size_t fault_count() const noexcept {
    return fault_count_;
  }

  [[nodiscard]] const EventLog& log() const noexcept { return log_; }

  /// Re-arm for a fresh solve (clears counters and the log).
  void reset();

private:
  std::size_t first_iteration_;
  std::size_t period_;
  MgsPosition position_;
  FaultModel model_;
  EventLog log_;
  std::size_t iterations_seen_ = 0;
  std::size_t fault_count_ = 0;
};

} // namespace sdcgmres::sdc
