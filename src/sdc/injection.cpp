#include "sdc/injection.hpp"

#include <sstream>
#include <stdexcept>

namespace sdcgmres::sdc {

void FaultCampaign::on_solve_begin(std::size_t solve_index) {
  (void)solve_index; // aggregate counting continues across solves
}

void FaultCampaign::on_iteration_begin(const krylov::ArnoldiContext& ctx) {
  (void)ctx;
  ++iterations_seen_;
}

bool FaultCampaign::armed_for_current_iteration() const noexcept {
  // iterations_seen_ was incremented when the current iteration began, so
  // the current 0-based aggregate index is iterations_seen_ - 1.
  return !fired_ && iterations_seen_ > 0 &&
         iterations_seen_ - 1 == plan_.aggregate_iteration;
}

void FaultCampaign::on_matvec_result(const krylov::ArnoldiContext& ctx,
                                     std::span<double> v) {
  if (plan_.target != InjectionTarget::MatvecElement) return;
  if (!armed_for_current_iteration()) return;
  if (plan_.element_index >= v.size()) return;
  const double before = v[plan_.element_index];
  const double after = plan_.model.apply(before);
  v[plan_.element_index] = after;
  fired_ = true;
  std::ostringstream desc;
  desc << "matvec element " << plan_.element_index << " " << to_string(plan_.model);
  log_.record({.kind = EventKind::Injection,
               .solve_index = ctx.solve_index,
               .iteration = ctx.iteration,
               .coefficient = plan_.element_index,
               .value_before = before,
               .value_after = after,
               .bound = 0.0,
               .description = desc.str()});
}

void FaultCampaign::on_power_computed(const krylov::ArnoldiContext& ctx,
                                      std::size_t power_index,
                                      std::size_t block_size,
                                      std::span<double> power) {
  if (plan_.target != InjectionTarget::PowerElement) return;
  if (!armed_for_current_iteration()) return;
  if (plan_.element_index >= power.size()) return;
  const double before = power[plan_.element_index];
  const double after = plan_.model.apply(before);
  power[plan_.element_index] = after;
  fired_ = true;
  std::ostringstream desc;
  desc << "power " << power_index << "/" << block_size << " element "
       << plan_.element_index << " " << to_string(plan_.model);
  log_.record({.kind = EventKind::Injection,
               .solve_index = ctx.solve_index,
               .iteration = ctx.iteration,
               .coefficient = plan_.element_index,
               .value_before = before,
               .value_after = after,
               .bound = 0.0,
               .description = desc.str()});
}

void FaultCampaign::on_projection_coefficient(const krylov::ArnoldiContext& ctx,
                                              std::size_t i,
                                              std::size_t mgs_steps,
                                              double& h) {
  if (plan_.target != InjectionTarget::ProjectionCoefficient) return;
  if (!armed_for_current_iteration()) return;
  bool match = false;
  switch (plan_.position) {
    case MgsPosition::First: match = (i == 0); break;
    case MgsPosition::Last: match = (i + 1 == mgs_steps); break;
    case MgsPosition::Index: match = (i == plan_.coefficient_index); break;
  }
  if (!match) return;
  const double before = h;
  h = plan_.model.apply(h);
  fired_ = true;
  std::ostringstream desc;
  desc << "h(" << i << "," << ctx.iteration << ") " << to_string(plan_.model);
  log_.record({.kind = EventKind::Injection,
               .solve_index = ctx.solve_index,
               .iteration = ctx.iteration,
               .coefficient = i,
               .value_before = before,
               .value_after = h,
               .bound = 0.0,
               .description = desc.str()});
}

void FaultCampaign::on_subdiagonal(const krylov::ArnoldiContext& ctx,
                                   double& h) {
  if (plan_.target != InjectionTarget::SubdiagonalNorm) return;
  if (!armed_for_current_iteration()) return;
  const double before = h;
  h = plan_.model.apply(h);
  fired_ = true;
  std::ostringstream desc;
  desc << "h(" << ctx.iteration + 1 << "," << ctx.iteration << ") "
       << to_string(plan_.model);
  log_.record({.kind = EventKind::Injection,
               .solve_index = ctx.solve_index,
               .iteration = ctx.iteration,
               .coefficient = ctx.iteration + 1,
               .value_before = before,
               .value_after = h,
               .bound = 0.0,
               .description = desc.str()});
}

RecurringFaultCampaign::RecurringFaultCampaign(std::size_t first_iteration,
                                               std::size_t period,
                                               MgsPosition position,
                                               FaultModel model)
    : first_iteration_(first_iteration), period_(period), position_(position),
      model_(model) {
  if (period_ == 0) {
    throw std::invalid_argument(
        "RecurringFaultCampaign: period must be positive");
  }
  if (position_ == MgsPosition::Index) {
    throw std::invalid_argument(
        "RecurringFaultCampaign: MgsPosition::Index is not supported (no "
        "coefficient index); use First or Last");
  }
}

void RecurringFaultCampaign::on_iteration_begin(
    const krylov::ArnoldiContext& ctx) {
  (void)ctx;
  ++iterations_seen_;
}

void RecurringFaultCampaign::on_projection_coefficient(
    const krylov::ArnoldiContext& ctx, std::size_t i, std::size_t mgs_steps,
    double& h) {
  if (iterations_seen_ == 0) return;
  const std::size_t current = iterations_seen_ - 1;
  if (current < first_iteration_) return;
  if ((current - first_iteration_) % period_ != 0) return;
  const bool match =
      position_ == MgsPosition::First ? i == 0 : i + 1 == mgs_steps;
  if (!match) return;
  const double before = h;
  h = model_.apply(h);
  ++fault_count_;
  std::ostringstream desc;
  desc << "recurring h(" << i << "," << ctx.iteration << ") "
       << to_string(model_);
  log_.record({.kind = EventKind::Injection,
               .solve_index = ctx.solve_index,
               .iteration = ctx.iteration,
               .coefficient = i,
               .value_before = before,
               .value_after = h,
               .bound = 0.0,
               .description = desc.str()});
}

void RecurringFaultCampaign::reset() {
  iterations_seen_ = 0;
  fault_count_ = 0;
  log_.clear();
}

void FaultCampaign::reset() {
  fired_ = false;
  iterations_seen_ = 0;
  log_.clear();
}

} // namespace sdcgmres::sdc
