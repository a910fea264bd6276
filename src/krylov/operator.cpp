#include "krylov/operator.hpp"

#include "la/blas1.hpp"

namespace sdcgmres::krylov {

void ScaledOperator::do_apply(std::span<const double> x,
                              std::span<double> y) const {
  a_->apply(x, y);
  la::scal(alpha_, y);
}

} // namespace sdcgmres::krylov
