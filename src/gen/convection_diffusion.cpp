#include "gen/convection_diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "gen/stencil.hpp"

namespace sdcgmres::gen {

sparse::CsrMatrix convection_diffusion2d(std::size_t n, double beta_x,
                                         double beta_y) {
  const double h = 1.0 / static_cast<double>(n + 1);
  // First-order upwinding keeps the scheme stable for any Peclet number.
  const double cx = beta_x * h;
  const double cy = beta_y * h;
  const double west = -1.0 - std::max(cx, 0.0);
  const double east = -1.0 + std::min(cx, 0.0);
  const double south = -1.0 - std::max(cy, 0.0);
  const double north = -1.0 + std::min(cy, 0.0);
  return detail::stencil_matrix("convection_diffusion2d", n, 2,
                                4.0 + std::abs(cx) + std::abs(cy),
                                {{{west, east}, {south, north}}});
}

} // namespace sdcgmres::gen
