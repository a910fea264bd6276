#include "gen/poisson.hpp"

#include "gen/stencil.hpp"

namespace sdcgmres::gen {

sparse::CsrMatrix poisson1d(std::size_t n) {
  return detail::stencil_matrix("poisson1d", n, 1, 2.0, {{{-1.0, -1.0}}});
}

sparse::CsrMatrix poisson2d(std::size_t n) {
  return detail::stencil_matrix("poisson2d", n, 2, 4.0,
                                {{{-1.0, -1.0}, {-1.0, -1.0}}});
}

sparse::CsrMatrix anisotropic2d(std::size_t n, double eps_x, double eps_y) {
  return detail::stencil_matrix("anisotropic2d", n, 2, 2.0 * (eps_x + eps_y),
                                {{{-eps_x, -eps_x}, {-eps_y, -eps_y}}});
}

sparse::CsrMatrix poisson3d(std::size_t n) {
  return detail::stencil_matrix("poisson3d", n, 3, 6.0,
                                {{{-1.0, -1.0}, {-1.0, -1.0}, {-1.0, -1.0}}});
}

} // namespace sdcgmres::gen
