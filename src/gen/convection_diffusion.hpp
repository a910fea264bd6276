#pragma once
/// \file convection_diffusion.hpp
/// \brief Nonsymmetric convection-diffusion model problems.
///
/// Upwind finite-difference discretization of
///   -Laplace(u) + beta . grad(u) = f
/// on the unit square with Dirichlet boundaries.  Nonzero convection makes
/// the matrix nonsymmetric, which exercises the full upper-Hessenberg
/// structure in Arnoldi (the paper's Fig. 2 distinction).
///
/// Built like the Poisson matrices: CSR rows written directly in ascending
/// column order by the shared stencil kernel (gen/stencil.hpp), west/east
/// on the stride-1 axis and south/north on the stride-n axis.  n = 0, or
/// n^2 above sparse::kMaxDimension rows, throws std::invalid_argument.

#include <cstddef>

#include "sparse/csr.hpp"

namespace sdcgmres::gen {

/// 2-D convection-diffusion on an n x n interior grid.
/// \param n grid points per axis (matrix dimension n^2)
/// \param beta_x convection strength along x (cell Peclet = beta/2h)
/// \param beta_y convection strength along y
[[nodiscard]] sparse::CsrMatrix convection_diffusion2d(std::size_t n,
                                                       double beta_x,
                                                       double beta_y);

} // namespace sdcgmres::gen
