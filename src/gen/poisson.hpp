#pragma once
/// \file poisson.hpp
/// \brief Finite-difference Poisson matrices.
///
/// poisson2d(n) reproduces Matlab's gallery('poisson', n): the block
/// tridiagonal 5-point stencil discretization of the 2-D Laplacian on an
/// n x n interior grid with Dirichlet boundaries.  For n = 100 this is the
/// paper's first test matrix: 10,000 rows, 49,600 nonzeros, ||A||_2 < 8,
/// ||A||_F ~= 446, SPD with condition number ~6.0e3.
///
/// Every generator here writes its CSR rows directly, in ascending column
/// order, through one stencil kernel (gen/stencil.hpp): no triplets, no
/// sort.  n = 0, or n^d above sparse::kMaxDimension rows, throws
/// std::invalid_argument naming the generator and n.

#include <cstddef>

#include "sparse/csr.hpp"

namespace sdcgmres::gen {

/// 1-D Laplacian: tridiagonal [-1 2 -1] of dimension n.
[[nodiscard]] sparse::CsrMatrix poisson1d(std::size_t n);

/// 2-D 5-point Laplacian on an n x n grid (dimension n^2), row-major grid
/// ordering, diagonal 4, off-diagonals -1.  Matches gallery('poisson', n).
[[nodiscard]] sparse::CsrMatrix poisson2d(std::size_t n);

/// 3-D 7-point Laplacian on an n x n x n grid (dimension n^3), diagonal 6.
[[nodiscard]] sparse::CsrMatrix poisson3d(std::size_t n);

/// Anisotropic 2-D Laplacian: stencil weights eps_x and eps_y on the two
/// axes (diagonal 2*(eps_x + eps_y)); reduces to poisson2d at eps = 1.
[[nodiscard]] sparse::CsrMatrix anisotropic2d(std::size_t n, double eps_x,
                                              double eps_y);

} // namespace sdcgmres::gen
