#pragma once
/// \file stencil.hpp
/// \brief Direct CSR assembly of the structured-grid generators.
///
/// Internal to src/gen: poisson1d/2d/3d, anisotropic2d and
/// convection_diffusion2d are all one (2d+1)-point stencil on an n^d grid,
/// differing only in their coefficients.

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace sdcgmres::gen::detail {

/// Off-diagonal values along one grid axis: row r couples to r - stride
/// with `lower` and to r + stride with `upper`.
struct Axis { double lower = 0.0, upper = 0.0; };

/// The stencil matrix on an n^d grid, d in {1, 2, 3}, in row-major grid
/// order: axes[0] is the stride-1 axis, axes[k] the stride-n^k one (entries
/// past d are unused).  Neighbours outside the grid are dropped (Dirichlet
/// boundaries).  Each row is written in ascending column order -- lower
/// neighbours from the largest stride down, the diagonal, then upper
/// neighbours from the smallest stride up -- so the CSR arrays fill
/// directly, with no triplets and no sort; the validating CsrMatrix
/// constructor still checks them.  Throws std::invalid_argument naming
/// \p name and n, before anything is allocated, unless 1 <= n^d <=
/// sparse::kMaxDimension.
inline sparse::CsrMatrix stencil_matrix(const char* name, std::size_t n,
                                        std::size_t d, double diag,
                                        const std::array<Axis, 3>& axes) {
  std::size_t rows = 1;
  for (std::size_t k = 0; k < d; ++k) {
    if (n == 0 || rows > sparse::kMaxDimension / n) {
      throw std::invalid_argument(
          std::string(name) + ": n=" + std::to_string(n) +
          " is out of range; n^" + std::to_string(d) + " rows must be 1 to " +
          std::to_string(sparse::kMaxDimension));
    }
    rows *= n;
  }
  // An axis past d has extent 1, so its neighbour tests never fire.
  const std::size_t e1 = d > 1 ? n : 1, e2 = d > 2 ? n : 1;
  const std::size_t s2 = n * e1;
  // Each axis couples every row but the n^(d-1) on each of its faces.
  const std::size_t nnz = rows + 2 * d * (rows - rows / n);
  std::vector<std::size_t> row_ptr, col_idx;
  std::vector<double> values;
  row_ptr.reserve(rows + 1);
  col_idx.reserve(nnz);
  values.reserve(nnz);
  row_ptr.push_back(0);
  const auto put = [&](std::size_t col, double value) {
    col_idx.push_back(col);
    values.push_back(value);
  };
  std::size_t row = 0;
  for (std::size_t i2 = 0; i2 < e2; ++i2) {
    for (std::size_t i1 = 0; i1 < e1; ++i1) {
      for (std::size_t i0 = 0; i0 < n; ++i0, ++row) {
        if (i2 > 0) put(row - s2, axes[2].lower);
        if (i1 > 0) put(row - n, axes[1].lower);
        if (i0 > 0) put(row - 1, axes[0].lower);
        put(row, diag);
        if (i0 + 1 < n) put(row + 1, axes[0].upper);
        if (i1 + 1 < e1) put(row + n, axes[1].upper);
        if (i2 + 1 < e2) put(row + s2, axes[2].upper);
        row_ptr.push_back(col_idx.size());
      }
    }
  }
  return {rows, rows, std::move(row_ptr), std::move(col_idx),
          std::move(values)};
}

} // namespace sdcgmres::gen::detail
