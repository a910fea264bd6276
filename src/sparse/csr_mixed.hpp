#pragma once
/// \file csr_mixed.hpp
/// \brief Reduced-precision / compressed-index CSR instantiation for the
/// mixed-precision inner-solve plane.
///
/// The lockstep work of the batched FT-GMRES driver already cut the number
/// of matrix STREAMS; the remaining lever is bytes per stream.  The inner
/// solves are the unreliable side of the paper's selective-reliability
/// split, so they may run on a narrowed copy of the operator: float values
/// (4 bytes instead of 8) and int32 indices (4 instead of 8) halve the
/// traffic of every inner SpMV/SpMM.  CsrMatrixT is that narrowed copy --
/// an immutable mirror built from a validated double/size_t CsrMatrix, NOT
/// a replacement for it (the reliable outer plane keeps streaming the
/// original).
///
/// Index narrowing is validated at construction: every dimension that must
/// fit the index type (rows, cols, and nnz, since row_ptr entries reach
/// nnz) is checked and construction throws std::overflow_error on
/// overflow.  Per-entry column indices need no separate check -- they are
/// < cols by the source matrix's invariants.
///
/// The kernels are sparse::CsrMatrix's own (detail::csr_spmv_core /
/// csr_spmm_core in csr.hpp), instantiated at (S, I).  For S = double the
/// narrowed indices do not change a single floating-point operation, so a
/// (double, int32) mirror produces bitwise identical results to the
/// source matrix -- the identity the index-width tests pin down.

#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::sparse {

/// Immutable CSR mirror with scalar type \p S and index type \p I.
template <typename S, typename I>
class CsrMatrixT {
public:
  static_assert(std::is_integral_v<I>, "index type must be integral");
  using scalar_type = S;
  using index_type = I;

  CsrMatrixT() = default;

  /// Narrowing copy of a validated double/size_t CSR matrix.  Throws
  /// std::overflow_error when rows, cols, or nnz do not fit \p I.
  explicit CsrMatrixT(const CsrMatrix& src)
      : rows_(src.rows()), cols_(src.cols()) {
    const auto max_index =
        static_cast<std::size_t>(std::numeric_limits<I>::max());
    if (src.rows() > max_index || src.cols() > max_index ||
        src.nnz() > max_index) {
      throw std::overflow_error(
          "CsrMatrixT: matrix shape overflows the compressed index type");
    }
    row_ptr_.clear(); // drop the default-constructed sentinel entry
    row_ptr_.reserve(src.row_ptr().size());
    for (const std::size_t p : src.row_ptr()) {
      row_ptr_.push_back(static_cast<I>(p));
    }
    col_idx_.reserve(src.nnz());
    for (const std::size_t j : src.col_idx()) {
      col_idx_.push_back(static_cast<I>(j));
    }
    values_.reserve(src.nnz());
    for (const double v : src.values()) {
      values_.push_back(static_cast<S>(v));
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  [[nodiscard]] std::size_t stored() const noexcept { return nnz(); }
  [[nodiscard]] std::size_t index_slots() const noexcept {
    return row_ptr_.size() + col_idx_.size();
  }

  [[nodiscard]] const std::vector<I>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<I>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<S>& values() const noexcept {
    return values_;
  }

  /// y := A*x, the span core (same contract as CsrMatrix::spmv: exact
  /// sizes, no aliasing).
  void spmv(std::span<const S> x, std::span<S> y) const {
    if (x.size() != cols_) {
      throw std::invalid_argument("CsrMatrixT::spmv: x size mismatch");
    }
    if (y.size() != rows_) {
      throw std::invalid_argument("CsrMatrixT::spmv: y size mismatch");
    }
    detail::csr_spmv_core(rows_, row_ptr_.data(), col_idx_.data(),
                          values_.data(), x.data(), y.data());
  }

  /// Raw SpMM core over column-major blocks; mirrors CsrMatrix::spmm
  /// (4-wide right-hand-side blocks, per-column accumulation in spmv
  /// order, so each output column is bitwise identical to a separate
  /// spmv of that column).
  void spmm(std::size_t ncols, const S* x, std::size_t ldx, S* y,
            std::size_t ldy) const {
    if (ncols == 0) return;
    detail::csr_spmm_core(rows_, row_ptr_.data(), col_idx_.data(),
                          values_.data(), ncols, x, ldx, y, ldy);
  }

  /// Y := A*X over block views (the lockstep staging path of the batched
  /// driver).
  void spmm(const la::BasisViewT<S>& x, const la::BlockViewT<S>& y) const {
    if (x.cols() == 0 && y.cols() == 0) return;
    if (x.rows() != cols_) {
      throw std::invalid_argument("CsrMatrixT::spmm: X row count mismatch");
    }
    if (y.rows() != rows_ || y.cols() != x.cols()) {
      throw std::invalid_argument("CsrMatrixT::spmm: Y shape mismatch");
    }
    spmm(x.cols(), x.data(), x.ld(), y.data(), y.ld());
  }

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<I> row_ptr_{0};
  std::vector<I> col_idx_;
  std::vector<S> values_;
};

} // namespace sdcgmres::sparse
