#pragma once
/// \file csr.hpp
/// \brief Compressed-sparse-row matrix: the compute format for all solvers.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "la/krylov_basis.hpp"
#include "la/vector.hpp"
#include "sparse/coo.hpp"

namespace sdcgmres::sparse {

/// The largest row or column count a matrix source builds (generators,
/// Matrix Market size lines): 2^31 - 1, the largest dimension the int32
/// index plane addresses.
inline constexpr std::size_t kMaxDimension = 2147483647;

namespace detail {

/// CSR spmv core shared by CsrMatrix and its narrowed mirrors
/// (CsrMatrixT): y := A*x over raw arrays, all arithmetic in S.  OpenMP
/// splits the row loop; each row sums in ascending-k order, so results
/// are invariant under the thread count and, for S = double, under the
/// index type I.
template <typename S, typename I>
inline void csr_spmv_core(std::size_t rows, const I* row_ptr,
                          const I* col_idx, const S* values, const S* x,
                          S* y) {
  const auto n = static_cast<std::int64_t>(rows);
#pragma omp parallel for schedule(static) if (n > 2048)
  for (std::int64_t ii = 0; ii < n; ++ii) {
    const auto i = static_cast<std::size_t>(ii);
    S sum = S(0);
    const auto kb = static_cast<std::size_t>(row_ptr[i]);
    const auto ke = static_cast<std::size_t>(row_ptr[i + 1]);
    for (std::size_t k = kb; k < ke; ++k) {
      sum += values[k] * x[static_cast<std::size_t>(col_idx[k])];
    }
    y[i] = sum;
  }
}

/// CSR SpMM core over column-major blocks: right-hand sides in blocks of
/// 4, one pass over the matrix per block, with one accumulator chain per
/// column that sums in csr_spmv_core's order -- so every output column
/// is bitwise identical to a separate spmv of that column.
template <typename S, typename I>
inline void csr_spmm_core(std::size_t rows, const I* row_ptr,
                          const I* col_idx, const S* values,
                          std::size_t ncols, const S* x, std::size_t ldx,
                          S* y, std::size_t ldy) {
  const auto n = static_cast<std::int64_t>(rows);
  for (std::size_t c0 = 0; c0 < ncols; c0 += 4) {
    const std::size_t bw = std::min<std::size_t>(4, ncols - c0);
    const S* x0 = x + c0 * ldx;
    S* y0 = y + c0 * ldy;
    if (bw == 4) {
#pragma omp parallel for schedule(static) if (n > 2048)
      for (std::int64_t ii = 0; ii < n; ++ii) {
        const auto i = static_cast<std::size_t>(ii);
        S s0 = S(0), s1 = S(0), s2 = S(0), s3 = S(0);
        const auto kb = static_cast<std::size_t>(row_ptr[i]);
        const auto ke = static_cast<std::size_t>(row_ptr[i + 1]);
        for (std::size_t k = kb; k < ke; ++k) {
          const S a = values[k];
          const auto j = static_cast<std::size_t>(col_idx[k]);
          s0 += a * x0[j];
          s1 += a * x0[j + ldx];
          s2 += a * x0[j + 2 * ldx];
          s3 += a * x0[j + 3 * ldx];
        }
        y0[i] = s0;
        y0[i + ldy] = s1;
        y0[i + 2 * ldy] = s2;
        y0[i + 3 * ldy] = s3;
      }
    } else {
#pragma omp parallel for schedule(static) if (n > 2048)
      for (std::int64_t ii = 0; ii < n; ++ii) {
        const auto i = static_cast<std::size_t>(ii);
        S s[4] = {S(0), S(0), S(0), S(0)};
        const auto kb = static_cast<std::size_t>(row_ptr[i]);
        const auto ke = static_cast<std::size_t>(row_ptr[i + 1]);
        for (std::size_t k = kb; k < ke; ++k) {
          const S a = values[k];
          const auto j = static_cast<std::size_t>(col_idx[k]);
          for (std::size_t c = 0; c < bw; ++c) s[c] += a * x0[j + c * ldx];
        }
        for (std::size_t c = 0; c < bw; ++c) y0[i + c * ldy] = s[c];
      }
    }
  }
}

} // namespace detail

/// Immutable CSR sparse matrix.
///
/// Built either from a CooMatrix (sorted, duplicates summed: the Matrix
/// Market reader and the unstructured generators) or from raw CSR arrays
/// (the structured-grid generators write rows in column order directly).
/// Both constructors validate the invariants: row pointers nondecreasing
/// and, within each row, column indices in range and strictly increasing.
class CsrMatrix {
public:
  using scalar_type = double;
  using index_type = std::size_t;

  CsrMatrix() = default;

  /// Build from a coordinate matrix.  \p coo is compressed (sorted,
  /// duplicates summed) as part of the conversion; explicit zeros are kept.
  explicit CsrMatrix(CooMatrix coo);

  /// Build directly from raw CSR arrays (validated).
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  /// Value slots one matrix pass streams (CSR stores no padding).
  [[nodiscard]] std::size_t stored() const noexcept { return nnz(); }
  /// Index-typed slots one matrix pass streams: row_ptr + col_idx.
  [[nodiscard]] std::size_t index_slots() const noexcept {
    return row_ptr_.size() + col_idx_.size();
  }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Column indices of row \p i.
  [[nodiscard]] std::span<const std::size_t> row_cols(std::size_t i) const;
  /// Values of row \p i.
  [[nodiscard]] std::span<const double> row_values(std::size_t i) const;

  /// Value at (i, j); 0.0 when the position is not stored.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// y := A*x.  Sizes must match; OpenMP-parallel over rows.
  void spmv(const la::Vector& x, la::Vector& y) const;

  /// y := A*x for a span operand (zero-copy from a KrylovBasis column).
  void spmv(std::span<const double> x, la::Vector& y) const;

  /// y := A*x, the span core: y.size() must equal rows() (never resized),
  /// x and y must not alias.  This is the zero-copy path the solver data
  /// plane uses (basis column in, workspace column out).
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// Y := A*X for a block of vectors (SpMM, blocked multi-vector SpMV).
  /// X is a column-major view with X.rows() == cols(); Y must hold
  /// X.cols() columns of length rows() (use KrylovBasis::append() to shape
  /// it).  The matrix is streamed ONCE per block of right-hand sides
  /// instead of once per vector, so b simultaneous products pay ~1/b of
  /// the index/value traffic of b spmv calls.  Each output column
  /// accumulates in exactly spmv's order: results are bitwise identical
  /// to column-by-column spmv.
  void spmm(const la::BasisView& x, la::KrylovBasis& y) const;

  /// Raw SpMM core over column-major blocks: \p ncols vectors, x with
  /// leading dimension \p ldx >= cols(), y with \p ldy >= rows().
  void spmm(std::size_t ncols, const double* x, std::size_t ldx, double* y,
            std::size_t ldy) const;

  /// y := A^T*x.  OpenMP-parallel by column ownership: a one-time
  /// nnz-balanced partition gives each thread a contiguous column range
  /// that it alone writes; threads scan the rows in serial order and pick
  /// out their columns by binary search (per-row indices are strictly
  /// increasing), so results are bitwise identical to the serial fallback
  /// and no per-thread dense scratch is needed.  Serial fallback without
  /// OpenMP or for small matrices.
  void spmv_transpose(const la::Vector& x, la::Vector& y) const;

  /// A^T*x for a span operand (zero-copy from a basis column).
  void spmv_transpose(std::span<const double> x, la::Vector& y) const;

  /// Y := A^T*X for a block of vectors (transpose SpMM): the matrix is
  /// streamed ONCE per block of operands instead of once per operand, the
  /// transpose-side counterpart of spmm().  X is a column-major view with
  /// X.rows() == rows(); Y must hold X.cols() columns of length cols().
  /// Each output column accumulates its terms in exactly
  /// spmv_transpose's serial order (ascending rows, with the same
  /// x_i == 0 row skip applied per operand column), so every output
  /// column is bitwise identical to a separate spmv_transpose of that
  /// column -- at any thread count.
  void spmm_transpose(const la::BasisView& x, la::KrylovBasis& y) const;

  /// Raw transpose-SpMM core over column-major blocks: \p ncols vectors,
  /// x with leading dimension \p ldx >= rows(), y with \p ldy >= cols().
  void spmm_transpose(std::size_t ncols, const double* x, std::size_t ldx,
                      double* y, std::size_t ldy) const;

  /// Convenience: returns A*x by value.
  [[nodiscard]] la::Vector apply(const la::Vector& x) const;

  /// Main diagonal as a dense vector (missing entries are 0).
  [[nodiscard]] la::Vector diagonal() const;

  /// Transposed copy.
  [[nodiscard]] CsrMatrix transposed() const;

  /// Exact Frobenius norm: sqrt(sum of squares of stored values).
  [[nodiscard]] double frobenius_norm() const;

  /// Scale all values by \p alpha (returns a new matrix).
  [[nodiscard]] CsrMatrix scaled(double alpha) const;

  /// Back to coordinate format (for I/O and tests).
  [[nodiscard]] CooMatrix to_coo() const;

private:
  /// Tag for internal constructions whose CSR invariants hold by
  /// construction (scaled copies, counting-sort transposes); skips the
  /// O(nnz) validate() pass that the public constructors run.
  struct Prevalidated {};

  CsrMatrix(Prevalidated, std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values) noexcept
      : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)), values_(std::move(values)) {}

  void validate() const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

} // namespace sdcgmres::sparse
