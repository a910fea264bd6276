#pragma once
/// \file krylov_basis.hpp
/// \brief Contiguous column-major arena for a growing Krylov basis.
///
/// The per-iteration hot path of every GMRES variant orthogonalizes the new
/// candidate vector against the whole current basis.  Storing the basis as
/// `std::vector<la::Vector>` (one heap allocation per column) forces the
/// projection and correction to run as k separate dot/axpy kernels over
/// scattered buffers.  KrylovBasis instead owns ONE flat buffer holding
/// its columns column-major, leading dimension == rows (padded, see
/// padded_leading_dimension), so that
///   - the CGS/CGS2 projection is a single gemv_t over the block,
///   - the correction is a single gemv,
///   - MGS is one la::mgs pass that streams each column once per
///     coefficient, with the norms of v folded into the same sweeps,
/// exactly as production Krylov codes (Trilinos/Belos-style blocked CGS2)
/// arrange it.  Columns are exposed as std::span views, which all blas1/2
/// kernels accept.
///
/// The arena is templated on the scalar type: the reliable plane uses the
/// double instantiations (aliased BasisView / KrylovBasis, unchanged
/// behaviour), the mixed-precision inner plane uses the float ones.
///
/// capacity() bounds the column count: append() past it throws
/// std::length_error.  The storage behind it grows geometrically with
/// cols() (std::realloc of the trivially-copyable scalars), so an arena
/// bounded by a whole iteration budget costs only the columns a solve
/// actually appends, and clear() followed by a refill to an earlier column
/// count never grows again.  Growth may move the buffer: a column span, a
/// view() or data() stays valid only until the next append() to the same
/// arena.  Grown storage needs no zero fill, because every append writes
/// its whole column (append() zeroes it, append(v) copies v,
/// append(v, scale) writes scale*v).
///
/// clear() and pop_back() are O(1): storage past cols() is unspecified and
/// kept, so a restart costs nothing however many columns the cycle used.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "la/blas1.hpp"
#include "la/dense_matrix.hpp"
#include "la/vector.hpp"

namespace sdcgmres::la {

/// Leading dimension used by every column-major arena in the la layer:
/// rows, plus a one-cache-line pad when a rows-sized stride would be a
/// multiple of the 4 KiB page (all columns congruent modulo every
/// cache-set stride -> conflict misses on every multi-column kernel;
/// measured ~20% slowdown for MGS at n = 65536).  The pad is one 64-byte
/// cache line in units of the scalar (8 doubles / 16 floats).
template <typename S = double>
[[nodiscard]] std::size_t padded_leading_dimension(std::size_t rows) noexcept {
  if (rows >= 512 && (rows * sizeof(S)) % 4096 == 0) {
    return rows + 64 / sizeof(S);
  }
  return rows;
}

/// Non-owning read-only view of the leading columns of a contiguous
/// column-major block (leading dimension >= rows).  This is what the
/// fused kernels and the Arnoldi hook protocol consume; it is trivially
/// copyable and valid as long as the underlying basis is alive, not
/// shrunk below `cols` columns and not appended to (growth may move it).
template <typename S>
class BasisViewT {
public:
  BasisViewT() = default;
  BasisViewT(const S* data, std::size_t rows, std::size_t cols,
             std::size_t ld) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Leading dimension (distance in scalars between column starts).
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }
  [[nodiscard]] bool empty() const noexcept { return cols_ == 0; }

  /// Column \p j as a contiguous span of length rows().
  [[nodiscard]] std::span<const S> col(std::size_t j) const noexcept {
    return {data_ + j * ld_, rows_};
  }

  /// Start of the flat column-major storage.
  [[nodiscard]] const S* data() const noexcept { return data_; }

private:
  const S* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

using BasisView = BasisViewT<double>;

/// Contiguous column-major Krylov basis arena.
template <typename S>
class KrylovBasisT {
  static_assert(std::is_trivially_copyable_v<S>,
                "KrylovBasisT grows its storage with std::realloc");

public:
  KrylovBasisT() = default;

  /// Arena for up to \p capacity vectors of length \p rows, with zero
  /// current columns.  Allocates nothing: storage grows with append().
  KrylovBasisT(std::size_t rows, std::size_t capacity)
      : rows_(rows), capacity_(capacity),
        ld_(padded_leading_dimension<S>(rows)) {}

  /// Move-only: a move hands the storage over and leaves the source a
  /// valid arena of unspecified shape.
  KrylovBasisT(KrylovBasisT&& other) noexcept { swap(other); }
  KrylovBasisT& operator=(KrylovBasisT&& other) noexcept {
    swap(other);
    return *this;
  }
  KrylovBasisT(const KrylovBasisT&) = delete;
  KrylovBasisT& operator=(const KrylovBasisT&) = delete;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  /// Number of columns currently in the basis.
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return cols_ == 0; }
  /// Leading dimension: rows() plus a small pad when a rows-sized stride
  /// would be a multiple of the 4 KiB page (all columns congruent modulo
  /// every cache-set stride -> conflict misses on every kernel).
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }

  /// Append a zero column and return a mutable view of it.  Throws
  /// std::length_error when the arena is full.
  std::span<S> append() {
    std::span<S> dst = grow();
    std::fill(dst.begin(), dst.end(), S(0));
    return dst;
  }

  /// Append a copy of \p v (length must equal rows(); \p v must not be a
  /// column of this arena, which growth may move).
  void append(std::span<const S> v) {
    check_length(v);
    std::span<S> dst = grow();
    std::copy(v.begin(), v.end(), dst.begin());
  }
  void append(const VectorT<S>& v) { append(v.span()); }

  /// Append scale*v in one pass (length must equal rows()): bitwise equal
  /// to append(v) followed by la::scal(scale, column), at half the traffic.
  void append(std::span<const S> v, S scale) {
    check_length(v);
    la::scal(scale, v, grow());
  }

  /// Drop the last column.  Throws std::out_of_range when empty.
  void pop_back() {
    if (cols_ == 0) {
      throw std::out_of_range("KrylovBasis::pop_back: basis is empty");
    }
    --cols_;
  }

  /// Drop all columns; the grown storage stays allocated.
  void clear() noexcept { cols_ = 0; }

  /// Column \p j as a span (no bounds check beyond debug assertions).
  [[nodiscard]] std::span<S> col(std::size_t j) noexcept {
    return {data() + j * ld_, rows_};
  }
  [[nodiscard]] std::span<const S> col(std::size_t j) const noexcept {
    return {data() + j * ld_, rows_};
  }

  /// Copy of column \p j as an owning vector (compat / test helper).
  [[nodiscard]] VectorT<S> col_copy(std::size_t j) const {
    if (j >= cols_) throw std::out_of_range("KrylovBasis::col_copy");
    VectorT<S> out(rows_);
    const std::span<const S> src = col(j);
    std::copy(src.begin(), src.end(), out.begin());
    return out;
  }

  /// View of the first \p k columns (k <= cols()).
  [[nodiscard]] BasisViewT<S> view(std::size_t k) const {
    if (k > cols_) {
      throw std::out_of_range("KrylovBasis::view: more columns than present");
    }
    return {data(), rows_, k, ld_};
  }
  /// View of all current columns.
  [[nodiscard]] BasisViewT<S> view() const { return view(cols_); }

  /// Start of the storage (null until the first append()).
  [[nodiscard]] S* data() noexcept { return data_.get(); }
  [[nodiscard]] const S* data() const noexcept { return data_.get(); }

  /// Dense (double) copy (rows x cols) of the current basis, for tests
  /// that measure orthonormality with the DenseMatrix helpers; float
  /// columns are widened entry-wise.
  [[nodiscard]] DenseMatrix to_dense() const {
    DenseMatrix out(rows_, cols_);
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::span<const S> src = col(j);
      double* dst = out.col(j);
      for (std::size_t i = 0; i < rows_; ++i) {
        dst[i] = static_cast<double>(src[i]);
      }
    }
    return out;
  }

private:
  struct Free {
    void operator()(S* p) const noexcept { std::free(p); }
  };

  /// Columns the first growth allocates.
  static constexpr std::size_t kFirstColumns = 4;

  /// The next column, unwritten; grows the storage geometrically when
  /// every allocated column is in use.
  std::span<S> grow() {
    if (cols_ == capacity_) {
      throw std::length_error("KrylovBasis::append: arena full (capacity " +
                              std::to_string(capacity_) + " columns)");
    }
    if (cols_ == allocated_) {
      const std::size_t cols =
          std::min(capacity_, std::max(kFirstColumns, 2 * allocated_));
      // At least one scalar: realloc(p, 0) may free p and return null.
      S* grown = static_cast<S*>(std::realloc(
          data_.get(), std::max(ld_ * cols, std::size_t{1}) * sizeof(S)));
      if (grown == nullptr) throw std::bad_alloc();
      (void)data_.release(); // realloc already freed or kept it
      data_.reset(grown);
      allocated_ = cols;
    }
    ++cols_;
    return col(cols_ - 1);
  }

  void check_length(std::span<const S> v) const {
    if (v.size() != rows_) {
      throw std::invalid_argument(
          "KrylovBasis::append: column length mismatch");
    }
  }

  void swap(KrylovBasisT& other) noexcept {
    std::swap(rows_, other.rows_);
    std::swap(cols_, other.cols_);
    std::swap(capacity_, other.capacity_);
    std::swap(ld_, other.ld_);
    std::swap(allocated_, other.allocated_);
    data_.swap(other.data_);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t capacity_ = 0;
  std::size_t ld_ = 0;
  std::size_t allocated_ = 0; ///< columns the storage holds
  std::unique_ptr<S, Free> data_;
};

using KrylovBasis = KrylovBasisT<double>;

} // namespace sdcgmres::la
