#pragma once
/// \file coo.hpp
/// \brief Coordinate-format sparse matrix builder.
///
/// COO is the assembly format of the Matrix Market reader and the
/// unstructured generators (circuit_like, random_diag_dominant,
/// random_spd): they append (row, col, value) triplets in any order, then
/// convert to CSR for compute.  Duplicate entries are summed during
/// conversion, matching the usual finite-element assembly semantics.  The
/// structured-grid generators skip COO and write CSR rows directly
/// (gen/stencil.hpp).

#include <cstddef>
#include <vector>

namespace sdcgmres::sparse {

/// One nonzero entry in coordinate format.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;

  bool operator==(const Triplet&) const = default;
};

/// Mutable coordinate-format sparse matrix.
class CooMatrix {
public:
  CooMatrix() = default;

  /// Empty rows x cols matrix.
  CooMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Number of stored triplets (may include duplicates until compressed).
  [[nodiscard]] std::size_t nnz() const noexcept { return entries_.size(); }

  /// Append a triplet.  Throws std::out_of_range for indices outside the
  /// matrix.  Zero values are stored too (callers may want explicit zeros).
  void add(std::size_t row, std::size_t col, double value);

  /// Append `value` to position (row, col); alias of add() kept for
  /// readability at assembly call sites.
  void accumulate(std::size_t row, std::size_t col, double value) {
    add(row, col, value);
  }

  [[nodiscard]] const std::vector<Triplet>& entries() const noexcept {
    return entries_;
  }

  /// Sort triplets by (row, col) and sum duplicates in place.
  ///
  /// Determinism hazard: the sort is std::sort, which is not stable, so
  /// three or more duplicates of one entry are summed in the order the
  /// standard library's introsort leaves them, not in insertion order, and
  /// a floating-point sum of three or more terms depends on that order.
  /// The matrices that have such entries (circuit_like's diagonals) are
  /// therefore bitwise tied to the standard library: with std::stable_sort
  /// the circuit_like matrices at 500, 2,000 and 20,000 nodes change bits
  /// under libstdc++, while random_diag_dominant and random_spd do not.
  /// The order is kept as is so published circuit results stay
  /// reproducible on the same toolchain.
  void compress();

  /// Reserve storage for \p n triplets.
  void reserve(std::size_t n) { entries_.reserve(n); }

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Triplet> entries_;
};

} // namespace sdcgmres::sparse
