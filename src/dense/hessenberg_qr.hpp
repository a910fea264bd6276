#pragma once
/// \file hessenberg_qr.hpp
/// \brief Incremental QR factorization of the GMRES upper-Hessenberg matrix.
///
/// GMRES solves min_y || H_k y - beta*e1 ||_2 where H_k is (k+1) x k upper
/// Hessenberg.  Appending one column per iteration and updating with Givens
/// rotations keeps the per-iteration cost O(k) and makes the current
/// residual norm available for free as |g_{k+1}| (Saad & Schultz).  This
/// class owns the rotations, the triangular factor R, and the transformed
/// right-hand side g.
///
/// Templated on the scalar type.  The double instantiation (aliased
/// HessenbergQr) is the reliable-plane factorization, arithmetic unchanged
/// from the pre-template class; the float instantiation runs the
/// mixed-precision inner engine's recurrence entirely in float.  The
/// projected-problem views (r_block / rhs_block) widen to double for every
/// instantiation: the tiny (k x k) least-squares solve is always done in
/// double -- it is O(restart^2) work against the O(n) iteration cost, and
/// keeping it double means the float plane only gives up precision where
/// the bytes are (the length-n streams), not in the recurrence bookkeeping
/// that decides convergence.
///
/// The triangular factor is stored packed by column -- column j holds its
/// j+1 upper-triangle entries, at offset j*(j+1)/2 -- and grows with
/// add_column(), so it costs the columns a solve appends, not max_cols^2.
/// reset() keeps the grown storage, so a workspace-held factorization is
/// allocation-free across repeated solves that append no more columns.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "dense/givens.hpp"
#include "la/dense_matrix.hpp"
#include "la/vector.hpp"

namespace sdcgmres::dense {

template <typename S>
class HessenbergQrT {
public:
  /// Empty factorization; reset() must be called before use.  Exists so a
  /// HessenbergQr can live inside a reusable solver workspace.
  HessenbergQrT() = default;

  /// \param max_cols maximum number of columns (restart length)
  /// \param beta norm of the initial residual; the rhs starts as beta*e1
  HessenbergQrT(std::size_t max_cols, S beta) { reset(max_cols, beta); }

  /// Restart the factorization for a new solve: capacity at least
  /// \p max_cols (never shrinks), rhs beta*e1, zero columns.  Keeps the
  /// existing storage (no heap allocation when the capacity fits), so a
  /// workspace-held factorization is allocation-free across repeated
  /// solves of the same shape.  The O(max_cols) rotation and rhs vectors
  /// are sized here; R grows in add_column().
  void reset(std::size_t max_cols, S beta) {
    if (max_cols == 0) {
      throw std::invalid_argument("HessenbergQr: max_cols must be positive");
    }
    if (max_cols > max_cols_) {
      // Growth reallocates; repeated resets of one shape are free.
      rotations_.reserve(max_cols);
      g_.resize(max_cols + 1);
      col_.resize(max_cols + 1);
      max_cols_ = max_cols;
    }
    k_ = 0;
    r_.clear();
    rotations_.clear();
    std::fill(g_.begin(), g_.end(), S(0));
    g_[0] = beta;
  }

  /// Append the next Hessenberg column.  \p h_col must contain the k+2
  /// entries H(0..k+1, k) where k = size() is the index of the new column.
  /// Returns the updated least-squares residual norm |g_{k+1}| (widened).
  double add_column(std::span<const S> h_col) {
    if (k_ >= max_cols_) {
      throw std::length_error("HessenbergQr: capacity exhausted");
    }
    if (h_col.size() != k_ + 2) {
      throw std::invalid_argument(
          "HessenbergQr: column must have size() + 2 entries");
    }
    // Work on a scratch copy of the new column (member storage: add_column
    // is allocation-free after construction/reset).
    std::span<S> col(col_.data(), k_ + 2);
    std::copy(h_col.begin(), h_col.end(), col.begin());
    // Apply all previous rotations.
    for (std::size_t i = 0; i < k_; ++i) {
      rotations_[i].apply(col[i], col[i + 1]);
    }
    // New rotation annihilates the subdiagonal entry.
    const GivensRotationT<S> rot = make_givens<S>(col[k_], col[k_ + 1]);
    rotations_.push_back(rot);
    rot.apply(col[k_], col[k_ + 1]);
    // Store the triangular column (packed, k+1 entries) and rotate the rhs.
    r_.insert(r_.end(), col.begin(),
              col.begin() + static_cast<std::ptrdiff_t>(k_ + 1));
    rot.apply(g_[k_], g_[k_ + 1]);
    ++k_;
    return residual_estimate();
  }

  /// Remove the most recently appended column, restoring the factorization
  /// and the transformed right-hand side to their prior state exactly (the
  /// Givens update is orthogonal, so it is undone by the transposed
  /// rotation).  Used by FGMRES to discard a degenerate preconditioned
  /// direction and retry the iteration.
  void pop_column() {
    if (k_ == 0) {
      throw std::logic_error("HessenbergQr::pop_column: no columns");
    }
    --k_;
    // Drop the packed R column and undo the rhs rotation with the
    // transposed (inverse) rotation.
    r_.resize(packed_offset(k_));
    const GivensRotationT<S> rot = rotations_.back();
    const S a = g_[k_];
    const S b = g_[k_ + 1];
    g_[k_] = rot.c * a - rot.s * b;
    g_[k_ + 1] = rot.s * a + rot.c * b;
    rotations_.pop_back();
  }

  /// Number of columns appended so far.
  [[nodiscard]] std::size_t size() const noexcept { return k_; }

  /// Current least-squares residual norm |g_{k+1}| (equals beta before any
  /// column is added).  This is the GMRES residual norm in exact arithmetic.
  [[nodiscard]] double residual_estimate() const noexcept {
    return std::abs(static_cast<double>(g_[k_]));
  }

  /// R(i, j) of the triangular factor, for i <= j < size() (widened).
  [[nodiscard]] double r(std::size_t i, std::size_t j) const {
    if (j >= k_ || i > j) {
      throw std::out_of_range("HessenbergQr::r: not in the upper triangle");
    }
    return static_cast<double>(r_[packed_offset(j) + i]);
  }

  /// Leading k x k block of the triangular factor as a dense (double)
  /// matrix, by value; float factors are widened entry-wise.
  [[nodiscard]] la::DenseMatrix r_block() const {
    la::DenseMatrix out(k_, k_);
    for (std::size_t j = 0; j < k_; ++j) {
      const S* src = r_.data() + packed_offset(j);
      double* dst = out.col(j);
      for (std::size_t i = 0; i <= j; ++i) {
        dst[i] = static_cast<double>(src[i]);
      }
    }
    return out;
  }

  /// First k entries of the transformed right-hand side g (widened).
  [[nodiscard]] la::Vector rhs_block() const {
    la::Vector z(k_);
    for (std::size_t i = 0; i < k_; ++i) z[i] = static_cast<double>(g_[i]);
    return z;
  }

private:
  /// Start of column \p j of the packed R.
  static constexpr std::size_t packed_offset(std::size_t j) noexcept {
    return j * (j + 1) / 2;
  }

  std::size_t max_cols_ = 0;
  std::size_t k_ = 0;
  std::vector<S> r_;                    // R packed by column, k(k+1)/2
  std::vector<GivensRotationT<S>> rotations_;
  std::vector<S> g_;                    // transformed rhs, length max_cols+1
  std::vector<S> col_;                  // add_column scratch, max_cols+1
};

using HessenbergQr = HessenbergQrT<double>;

} // namespace sdcgmres::dense
