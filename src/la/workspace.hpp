#pragma once
/// \file workspace.hpp
/// \brief Reusable solver storage: the zero-allocation data plane.
///
/// Every GMRES-family solve needs the same storage shape: an orthonormal
/// basis arena V, a (flexible solvers only) preconditioned-direction arena
/// Z, a handful of length-n scratch vectors, and one Hessenberg column.
/// Allocating these per solve is invisible for a single solve but dominates
/// an injection sweep, which runs hundreds of independent solves of the
/// same shape.  SolverWorkspace owns all of it once.  reserve() sets the
/// arenas' column bound (the iteration budget: it grows monotonically and
/// costs no memory), while their storage grows with the columns a solve
/// actually appends and is kept across solves.  A workspace checked out by
/// a sweep worker thread thus reaches a fixed point after its longest
/// solve, and every solve that appends no more columns runs without
/// touching the heap.
///
/// Templated on the scalar type: the reliable plane uses the double
/// instantiation (aliased SolverWorkspace), the mixed-precision inner
/// GMRES engines check out SolverWorkspaceT<float> arenas.
///
/// Ownership and aliasing rules (the span data plane contract):
///   - A workspace serves ONE solver instance at a time.  Nested solvers
///     (FT-GMRES: outer FGMRES + inner GMRES) need one workspace per
///     nesting level, because the outer basis must survive inner solves.
///   - Spans handed to operators/preconditioners point into these arenas;
///     callees must treat input spans as read-only and write every entry
///     of their output span.  Input and output spans never alias.
///   - A span or view into V or Z is valid until the next append() to
///     that same arena (growth may move its storage).  Appends to one
///     arena never move the other, nor the scratch vectors.
///   - Threads must not share a workspace.  One workspace per thread is
///     the parallel-sweep pattern (see experiment::run_injection_sweep).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::la {

/// Arena of reusable solver storage (see file comment for the contract).
template <typename S>
class SolverWorkspaceT {
public:
  /// Number of length-n scratch vectors (residual, candidate,
  /// preconditioner output, update -- the most any solver needs at once).
  static constexpr std::size_t kScratchSlots = 4;

  SolverWorkspaceT() = default;

  /// Shape for solves with \p rows unknowns and up to \p max_dim basis
  /// columns (V is bounded by max_dim+1 columns for the final Arnoldi
  /// vector).
  SolverWorkspaceT(std::size_t rows, std::size_t max_dim) {
    reserve(rows, max_dim);
  }

  /// Shape the arenas for a solve of \p rows unknowns with up to
  /// \p max_dim basis/direction columns.  With an unchanged row count the
  /// column bound grows monotonically and a fitting reserve keeps the
  /// grown storage; changing the row count or raising the bound starts
  /// the arenas empty again (they regrow on append).  Existing column
  /// contents are NOT preserved across a reshaping reserve.  The
  /// O(max_dim) Hessenberg column is sized here.
  void reserve(std::size_t rows, std::size_t max_dim) {
    if (rows != rows_ || max_dim > max_dim_) {
      // Same row count: raise the column bound monotonically.  A changed
      // row count reshapes the arenas (their columns must be exactly
      // rows-long spans).  Either way the new arenas allocate nothing
      // until appended to -- a case repeated same-shape solves (the sweep
      // pattern) never hit after their first.
      const std::size_t d = (rows == rows_) ? std::max(max_dim, max_dim_)
                                            : max_dim;
      v_ = KrylovBasisT<S>(rows, d + 1);
      z_ = KrylovBasisT<S>(rows, d);
      rows_ = rows;
      max_dim_ = d;
    }
    for (VectorT<S>& s : scratch_) {
      if (s.size() != rows_) s.resize(rows_);
    }
    if (hcol_.size() < max_dim_ + 2) hcol_.resize(max_dim_ + 2, S(0));
  }

  /// Orthonormal basis arena V (capacity >= max_dim+1 after reserve;
  /// storage grows with its columns).
  [[nodiscard]] KrylovBasisT<S>& basis() noexcept { return v_; }
  /// Preconditioned-direction arena Z (capacity >= max_dim after reserve).
  [[nodiscard]] KrylovBasisT<S>& directions() noexcept { return z_; }

  /// Length-rows scratch vector \p slot (0 <= slot < kScratchSlots).
  /// Contents are unspecified at checkout; callers must fully overwrite.
  [[nodiscard]] VectorT<S>& scratch(std::size_t slot) noexcept {
    return scratch_[slot];
  }

  /// Hessenberg column scratch (length >= max_dim+2 after reserve).
  [[nodiscard]] std::vector<S>& h_column() noexcept { return hcol_; }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t max_dim() const noexcept { return max_dim_; }

private:
  std::size_t rows_ = 0;
  std::size_t max_dim_ = 0;
  KrylovBasisT<S> v_;
  KrylovBasisT<S> z_;
  VectorT<S> scratch_[kScratchSlots];
  std::vector<S> hcol_;
};

using SolverWorkspace = SolverWorkspaceT<double>;

} // namespace sdcgmres::la
