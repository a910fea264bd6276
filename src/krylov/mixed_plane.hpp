#pragma once
/// \file mixed_plane.hpp
/// \brief Format-agnostic cache slot of the narrowed inner data plane.
///
/// The inner solves of a non-default precision=/index= configuration
/// stream a narrowed mirror of whatever format the outer operator streams
/// (a SELL-backed solve narrows the SELL structure, not a CSR fallback).
/// The pieces:
///
///   * MixedOperatorT<S>: the plane's counting operator seam -- simply
///     OperatorT<S> (operator.hpp), the same template the double plane
///     uses, so counters, wrappers and byte hooks exist once.
///   * MixedPlaneBase: the type-erased cache slot held by the solver
///     workspaces.
///   * MixedPlaneOf<S>: the scalar-typed layer -- what ensure_plane()
///     returns, so inner engines can be constructed against the plane's
///     typed operator without knowing the format or index width.
///   * MirrorPlane<M>: one narrowed matrix M (CsrMatrixT or SellMatrixT
///     at some (S, I)) plus its MatrixOperator.

#include <cstddef>

#include "krylov/operator.hpp"

namespace sdcgmres::krylov {

/// The narrowed plane's operator seam (one template with the double one).
template <typename S>
using MixedOperatorT = OperatorT<S>;

/// Type-erased cache slot for one narrowed mirror (see
/// FtGmresWorkspace::plane).  stats() surfaces the mirror's traffic so
/// solvers and the sweep can fold inner-plane bytes into their totals
/// without knowing the instantiation.
class MixedPlaneBase {
public:
  virtual ~MixedPlaneBase() = default;
  /// Traffic counters of the mirror's apply seam.
  [[nodiscard]] virtual OperatorStats stats() const noexcept = 0;
  /// Zero the mirror's counters (between measured phases).
  virtual void reset_stats() const noexcept = 0;
  /// Identity of the source matrix the mirror was narrowed from.
  [[nodiscard]] virtual const void* source() const noexcept = 0;
};

/// The scalar-typed plane layer: what ensure_plane() hands back, so the
/// caller can reach the typed counting operator without knowing the
/// storage format or index width behind it.
template <typename S>
class MixedPlaneOf : public MixedPlaneBase {
public:
  /// The plane's S-typed counting operator.
  [[nodiscard]] virtual const OperatorT<S>& typed_op() const noexcept = 0;
};

/// One narrowed mirror: the matrix \p M, narrowed from its source at
/// construction (throws std::overflow_error when the shape overflows
/// M's index type), plus its counting operator.
template <typename M>
class MirrorPlane final : public MixedPlaneOf<typename M::scalar_type> {
public:
  template <typename Source>
  explicit MirrorPlane(const Source& a) : matrix(a), op(matrix), src_(&a) {}

  [[nodiscard]] OperatorStats stats() const noexcept override {
    return op.stats();
  }
  void reset_stats() const noexcept override { op.reset_stats(); }
  [[nodiscard]] const void* source() const noexcept override { return src_; }
  [[nodiscard]] const OperatorT<typename M::scalar_type>&
  typed_op() const noexcept override {
    return op;
  }

  M matrix;
  MatrixOperator<M> op;

private:
  const void* src_;
};

} // namespace sdcgmres::krylov
