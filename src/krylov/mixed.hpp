#pragma once
/// \file mixed.hpp
/// \brief The mixed-precision inner data plane of FT-GMRES.
///
/// FT-GMRES's selective-reliability split (paper Section VI) localizes
/// all "unreliable" work in the inner solves; the flexible outer
/// iteration absorbs whatever perturbation they produce.  Reduced
/// precision is exactly such a perturbation, so the inner solves -- and
/// only the inner solves -- may run on a narrowed data plane: a float32
/// and/or int32-indexed mirror of the outer operator's matrix (CSR or
/// SELL, whichever the outer streams), float32 Krylov basis, Hessenberg
/// QR, and BLAS.  The reliable outer FGMRES stays double and keeps
/// streaming the original operator.
///
/// Every layer is one template over the inner scalar S: the inner solve
/// is InnerGmresT<S> (ft_gmres.hpp) over an OperatorT<S>, and the mirror
/// is a MatrixOperator over CsrMatrixT/SellMatrixT.  with_inner_operator()
/// is the single (precision, index_width) dispatch both drivers share;
/// (double, int64) is the identity narrowing -- the inner solves stream
/// the outer operator itself and no mirror is built.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "krylov/ft_gmres.hpp"
#include "krylov/mixed_plane.hpp"
#include "krylov/operator.hpp"
#include "krylov/precision.hpp"
#include "krylov/sell_operator.hpp"
#include "krylov/workspace.hpp"
#include "sparse/csr_mixed.hpp"
#include "sparse/sell.hpp"

namespace sdcgmres::krylov {

/// Counting operators over the narrowed mirrors.
template <typename S, typename I>
using MixedCsrOperator = MatrixOperator<sparse::CsrMatrixT<S, I>>;
template <typename S, typename I>
using MixedSellOperator = MatrixOperator<sparse::SellMatrixT<S, I>>;

/// The S-typed inner workspace slot of an FtGmresWorkspace: the double
/// plane uses the standard inner slot, float configurations use the
/// dedicated float arena.
template <typename S>
[[nodiscard]] inline KrylovWorkspaceT<S>&
inner_workspace_for(FtGmresWorkspace& w) noexcept {
  if constexpr (std::is_same_v<S, double>) {
    return w.inner;
  } else {
    return w.inner_f32;
  }
}

namespace detail {
/// Fetch the cached mirror \p M of \p src, narrowing a fresh one when the
/// slot holds another instantiation or another source matrix.
template <typename M, typename Source>
[[nodiscard]] MixedPlaneOf<typename M::scalar_type>&
ensure_mirror(std::shared_ptr<MixedPlaneBase>& cache, const Source& src) {
  if (auto* hit = dynamic_cast<MirrorPlane<M>*>(cache.get());
      hit != nullptr && hit->source() == &src) {
    return *hit;
  }
  auto fresh = std::make_shared<MirrorPlane<M>>(src);
  cache = fresh;
  return *fresh;
}
} // namespace detail

/// Fetch (building or reusing) the <S, I> mirror of \p A in the cache
/// slot \p cache, narrowing whatever storage format the outer operator
/// streams: a CsrOperator gets a CsrMatrixT mirror, a SellOperator gets
/// a SellMatrixT mirror of the same chunk geometry (so inner results
/// stay bitwise identical across backends at every precision).  Repeated
/// solves through one workspace narrow once.  Throws
/// std::invalid_argument when \p A is not matrix-backed: the mixed plane
/// narrows a concrete matrix, not an abstract operator.
template <typename S, typename I>
[[nodiscard]] inline MixedPlaneOf<S>&
ensure_plane(std::shared_ptr<MixedPlaneBase>& cache,
             const LinearOperator& A) {
  if (const auto* csr = dynamic_cast<const CsrOperator*>(&A)) {
    return detail::ensure_mirror<sparse::CsrMatrixT<S, I>>(cache,
                                                           csr->matrix());
  }
  if (const auto* sell = dynamic_cast<const SellOperator*>(&A)) {
    return detail::ensure_mirror<sparse::SellMatrixT<S, I>>(cache,
                                                            sell->matrix());
  }
  throw std::invalid_argument(
      "ft_gmres: mixed precision/index configurations require a "
      "matrix-backed (csr/sell) operator");
}

/// The one (precision, index_width) dispatch of ft_gmres and
/// ft_gmres_batch: calls \p run with the inner solves' OperatorT<S> --
/// the <S, I> mirror of \p A cached in \p cache for non-default pairs,
/// and \p A itself for (double, int64), which leaves \p cache untouched.
template <typename Run>
auto with_inner_operator(const LinearOperator& A, const FtGmresOptions& opts,
                         std::shared_ptr<MixedPlaneBase>& cache, Run&& run) {
  const bool i32 = opts.index_width == IndexWidth::I32;
  if (opts.precision == Precision::Float) {
    return i32 ? run(ensure_plane<float, std::int32_t>(cache, A).typed_op())
               : run(ensure_plane<float, std::int64_t>(cache, A).typed_op());
  }
  return i32 ? run(ensure_plane<double, std::int32_t>(cache, A).typed_op())
             : run(A);
}

} // namespace sdcgmres::krylov
