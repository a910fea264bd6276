#pragma once
/// \file orthogonalize.hpp
/// \brief Orthogonalization kernels for the Arnoldi process.
///
/// The paper's analysis (Section V-B) is deliberately invariant of the
/// orthogonalization algorithm: the bound |h(i,j)| <= ||A||_2 holds for
/// Modified Gram-Schmidt, Classical Gram-Schmidt, and Householder alike.
/// We provide MGS (the paper's choice), CGS, and re-orthogonalized CGS2.
///
/// Hook semantics: on_projection_coefficient fires for every first-pass
/// coefficient, after its dot product and before it is applied to v.  For
/// MGS this reproduces the paper's injection site exactly (a corrupted
/// h(i,j) taints all subsequent MGS steps of the same column, the paper's
/// "worst-case scenario").  CGS2's second-pass corrections are applied
/// silently (they refine, not define, the coefficients).

#include <cstddef>
#include <span>
#include <vector>

#include "krylov/hooks.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Which Gram-Schmidt variant the Arnoldi process uses.
enum class Orthogonalization {
  MGS,  ///< Modified Gram-Schmidt (the paper's choice)
  CGS,  ///< Classical Gram-Schmidt (one pass)
  CGS2, ///< Classical Gram-Schmidt with full re-orthogonalization
};

/// Human-readable name (for reports).
[[nodiscard]] const char* to_string(Orthogonalization kind) noexcept;

/// Orthogonalize \p v against the \p k basis vectors \p q[0..k-1], writing
/// the projection coefficients into \p h (length >= k).  On return v is
/// (approximately) orthogonal to span{q_0..q_{k-1}} and h[i] holds the
/// total coefficient of q_i removed from v.
///
/// This is the per-vector REFERENCE path (k separate dot+axpy kernels over
/// scattered la::Vector buffers).  The solvers use the contiguous-basis
/// overload below; this one is kept as the baseline for the equivalence
/// tests and the old-vs-new kernel benchmark.
///
/// \param hook optional Arnoldi hook (may be nullptr); receives
///        on_projection_coefficient for every first-pass coefficient.
/// \param ctx context forwarded to the hook.
void orthogonalize(Orthogonalization kind,
                   std::span<const la::Vector> q, std::size_t k,
                   la::Vector& v, std::span<double> h, ArnoldiHook* hook,
                   const ArnoldiContext& ctx);

/// Fused orthogonalization over a contiguous KrylovBasis.  Semantics match
/// the reference overload:
///   - the hook fires once per first-pass coefficient with the same
///     (i, mgs_steps) sequence, each coefficient computed from the same
///     operands, and hook mutations are applied identically;
///   - MGS hook values are bitwise identical to the reference path at
///     every size and thread count (la::dot_axpy and la::dot share one
///     fixed-partition sum); CGS/CGS2 values (one gemv_t, each column
///     summed sequentially) are bitwise identical while la::dot runs its
///     plain sequential loop (up to 4096 rows) and agree to roundoff above;
///   - every result is bitwise independent of the OpenMP thread count;
///   - CGS2's second-pass corrections remain silent.
/// The kernels differ: CGS/CGS2 projections run as one gemv_t + one gemv
/// over the basis block, and MGS streams each column through the fused
/// la::dot_axpy kernel.  The CORRECTION rounding can also differ from the
/// reference (blocked column combination), i.e. v agrees to roundoff.
/// \p v is a span so callers can orthogonalize in place inside an arena
/// column (s-step mode) or a bound staging block (lockstep batch driver).
void orthogonalize(Orthogonalization kind, const la::KrylovBasis& q,
                   std::size_t k, std::span<double> v, std::span<double> h,
                   ArnoldiHook* hook, const ArnoldiContext& ctx);

/// Float instantiation of the same template, for the mixed-precision inner
/// engine: all kernels run in float, and since the ArnoldiHook protocol is
/// double-typed each first-pass coefficient is widened for the hook and
/// the (possibly mutated) value narrowed back before it is applied --
/// injected faults land in the float data plane exactly where they land in
/// the double one.
void orthogonalize(Orthogonalization kind, const la::KrylovBasisT<float>& q,
                   std::size_t k, std::span<float> v, std::span<float> h,
                   ArnoldiHook* hook, const ArnoldiContext& ctx);

/// Convenience wrapper for owning-vector callers.
inline void orthogonalize(Orthogonalization kind, const la::KrylovBasis& q,
                          std::size_t k, la::Vector& v, std::span<double> h,
                          ArnoldiHook* hook, const ArnoldiContext& ctx) {
  orthogonalize(kind, q, k, v.span(), h, hook, ctx);
}

/// Convenience wrapper for owning-vector callers.
inline void orthogonalize(Orthogonalization kind,
                          const la::KrylovBasisT<float>& q, std::size_t k,
                          la::VectorT<float>& v, std::span<float> h,
                          ArnoldiHook* hook, const ArnoldiContext& ctx) {
  orthogonalize(kind, q, k, v.span(), h, hook, ctx);
}

} // namespace sdcgmres::krylov
