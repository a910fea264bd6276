#pragma once
/// \file blas1.hpp
/// \brief Level-1 dense kernels (dot, axpy, norms, ...) on spans and
/// la::Vector.
///
/// These are the only vector kernels the Krylov solvers use, so they are the
/// natural unit for OpenMP parallelism.  All functions validate dimensions
/// with exceptions rather than assertions so that misuse is loud in Release
/// builds too (faults in *metadata* are out of the paper's scope, but bugs
/// are not faults).
///
/// Every kernel is one template over the scalar, instantiated for double
/// (the reliable plane) and float (the mixed-precision inner plane).  The
/// concrete overloads below stay non-template so that the implicit
/// span<T> -> span<const T> conversions keep working at call sites; float
/// overloads do all their arithmetic, reductions included, in float.
///
/// Reductions are deterministic: every floating-point sum (dot, nrm2, the
/// mgs() coefficients and norms) and the non-finite counter run through
/// one fixed-partition sum.  Up to 4096 entries it is the plain sequential
/// loop.  Above that the vector is cut into blocks whose size depends only
/// on its length (at most 256 blocks), each block is summed sequentially,
/// and the block partials are combined serially in a fixed pairwise order.
/// Results are therefore bitwise identical at every OpenMP thread count,
/// and the span, Vector and fused entry points all agree bitwise.
///
/// Up to 4096 entries every kernel is a plain serial loop behind an
/// ordinary branch, so small solves enter no OpenMP region at all.  The
/// span kernels never allocate.

#include <cstddef>
#include <span>
#include <type_traits>

#include "la/vector.hpp"

namespace sdcgmres::la {

template <typename S>
class BasisViewT;

// --- Span kernels -----------------------------------------------------------
//
// The contiguous KrylovBasis exposes its columns as std::span views; these
// overloads let every kernel run on a basis column without materializing an
// owning la::Vector.

/// Euclidean inner product x.y.  Throws std::invalid_argument on size
/// mismatch.
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);
[[nodiscard]] float dot(std::span<const float> x, std::span<const float> y);

/// 2-norm, computed as sqrt(dot(x, x)).
[[nodiscard]] double nrm2(std::span<const double> x);
[[nodiscard]] float nrm2(std::span<const float> x);

/// y := alpha*x + y (sizes must match).
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x := alpha*x.
void scal(double alpha, std::span<double> x);
void scal(float alpha, std::span<float> x);

/// y := alpha*x (sizes must match): the out-of-place scal, one read of x
/// and one write of y.  Each entry is the same product scal() forms.
void scal(double alpha, std::span<const double> x, std::span<double> y);
void scal(float alpha, std::span<const float> x, std::span<float> y);

/// y := x (sizes must match).
void copy(std::span<const double> x, std::span<double> y);
void copy(std::span<const float> x, std::span<float> y);

/// w := alpha*x + beta*y (sizes must match; w may alias x or y).
void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w);
void waxpby(float alpha, std::span<const float> x, float beta,
            std::span<const float> y, std::span<float> w);

/// Element-wise product z := x .* y (sizes must match).
void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z);

/// True when every entry is finite (no Inf, no NaN).
[[nodiscard]] bool all_finite(std::span<const double> x);
[[nodiscard]] bool all_finite(std::span<const float> x);

/// Number of entries that are NaN or infinite.
[[nodiscard]] std::size_t count_nonfinite(std::span<const double> x);
[[nodiscard]] std::size_t count_nonfinite(std::span<const float> x);

/// Norms of the vector an orthogonalization pass works on: ||v|| on entry
/// and on exit.
template <typename S>
struct OrthoNorms {
  S entry = S(0);
  S exit = S(0);
};

/// Non-owning reference to the projection-coefficient callback of mgs():
/// called as fn(i, coeff) once per basis column, in order, with the freshly
/// reduced coefficient q_i.v before it is applied; it may mutate coeff.  A
/// default-constructed reference means "no callback".  It never allocates,
/// and the callable must outlive the mgs() call.
template <typename S>
class CoefficientHook {
public:
  CoefficientHook() = default;
  template <typename F>
    requires(!std::is_same_v<std::remove_cv_t<F>, CoefficientHook>)
  CoefficientHook(F& fn) noexcept
      : obj_(&fn), call_([](void* obj, std::size_t i, S& coeff) {
          (*static_cast<F*>(obj))(i, coeff);
        }) {}

  explicit operator bool() const noexcept { return call_ != nullptr; }
  void operator()(std::size_t i, S& coeff) const { call_(obj_, i, coeff); }

private:
  void* obj_ = nullptr;
  void (*call_)(void*, std::size_t, S&) = nullptr;
};

/// Modified Gram-Schmidt of v against the q.cols() columns of \p q, in
/// place, with both norms of v folded into the same sweeps.  Adds each
/// applied coefficient into h[i] (h.size() >= q.cols()) and returns
/// ||v|| on entry and on exit.
///
/// One pass is q.cols()+1 sweeps over v.  Sweep 0 reduces q_0.v and v.v;
/// sweep i applies v -= h_{i-1} q_{i-1} block by block and, in the same
/// block loop, reduces q_i.v over the corrected entries (v.v in the last
/// sweep).  Between sweeps the partials are combined and \p hook fires.
/// That is 4k+1 length-n words for k columns, against 5k+2 for k separate
/// dot + axpy kernels plus the two norms.  Every block is summed
/// sequentially in entry order over the same corrected values, with the
/// same partition and combine tree as dot(), so the coefficients, v and
/// both norms are bitwise equal to the unfused sequence
///   entry = nrm2(v); for each i { c = dot(q_i, v); hook(i, c);
///                                 h[i] += c; axpy(-c, q_i, v); }
///   exit = nrm2(v)
/// at every size and thread count.  Above 4096 rows the whole pass is one
/// parallel region and the hook runs inside it, on one thread (it must
/// not throw).  Throws std::invalid_argument on a shape mismatch.
OrthoNorms<double> mgs(const BasisViewT<double>& q, std::span<double> v,
                       std::span<double> h,
                       CoefficientHook<double> hook = {});
OrthoNorms<float> mgs(const BasisViewT<float>& q, std::span<float> v,
                      std::span<float> h, CoefficientHook<float> hook = {});

// --- la::Vector overloads ---------------------------------------------------
//
// Forward to the span kernels.  Output vectors of waxpby, copy and hadamard
// are resized to the input length; every other size mismatch throws.

[[nodiscard]] double dot(const Vector& x, const Vector& y);
[[nodiscard]] double nrm2(const Vector& x);
void axpy(double alpha, const Vector& x, Vector& y);
void waxpby(double alpha, const Vector& x, double beta, const Vector& y,
            Vector& w);
void scal(double alpha, Vector& x);
void copy(const Vector& x, Vector& y);
void hadamard(const Vector& x, const Vector& y, Vector& z);
[[nodiscard]] bool all_finite(const Vector& x);
[[nodiscard]] std::size_t count_nonfinite(const Vector& x);

} // namespace sdcgmres::la
