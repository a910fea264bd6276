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
/// Reductions are deterministic: every floating-point sum (dot, nrm2,
/// dot_axpy) and the non-finite counter run through one fixed-partition
/// sum.  Up to 4096 entries it is the plain sequential loop.  Above that
/// the vector is cut into blocks whose size depends only on its length
/// (at most 256 blocks), each block is summed sequentially, and the block
/// partials are combined serially in a fixed pairwise order.  Results are
/// therefore bitwise identical at every OpenMP thread count, and the
/// span, Vector, fused and unfused entry points all agree bitwise.

#include <cstddef>
#include <functional>
#include <span>

#include "la/vector.hpp"

namespace sdcgmres::la {

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

/// Fused MGS step: computes h = x.y, then y := y - h*x, in one kernel
/// (single parallel region; one fork/join instead of two, and each block
/// of x is hot in cache for its correction).  The dot runs the same fixed
/// partition as dot(), so the returned coefficient and the updated y are
/// bitwise identical to the unfused dot + axpy sequence at every size and
/// thread count.  Returns h.
double dot_axpy(std::span<const double> x, std::span<double> y);
float dot_axpy(std::span<const float> x, std::span<float> y);

/// Instrumented variant: \p adjust runs once with the freshly computed
/// coefficient BEFORE it is applied to y, and may mutate it; the mutated
/// value is what gets subtracted (and returned).  This is the projection-
/// coefficient hook point of the Arnoldi process (SDC injection/detection
/// site), preserved inside the fused kernel.  The float hook sees the float
/// coefficient (callers widen for double-typed hook protocols).
double dot_axpy(std::span<const double> x, std::span<double> y,
                const std::function<void(double&)>& adjust);
float dot_axpy(std::span<const float> x, std::span<float> y,
               const std::function<void(float&)>& adjust);

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
