#pragma once
/// \file arnoldi.hpp
/// \brief The Arnoldi process (basis + Hessenberg matrix) as a driver of
/// the one GMRES loop.
///
/// arnoldi() runs GmresEngine -- the loop every solver runs, with the
/// paper's hook site between the dot product and the axpy of MGS -- for
/// one cycle of m steps on b = v0 from x = 0, and returns the basis and
/// the Hessenberg columns it built.  The property tests (orthonormality,
/// the Arnoldi relation A Q_k = Q_{k+1} H_k, the paper's Eq. 3 bound), the
/// sdc hook tests and the Fig. 2 structure bench call it, so they pin the
/// production loop.

#include <cstddef>
#include <vector>

#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/dense_matrix.hpp"
#include "la/krylov_basis.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Result of running the Arnoldi process for up to m steps.
struct ArnoldiResult {
  la::KrylovBasis q;      ///< k+1 orthonormal basis columns (contiguous,
                          ///< column-major; q.col(j) views column j)
  la::DenseMatrix h;      ///< (k+1) x k upper Hessenberg
  std::size_t steps = 0;  ///< k, the number of completed steps
  bool breakdown = false; ///< happy breakdown occurred at step `steps`
};

/// Run m >= 1 steps of Arnoldi with start vector \p v0 (nonzero, need not
/// be normalized).  The engine's semantics apply:
///  - happy breakdown stops the run when the subdiagonal falls to
///    \p breakdown_tol times ||A q_j|| or below (a relative test);
///  - a hook abort drops the column being built, so `steps` counts only
///    the columns accepted before the detector fired and `q` holds
///    steps+1 columns.
[[nodiscard]] ArnoldiResult arnoldi(
    const LinearOperator& A, const la::Vector& v0, std::size_t m,
    Orthogonalization ortho = Orthogonalization::MGS,
    ArnoldiHook* hook = nullptr, double breakdown_tol = 1e-14);

} // namespace sdcgmres::krylov
