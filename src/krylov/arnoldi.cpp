#include "krylov/arnoldi.hpp"

#include <stdexcept>
#include <vector>

#include "la/blas1.hpp"

namespace sdcgmres::krylov {

ArnoldiResult arnoldi(const LinearOperator& A, const la::Vector& v0,
                      std::size_t m, Orthogonalization ortho,
                      ArnoldiHook* hook, double breakdown_tol) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("arnoldi: operator must be square");
  }
  if (v0.size() != A.cols()) {
    throw std::invalid_argument("arnoldi: start vector size mismatch");
  }
  ArnoldiResult out;
  const double beta = la::nrm2(v0);
  if (beta == 0.0) {
    throw std::invalid_argument("arnoldi: start vector must be nonzero");
  }
  out.h.reshape(m + 1, m);
  out.q = la::KrylovBasis(A.rows(), m + 1);
  out.q.append(v0.span(), 1.0 / beta);

  if (hook != nullptr) hook->on_solve_begin(0);
  la::Vector v(A.rows());
  std::vector<double> hcol(m + 1, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const ArnoldiContext ctx{.solve_index = 0, .iteration = j};
    if (hook != nullptr) hook->on_iteration_begin(ctx);
    A.apply(out.q.col(j), v);
    if (hook != nullptr) hook->on_matvec_result(ctx, v.span());
    double hnext = orthogonalize(ortho, out.q, j + 1, v, hcol, hook, ctx).exit;
    for (std::size_t i = 0; i <= j; ++i) out.h(i, j) = hcol[i];
    if (hook != nullptr) hook->on_subdiagonal(ctx, hnext);
    out.h(j + 1, j) = hnext;
    out.steps = j + 1;
    if (hook != nullptr && hook->abort_requested()) break;
    if (hnext <= breakdown_tol) {
      out.breakdown = true;
      break;
    }
    out.q.append(v.span(), 1.0 / hnext);
    if (hook != nullptr) {
      hcol[j + 1] = hnext;
      const ArnoldiIterationView view{
          .basis = out.q.view(j + 2),
          .h_column = {hcol.data(), j + 2},
      };
      hook->on_iteration_end(ctx, view);
      if (hook->abort_requested()) break;
    }
  }
  return out;
}

} // namespace sdcgmres::krylov
