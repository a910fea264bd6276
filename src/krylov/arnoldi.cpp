#include "krylov/arnoldi.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "krylov/gmres.hpp"
#include "krylov/workspace.hpp"
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
  // The engine would report a zero start vector as a converged solve.
  if (la::nrm2(v0) == 0.0) {
    throw std::invalid_argument("arnoldi: start vector must be nonzero");
  }
  // GMRES on b = v0 from x = 0: its first residual is v0, so one cycle of
  // m steps with the convergence test off is m steps of Arnoldi on v0.
  GmresOptions opts;
  opts.max_iters = m;
  opts.restart = m;
  opts.tol = 0.0;
  opts.ortho = ortho;
  opts.breakdown_tol = breakdown_tol;
  KrylovWorkspace ws;
  la::Vector x(A.cols());
  GmresEngine engine(A, v0.span(), x.span(), opts, hook, 0, ws, nullptr);

  ArnoldiResult out;
  out.h.reshape(m + 1, m);
  while (!engine.finished()) {
    const std::size_t j = engine.stats().iterations;
    step_with_apply(A, engine);
    if (engine.stats().iterations == j) continue; // cycle start or abort
    const std::vector<double>& hcol = ws.arena.h_column();
    for (std::size_t i = 0; i <= j + 1; ++i) out.h(i, j) = hcol[i];
  }
  out.steps = engine.stats().iterations;
  out.breakdown = engine.stats().status == SolveStatus::HappyBreakdown;
  out.q = std::move(ws.arena.basis());
  return out;
}

} // namespace sdcgmres::krylov
