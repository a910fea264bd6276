#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "gen/poisson.hpp"
#include "gen/convection_diffusion.hpp"
#include "krylov/arnoldi.hpp"
#include "la/blas1.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

/// Start vector with components on (generically) all eigenvectors.  A
/// constant vector excites only ~10 distinct eigenvalues of the Poisson
/// grids, so long Arnoldi runs from `ones` would walk past an effective
/// invariant subspace into roundoff noise.
la::Vector generic_vector(std::size_t n) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + 0.3) +
           0.01 * static_cast<double>(i % 13);
  }
  return v;
}

double hessenberg_relation_error(const krylov::LinearOperator& A,
                                 const krylov::ArnoldiResult& res) {
  // || A q_j - sum_i h(i,j) q_i ||, maximized over j < steps.
  double worst = 0.0;
  for (std::size_t j = 0; j < res.steps; ++j) {
    la::Vector aq(A.rows());
    A.apply(res.q.col(j), aq);
    for (std::size_t i = 0; i <= j + 1 && i < res.q.cols(); ++i) {
      la::axpy(-res.h(i, j), res.q.col(i), aq.span());
    }
    worst = std::max(worst, la::nrm2(aq));
  }
  return worst;
}

double basis_orthonormality_defect(const krylov::ArnoldiResult& res) {
  double worst = 0.0;
  for (std::size_t a = 0; a < res.q.cols(); ++a) {
    for (std::size_t b = a; b < res.q.cols(); ++b) {
      const double target = (a == b) ? 1.0 : 0.0;
      worst = std::max(worst,
                       std::abs(la::dot(res.q.col(a), res.q.col(b)) - target));
    }
  }
  return worst;
}

} // namespace

TEST(Arnoldi, BasisIsOrthonormal) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, generic_vector(64), 10);
  EXPECT_EQ(res.steps, 10u);
  EXPECT_LT(basis_orthonormality_defect(res), 1e-12);
}

TEST(Arnoldi, HessenbergRelationHolds) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, generic_vector(64), 10);
  EXPECT_LT(hessenberg_relation_error(op, res), 1e-12);
}

TEST(Arnoldi, ConstantStartVectorExposesEffectiveInvariantSubspace) {
  // Documenting the phenomenon above: from `ones`, the residual subdiagonal
  // entries collapse by ~6 orders of magnitude within a dozen steps as the
  // small invariant subspace is exhausted.
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, la::ones(64), 12,
                                   krylov::Orthogonalization::MGS, nullptr,
                                   /*breakdown_tol=*/1e-8);
  EXPECT_TRUE(res.breakdown);
  EXPECT_LT(res.steps, 12u);
}

TEST(Arnoldi, SymmetricMatrixGivesTridiagonalH) {
  // Paper Fig. 2: SPD input makes H tridiagonal -- entries h(i,j) with
  // i < j-1 must vanish.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, la::ones(100), 12);
  for (std::size_t j = 0; j < res.steps; ++j) {
    for (std::size_t i = 0; i + 1 < j; ++i) {
      EXPECT_NEAR(res.h(i, j), 0.0, 1e-10)
          << "h(" << i << "," << j << ") should be ~0 for SPD input";
    }
  }
}

TEST(Arnoldi, NonsymmetricMatrixFillsUpperHessenberg) {
  const auto A = gen::convection_diffusion2d(10, 30.0, 10.0);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, la::ones(100), 12);
  // At least one genuinely upper entry (i < j-1) must be non-negligible.
  double largest_upper = 0.0;
  for (std::size_t j = 0; j < res.steps; ++j) {
    for (std::size_t i = 0; i + 1 < j; ++i) {
      largest_upper = std::max(largest_upper, std::abs(res.h(i, j)));
    }
  }
  EXPECT_GT(largest_upper, 1e-6);
}

TEST(Arnoldi, HappyBreakdownOnInvariantSubspace) {
  // Start vector = eigenvector of the 1-D Laplacian => one-dimensional
  // Krylov space, breakdown at step 1.
  const std::size_t n = 16;
  const auto A = gen::poisson1d(n);
  const krylov::CsrOperator op(A);
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(M_PI * static_cast<double>(i + 1) /
                    static_cast<double>(n + 1));
  }
  const auto res = krylov::arnoldi(op, v, 5, krylov::Orthogonalization::MGS,
                                   nullptr, 1e-10);
  EXPECT_TRUE(res.breakdown);
  EXPECT_EQ(res.steps, 1u);
}

TEST(Arnoldi, SubdiagonalEntriesAreNonnegative) {
  const auto A = gen::convection_diffusion2d(8, 5.0, -3.0);
  const krylov::CsrOperator op(A);
  const auto res = krylov::arnoldi(op, la::ones(64), 8);
  for (std::size_t j = 0; j < res.steps; ++j) {
    EXPECT_GE(res.h(j + 1, j), 0.0);
  }
}

TEST(Arnoldi, DetectorAbortDropsTheTaintedColumn) {
  // A class-1 fault in iteration j trips the bound detector while column j
  // is being built.  The abort drops that column: the run reports the j
  // columns accepted before it, as an aborted inner GMRES solve does.
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const std::size_t j = 4;
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      j, sdc::MgsPosition::First, sdc::fault_classes::very_large()));
  sdc::HessenbergBoundDetector detector(A.frobenius_norm(),
                                        sdc::DetectorResponse::AbortSolve);
  krylov::HookChain chain({&campaign, &detector});
  const auto res = krylov::arnoldi(op, generic_vector(64), 10,
                                   krylov::Orthogonalization::MGS, &chain);
  EXPECT_TRUE(detector.triggered());
  EXPECT_EQ(res.steps, j);
  EXPECT_FALSE(res.breakdown);
  EXPECT_EQ(res.q.cols(), j + 1);
}

TEST(Arnoldi, RejectsNonSquareOperator) {
  sdcgmres::sparse::CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 2, 1.0);
  const sdcgmres::sparse::CsrMatrix A{std::move(coo)};
  const krylov::CsrOperator op(A);
  EXPECT_THROW((void)krylov::arnoldi(op, la::ones(3), 2),
               std::invalid_argument);
}

TEST(Arnoldi, RejectsZeroStartVector) {
  const auto A = gen::poisson1d(4);
  const krylov::CsrOperator op(A);
  EXPECT_THROW((void)krylov::arnoldi(op, la::zeros(4), 2),
               std::invalid_argument);
}

TEST(Arnoldi, RejectsMismatchedStartVector) {
  const auto A = gen::poisson1d(4);
  const krylov::CsrOperator op(A);
  EXPECT_THROW((void)krylov::arnoldi(op, la::ones(5), 2),
               std::invalid_argument);
}
