#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/hooks.hpp"
#include "la/blas1.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace sdc = sdcgmres::sdc;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

double explicit_residual(const sdcgmres::sparse::CsrMatrix& A,
                         const la::Vector& b, const la::Vector& x) {
  la::Vector r(A.rows());
  A.spmv(x, r);
  la::waxpby(1.0, b, -1.0, r, r);
  return la::nrm2(r);
}

} // namespace

TEST(FtGmres, DefaultOptionsMatchPaperInnerSolve) {
  const krylov::FtGmresOptions opts;
  EXPECT_EQ(opts.inner.max_iters, 25u);
  EXPECT_EQ(opts.inner.tol, 0.0);
}

TEST(FtGmres, SolvesPoissonFailureFree) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  const auto res = krylov::ft_gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-8 * la::nrm2(b) * 1.01);
}

TEST(FtGmres, SolvesNonsymmetricFailureFree) {
  const auto A = gen::convection_diffusion2d(9, 25.0, -10.0);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  const auto res = krylov::ft_gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
}

TEST(FtGmres, InnerSolveBookkeepingIsConsistent) {
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  const auto res = krylov::ft_gmres(A, b, opts);
  ASSERT_EQ(res.inner_solves.size(), res.outer_iterations);
  std::size_t total = 0;
  for (std::size_t j = 0; j < res.inner_solves.size(); ++j) {
    EXPECT_EQ(res.inner_solves[j].outer_index, j);
    EXPECT_EQ(res.inner_solves[j].iterations, 10u);
    total += res.inner_solves[j].iterations;
  }
  EXPECT_EQ(res.total_inner_iterations, total);
}

TEST(FtGmres, FewerOuterIterationsThanUnpreconditionedGmres) {
  // The inner solve is a powerful preconditioner: the outer count must be
  // far below plain GMRES's iteration count.
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  const auto nested = krylov::ft_gmres(A, b, opts);

  krylov::GmresOptions plain;
  plain.max_iters = 500;
  plain.tol = 1e-8;
  const auto flat = krylov::gmres(A, b, plain);

  ASSERT_EQ(nested.status, krylov::SolveStatus::Converged);
  ASSERT_EQ(flat.status, krylov::SolveStatus::Converged);
  EXPECT_LT(nested.outer_iterations, flat.iterations / 2);
}

TEST(FtGmres, LongerInnerSolvesReduceOuterIterations) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtGmresOptions weak;
  weak.inner.max_iters = 5;
  krylov::FtGmresOptions strong;
  strong.inner.max_iters = 40;
  const auto res_weak = krylov::ft_gmres(A, b, weak);
  const auto res_strong = krylov::ft_gmres(A, b, strong);
  ASSERT_EQ(res_weak.status, krylov::SolveStatus::Converged);
  ASSERT_EQ(res_strong.status, krylov::SolveStatus::Converged);
  EXPECT_LT(res_strong.outer_iterations, res_weak.outer_iterations);
}

TEST(FtGmres, HookObservesEveryInnerIteration) {
  class CountingHook final : public krylov::ArnoldiHook {
  public:
    std::size_t solves = 0;
    std::size_t iterations = 0;
    void on_solve_begin(std::size_t) override { ++solves; }
    void on_iteration_begin(const krylov::ArnoldiContext&) override {
      ++iterations;
    }
  };
  const auto A = gen::poisson2d(8);
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 7;
  CountingHook hook;
  const auto res = krylov::ft_gmres(A, la::ones(64), opts, &hook);
  EXPECT_EQ(hook.solves, res.outer_iterations);
  EXPECT_EQ(hook.iterations, res.total_inner_iterations);
}

TEST(FtGmres, RobustFirstInnerHealsModerateFaultInFirstSolve) {
  // Section VII-E-1 implemented: CGS2 in the first inner solve restores
  // the correct total coefficient after a single moderate multiplicative
  // fault, so the faulty run matches the failure-free outer count.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.robust_first_inner = true;
  const auto baseline = krylov::ft_gmres(A, b, opts);
  ASSERT_EQ(baseline.status, krylov::SolveStatus::Converged);

  for (std::size_t site : {0u, 3u, 11u, 24u}) {
    sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
        site, sdc::MgsPosition::First,
        sdc::fault_classes::slightly_smaller()));
    const auto res = krylov::ft_gmres(A, b, opts, &campaign);
    ASSERT_TRUE(campaign.fired());
    EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
    EXPECT_EQ(res.outer_iterations, baseline.outer_iterations)
        << "site " << site;
  }
}

TEST(FtGmres, OperatorOverloadAgreesWithCsrOverload) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  krylov::FtGmresOptions opts;
  const auto r1 = krylov::ft_gmres(A, la::ones(36), opts);
  const auto r2 = krylov::ft_gmres(op, la::ones(36), opts);
  EXPECT_EQ(r1.outer_iterations, r2.outer_iterations);
  EXPECT_EQ(r1.status, r2.status);
}

// ---------------------------------------------------------------------------
// Solve guards and detector-triggered recovery.
// ---------------------------------------------------------------------------

TEST(FtGmresGuards, DeadlineGuardStopsTheSolve) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  // An unreachable tolerance with a generous (but allocatable: the outer
  // Hessenberg is max_outer^2 doubles) iteration cap, and a deadline
  // shorter than any single outer iteration: the guard must fire at the
  // first end-of-iteration check, long before the cap.  The inner effort
  // is kept low so the inner solve stays inexact -- a near-exact inner
  // solve triggers outer happy breakdown on iteration one, which returns
  // before the deadline is ever consulted.
  opts.outer.tol = 1e-30;
  opts.outer.max_outer = 500;
  opts.inner.max_iters = 5;
  opts.outer.deadline_seconds = 1e-9;
  const auto res = krylov::ft_gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::DeadlineExceeded);
  EXPECT_GE(res.outer_iterations, 1u); // at least one full outer step ran
}

TEST(FtGmresGuards, ZeroDeadlineMeansNoGuard) {
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.outer.deadline_seconds = 0.0;
  const auto res = krylov::ft_gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
}

TEST(FtGmresGuards, DivergenceGuardStopsNaNPoisonedInnerSolve) {
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.inner.divergence_factor = 10.0;
  // Poison one Hessenberg coefficient with NaN: the projected inner
  // least-squares estimate goes non-finite, which the guard converts into
  // a clean Diverged stop (dropping the poisoned column) instead of
  // letting NaN propagate through the inner iterate.
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      3, sdc::MgsPosition::First,
      sdc::FaultModel::set_value(std::numeric_limits<double>::quiet_NaN())));
  const auto res = krylov::ft_gmres(A, b, opts, &campaign);
  ASSERT_TRUE(campaign.fired());
  std::size_t diverged = 0;
  for (const auto& rec : res.inner_solves) {
    if (rec.status == krylov::SolveStatus::Diverged) ++diverged;
  }
  EXPECT_EQ(diverged, 1u);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged); // outer recovers
}

TEST(FtGmresGuards, RecoverySettingAloneIsBitwiseInert) {
  // The determinism contract: when no detector fires, every recovery mode
  // produces the exact run of the unguarded solver.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(64);
  krylov::FtGmresOptions plain;
  plain.outer.tol = 1e-8;
  const auto reference = krylov::ft_gmres(A, b, plain);
  for (const krylov::InnerRecovery mode :
       {krylov::InnerRecovery::RetryReliable,
        krylov::InnerRecovery::RestartOuter}) {
    krylov::FtGmresOptions opts = plain;
    opts.recovery = mode;
    const auto res = krylov::ft_gmres(A, b, opts);
    EXPECT_EQ(res.status, reference.status);
    EXPECT_EQ(res.outer_iterations, reference.outer_iterations);
    EXPECT_EQ(res.x, reference.x); // bitwise: identical operation sequence
    EXPECT_EQ(res.reliable_retries, 0u);
    EXPECT_EQ(res.outer_restarts, 0u);
  }
}

TEST(FtGmresRecovery, RetryReliableMatchesTheFailureFreeRun) {
  // A detected class-1 fault answered with retry_reliable re-runs the
  // flagged inner solve with injection disabled, so the outer iteration
  // count must equal the failure-free baseline at EVERY site.  This
  // config runs 7 outer x 5 inner iterations, so the sites below span
  // several distinct inner solves.
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.inner.max_iters = 5;
  const auto baseline = krylov::ft_gmres(A, b, opts);
  ASSERT_EQ(baseline.status, krylov::SolveStatus::Converged);

  opts.recovery = krylov::InnerRecovery::RetryReliable;
  const double bound = A.frobenius_norm();
  for (std::size_t site : {0u, 7u, 15u, 23u}) {
    sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
        site, sdc::MgsPosition::First, sdc::fault_classes::very_large()));
    sdc::HessenbergBoundDetector detector(
        bound, sdc::DetectorResponse::RetryReliable);
    krylov::HookChain chain({&campaign, &detector});
    const auto res = krylov::ft_gmres(A, b, opts, &chain);
    ASSERT_TRUE(campaign.fired()) << "site " << site;
    ASSERT_TRUE(detector.triggered()) << "site " << site;
    EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
    EXPECT_EQ(res.reliable_retries, 1u);
    EXPECT_EQ(res.outer_iterations, baseline.outer_iterations)
        << "site " << site;
    EXPECT_EQ(res.x, baseline.x) << "site " << site; // bitwise identical
  }
}

TEST(FtGmresRecovery, RetryRecordCarriesTheCombinedEffort) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.inner.max_iters = 5;
  opts.recovery = krylov::InnerRecovery::RetryReliable;
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      4, sdc::MgsPosition::First, sdc::fault_classes::very_large()));
  sdc::HessenbergBoundDetector detector(
      A.frobenius_norm(), sdc::DetectorResponse::RetryReliable);
  krylov::HookChain chain({&campaign, &detector});
  const auto res = krylov::ft_gmres(A, b, opts, &chain);
  ASSERT_TRUE(detector.triggered());
  const auto& rec = res.inner_solves.at(0); // site 4 is in inner solve 0
  EXPECT_EQ(rec.reliable_retries, 1u);
  // iterations/operator_applies sum both attempts: the aborted one plus
  // the full reliable re-run.
  EXPECT_GT(rec.iterations, opts.inner.max_iters);
}

TEST(FtGmresRecovery, RestartOuterDiscardsThePoisonedBasisAndConverges) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(100);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.inner.max_iters = 5;
  const auto baseline = krylov::ft_gmres(A, b, opts);

  opts.recovery = krylov::InnerRecovery::RestartOuter;
  const double bound = A.frobenius_norm();
  for (std::size_t site : {0u, 7u, 15u}) {
    sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
        site, sdc::MgsPosition::First, sdc::fault_classes::very_large()));
    sdc::HessenbergBoundDetector detector(
        bound, sdc::DetectorResponse::RestartOuter);
    krylov::HookChain chain({&campaign, &detector});
    const auto res = krylov::ft_gmres(A, b, opts, &chain);
    ASSERT_TRUE(detector.triggered()) << "site " << site;
    EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
    EXPECT_EQ(res.outer_restarts, 1u);
    // A restart rebuilds the basis from the current iterate: convergence
    // survives, with at most a few extra outer iterations.
    EXPECT_LE(res.outer_iterations, baseline.outer_iterations + 4)
        << "site " << site;
    const bool flagged = [&] {
      for (const auto& rec : res.inner_solves) {
        if (rec.triggered_outer_restart) return true;
      }
      return false;
    }();
    EXPECT_TRUE(flagged) << "site " << site;
  }
}

TEST(FtGmresRecovery, InnerRecoveryForMapsEveryDetectorResponse) {
  EXPECT_EQ(sdc::inner_recovery_for(sdc::DetectorResponse::RecordOnly),
            krylov::InnerRecovery::None);
  EXPECT_EQ(sdc::inner_recovery_for(sdc::DetectorResponse::AbortSolve),
            krylov::InnerRecovery::None);
  EXPECT_EQ(sdc::inner_recovery_for(sdc::DetectorResponse::RetryReliable),
            krylov::InnerRecovery::RetryReliable);
  EXPECT_EQ(sdc::inner_recovery_for(sdc::DetectorResponse::RestartOuter),
            krylov::InnerRecovery::RestartOuter);
}

// --- Thread invariance ------------------------------------------------------

#ifdef _OPENMP

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

/// A 40K-row solve sits far above the BLAS-1 serial threshold (4096), so
/// every dot, norm and fused MGS step runs the fixed-partition reduction:
/// the iterate, the residual history and every inner record must be
/// bitwise identical at 1..4 OpenMP threads.
TEST(FtGmresThreadInvariance, SolveBitwiseEqualAtOneToFourThreads) {
  const auto A = gen::poisson2d(200);
  const la::Vector b = la::ones(A.rows());
  for (const auto kind :
       {krylov::Orthogonalization::MGS, krylov::Orthogonalization::CGS2}) {
    krylov::FtGmresOptions opts;
    opts.inner.ortho = kind;
    const auto solve = [&](int threads) {
      const int saved = omp_get_max_threads();
      omp_set_num_threads(threads);
      auto res = krylov::ft_gmres(A, b, opts);
      omp_set_num_threads(saved);
      return res;
    };
    const auto serial = solve(1);
    ASSERT_EQ(serial.status, krylov::SolveStatus::Converged);
    for (int threads = 2; threads <= 4; ++threads) {
      const auto res = solve(threads);
      const std::string where = std::string(krylov::to_string(kind)) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(res.x.size(), serial.x.size()) << where;
      EXPECT_EQ(0, std::memcmp(res.x.data(), serial.x.data(),
                               serial.x.size() * sizeof(double)))
          << where;
      ASSERT_EQ(res.residual_history.size(), serial.residual_history.size())
          << where;
      for (std::size_t i = 0; i < serial.residual_history.size(); ++i) {
        EXPECT_TRUE(
            same_bits(res.residual_history[i], serial.residual_history[i]))
            << where << " residual_history[" << i << "]";
      }
      EXPECT_TRUE(same_bits(res.residual_norm, serial.residual_norm)) << where;
      ASSERT_EQ(res.inner_solves.size(), serial.inner_solves.size()) << where;
      for (std::size_t i = 0; i < serial.inner_solves.size(); ++i) {
        const krylov::InnerSolveRecord& got = res.inner_solves[i];
        const krylov::InnerSolveRecord& want = serial.inner_solves[i];
        EXPECT_EQ(got.outer_index, want.outer_index) << where << " rec " << i;
        EXPECT_EQ(got.status, want.status) << where << " rec " << i;
        EXPECT_EQ(got.iterations, want.iterations) << where << " rec " << i;
        EXPECT_EQ(got.operator_applies, want.operator_applies)
            << where << " rec " << i;
        EXPECT_TRUE(same_bits(got.residual_norm, want.residual_norm))
            << where << " rec " << i;
        EXPECT_EQ(got.reliable_retries, want.reliable_retries)
            << where << " rec " << i;
        EXPECT_EQ(got.triggered_outer_restart, want.triggered_outer_restart)
            << where << " rec " << i;
        EXPECT_EQ(got.global_syncs, want.global_syncs) << where << " rec " << i;
      }
    }
  }
}

#endif // _OPENMP
