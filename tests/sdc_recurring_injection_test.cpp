#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/ft_gmres.hpp"
#include "la/blas1.hpp"
#include "sdc/injection.hpp"

namespace sdc = sdcgmres::sdc;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

TEST(RecurringInjection, ZeroPeriodThrows) {
  EXPECT_THROW(sdc::RecurringFaultCampaign(0, 0, sdc::MgsPosition::First,
                                           sdc::FaultModel::scale(2.0)),
               std::invalid_argument);
}

TEST(RecurringInjection, IndexPositionThrows) {
  // A recurring campaign has no coefficient index to aim at; accepting
  // Index would build a campaign that silently never fires.
  EXPECT_THROW(sdc::RecurringFaultCampaign(0, 1, sdc::MgsPosition::Index,
                                           sdc::FaultModel::scale(2.0)),
               std::invalid_argument);
}

TEST(RecurringInjection, FiresAtEveryPeriodMultiple) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::RecurringFaultCampaign campaign(/*first=*/2, /*period=*/3,
                                       sdc::MgsPosition::First,
                                       sdc::FaultModel::scale(2.0));
  (void)krylov::arnoldi(op, la::ones(36), 12, krylov::Orthogonalization::MGS,
                        &campaign);
  // Iterations 2, 5, 8, 11 of a 12-step run.
  EXPECT_EQ(campaign.fault_count(), 4u);
  ASSERT_EQ(campaign.log().size(), 4u);
  EXPECT_EQ(campaign.log().events()[0].iteration, 2u);
  EXPECT_EQ(campaign.log().events()[1].iteration, 5u);
  EXPECT_EQ(campaign.log().events()[3].iteration, 11u);
}

TEST(RecurringInjection, RespectsFirstIteration) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::RecurringFaultCampaign campaign(/*first=*/100, /*period=*/1,
                                       sdc::MgsPosition::First,
                                       sdc::FaultModel::scale(2.0));
  (void)krylov::arnoldi(op, la::ones(36), 10, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_EQ(campaign.fault_count(), 0u);
}

TEST(RecurringInjection, LastPositionHitsDiagonalStep) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::RecurringFaultCampaign campaign(0, 4, sdc::MgsPosition::Last,
                                       sdc::FaultModel::scale(3.0));
  (void)krylov::arnoldi(op, la::ones(36), 9, krylov::Orthogonalization::MGS,
                        &campaign);
  ASSERT_GE(campaign.fault_count(), 2u);
  for (const auto& e : campaign.log().events()) {
    EXPECT_EQ(e.coefficient, e.iteration); // i == j for the Last position
  }
}

TEST(RecurringInjection, CountsAcrossInnerSolves) {
  const auto A = gen::poisson2d(8);
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  opts.outer.tol = 1e-8;
  sdc::RecurringFaultCampaign campaign(0, 10, sdc::MgsPosition::Last,
                                       sdc::fault_classes::slightly_smaller());
  const auto res = krylov::ft_gmres(A, la::ones(64), opts, &campaign);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  // One fault per inner solve (period == inner length).
  EXPECT_EQ(campaign.fault_count(), res.outer_iterations);
}

TEST(RecurringInjection, ResetReArms) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::RecurringFaultCampaign campaign(0, 2, sdc::MgsPosition::First,
                                       sdc::FaultModel::scale(2.0));
  (void)krylov::arnoldi(op, la::ones(36), 6, krylov::Orthogonalization::MGS,
                        &campaign);
  const std::size_t first_count = campaign.fault_count();
  ASSERT_GT(first_count, 0u);
  campaign.reset();
  EXPECT_EQ(campaign.fault_count(), 0u);
  (void)krylov::arnoldi(op, la::ones(36), 6, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_EQ(campaign.fault_count(), first_count);
}

TEST(RecurringInjection, FtGmresSurvivesModerateRate) {
  // The headline of bench_ablation_fault_rate as a regression test: one
  // class-1 fault every 25 inner iterations costs at most a couple of
  // outer iterations.
  const auto A = gen::poisson2d(10);
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  const auto baseline = krylov::ft_gmres(A, la::ones(100), opts);

  sdc::RecurringFaultCampaign campaign(3, 10, sdc::MgsPosition::Last,
                                       sdc::fault_classes::very_large());
  const auto faulty = krylov::ft_gmres(A, la::ones(100), opts, &campaign);
  ASSERT_GE(campaign.fault_count(), 2u);
  EXPECT_EQ(faulty.status, krylov::SolveStatus::Converged);
  EXPECT_LE(faulty.outer_iterations, baseline.outer_iterations + 4);
}
