#include <gtest/gtest.h>

#include <cmath>

#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/gmres.hpp"
#include "la/blas1.hpp"
#include "sdc/injection.hpp"

namespace sdc = sdcgmres::sdc;
namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

TEST(Injection, FiresExactlyOnceAtTargetIteration) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      3, sdc::MgsPosition::First, sdc::FaultModel::scale(2.0)));
  (void)krylov::arnoldi(op, la::ones(36), 8, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_TRUE(campaign.fired());
  ASSERT_EQ(campaign.log().size(), 1u);
  const auto& e = campaign.log().events()[0];
  EXPECT_EQ(e.kind, sdc::EventKind::Injection);
  EXPECT_EQ(e.iteration, 3u);
  EXPECT_EQ(e.coefficient, 0u); // first MGS step
  EXPECT_DOUBLE_EQ(e.value_after, 2.0 * e.value_before);
}

TEST(Injection, LastPositionTargetsDiagonalCoefficient) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      4, sdc::MgsPosition::Last, sdc::FaultModel::scale(3.0)));
  (void)krylov::arnoldi(op, la::ones(36), 8, krylov::Orthogonalization::MGS,
                        &campaign);
  ASSERT_TRUE(campaign.fired());
  const auto& e = campaign.log().events()[0];
  EXPECT_EQ(e.iteration, 4u);
  EXPECT_EQ(e.coefficient, 4u); // i = j on the targeted column
}

TEST(Injection, ExplicitIndexPosition) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan;
  plan.position = sdc::MgsPosition::Index;
  plan.coefficient_index = 2;
  plan.aggregate_iteration = 5;
  plan.model = sdc::FaultModel::scale(7.0);
  sdc::FaultCampaign campaign(plan);
  (void)krylov::arnoldi(op, la::ones(36), 8, krylov::Orthogonalization::MGS,
                        &campaign);
  ASSERT_TRUE(campaign.fired());
  EXPECT_EQ(campaign.log().events()[0].coefficient, 2u);
}

TEST(Injection, IndexBeyondColumnLengthNeverFires) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan;
  plan.position = sdc::MgsPosition::Index;
  plan.coefficient_index = 10; // column 2 has only 3 coefficients
  plan.aggregate_iteration = 2;
  sdc::FaultCampaign campaign(plan);
  (void)krylov::arnoldi(op, la::ones(36), 8, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_FALSE(campaign.fired());
}

TEST(Injection, SubdiagonalTarget) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan;
  plan.target = sdc::InjectionTarget::SubdiagonalNorm;
  plan.aggregate_iteration = 2;
  plan.model = sdc::FaultModel::scale(0.5);
  sdc::FaultCampaign campaign(plan);
  const auto res = krylov::arnoldi(op, la::ones(36), 6,
                                   krylov::Orthogonalization::MGS, &campaign);
  ASSERT_TRUE(campaign.fired());
  const auto& e = campaign.log().events()[0];
  EXPECT_EQ(e.iteration, 2u);
  EXPECT_EQ(e.coefficient, 3u); // h(j+1, j) with j = 2
  EXPECT_DOUBLE_EQ(res.h(3, 2), e.value_after);
}

TEST(Injection, MatvecElementTarget) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::InjectionPlan plan;
  plan.target = sdc::InjectionTarget::MatvecElement;
  plan.aggregate_iteration = 1;
  plan.element_index = 7;
  plan.model = sdc::FaultModel::set_value(1e9);
  sdc::FaultCampaign campaign(plan);
  (void)krylov::arnoldi(op, la::ones(36), 6, krylov::Orthogonalization::MGS,
                        &campaign);
  ASSERT_TRUE(campaign.fired());
  EXPECT_DOUBLE_EQ(campaign.log().events()[0].value_after, 1e9);
}

TEST(Injection, AggregateCountingSpansMultipleSolves) {
  // Two solves of 5 iterations each: site 7 is iteration 2 of solve 1.
  const auto A = gen::poisson2d(6);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      7, sdc::MgsPosition::First, sdc::FaultModel::scale(2.0)));
  krylov::GmresOptions opts;
  opts.max_iters = 5;
  opts.tol = 0.0;
  const krylov::CsrOperator op(A);
  (void)krylov::gmres(op, la::ones(36), la::zeros(36), opts, &campaign, 0);
  EXPECT_FALSE(campaign.fired());
  EXPECT_EQ(campaign.aggregate_iterations(), 5u);
  (void)krylov::gmres(op, la::ones(36), la::zeros(36), opts, &campaign, 1);
  EXPECT_TRUE(campaign.fired());
  const auto& e = campaign.log().events()[0];
  EXPECT_EQ(e.solve_index, 1u);
  EXPECT_EQ(e.iteration, 2u);
}

TEST(Injection, SeededCampaignFiresLikeOneThatObservedThePrefix) {
  // A solve resumed after a recorded fault-free prefix sees only the
  // suffix: its campaign, seeded with the prefix's p iterations, must
  // fire exactly where the campaign that observed the prefix does.
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  krylov::GmresOptions opts;
  opts.max_iters = 5;
  opts.tol = 0.0;
  const std::size_t p = opts.max_iters; // solve 0 is the prefix
  const sdc::InjectionTarget targets[] = {
      sdc::InjectionTarget::ProjectionCoefficient,
      sdc::InjectionTarget::SubdiagonalNorm,
      sdc::InjectionTarget::MatvecElement};
  for (const sdc::InjectionTarget target : targets) {
    for (std::size_t site = p; site < 2 * p; ++site) {
      sdc::InjectionPlan plan = sdc::InjectionPlan::hessenberg(
          site, sdc::MgsPosition::Last, sdc::FaultModel::scale(3.0));
      plan.target = target;
      plan.element_index = 4;
      sdc::FaultCampaign observed(plan);
      (void)krylov::gmres(op, la::ones(36), la::zeros(36), opts, &observed,
                          0);
      (void)krylov::gmres(op, la::ones(36), la::zeros(36), opts, &observed,
                          1);
      sdc::FaultCampaign seeded(plan, p);
      (void)krylov::gmres(op, la::ones(36), la::zeros(36), opts, &seeded, 1);

      ASSERT_TRUE(observed.fired()) << "site " << site;
      ASSERT_TRUE(seeded.fired()) << "site " << site;
      EXPECT_EQ(seeded.aggregate_iterations(),
                observed.aggregate_iterations());
      const auto& a = observed.log().events().at(0);
      const auto& b = seeded.log().events().at(0);
      EXPECT_EQ(b.solve_index, a.solve_index);
      EXPECT_EQ(b.iteration, a.iteration);
      EXPECT_EQ(b.coefficient, a.coefficient);
      EXPECT_EQ(b.value_before, a.value_before);
      EXPECT_EQ(b.value_after, a.value_after);
      EXPECT_EQ(a.iteration, site - p);
    }
  }
}

TEST(Injection, NeverFiresWhenTargetBeyondRun) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      1000, sdc::MgsPosition::First, sdc::FaultModel::scale(2.0)));
  (void)krylov::arnoldi(op, la::ones(36), 8, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_FALSE(campaign.fired());
  EXPECT_TRUE(campaign.log().empty());
}

TEST(Injection, SingleEventOnly) {
  // Even though every subsequent iteration also has a "first" MGS step,
  // the transient fault must fire exactly once.
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      0, sdc::MgsPosition::First, sdc::FaultModel::scale(100.0)));
  (void)krylov::arnoldi(op, la::ones(36), 10, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_EQ(campaign.log().size(), 1u);
}

TEST(Injection, ResetReArms) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      0, sdc::MgsPosition::First, sdc::FaultModel::scale(2.0)));
  (void)krylov::arnoldi(op, la::ones(36), 3, krylov::Orthogonalization::MGS,
                        &campaign);
  ASSERT_TRUE(campaign.fired());
  campaign.reset();
  EXPECT_FALSE(campaign.fired());
  EXPECT_EQ(campaign.aggregate_iterations(), 0u);
  (void)krylov::arnoldi(op, la::ones(36), 3, krylov::Orthogonalization::MGS,
                        &campaign);
  EXPECT_TRUE(campaign.fired());
}

TEST(Injection, FirstCoefficientOfSpdColumnIsNearZeroBeforeFault) {
  // SPD tridiagonal structure: h(0, j) should be exactly 0 for j >= 2 in
  // exact arithmetic; in floating point it is ~machine-epsilon-sized.
  // Scaling that roundoff value by 1e150 makes it enormous and clearly
  // nonzero -- the mechanism behind the large Fig. 3a penalties.
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      5, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
  const auto res = krylov::arnoldi(op, la::ones(64), 8,
                                   krylov::Orthogonalization::MGS, &campaign);
  ASSERT_TRUE(campaign.fired());
  const auto& e = campaign.log().events()[0];
  EXPECT_LT(std::abs(e.value_before), 1e-10); // tridiagonal "zero"
  // The scaled roundoff dwarfs the theoretical bound: a detectable fault
  // that, undetected, visibly corrupts the basis.
  EXPECT_GT(std::abs(e.value_after), A.frobenius_norm());
  (void)res;
}
