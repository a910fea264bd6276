#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/ilu0.hpp"
#include "krylov/operator.hpp"
#include "krylov/workspace.hpp"
#include "la/blas1.hpp"
#include "la/workspace.hpp"
#include "sdc/detector.hpp"
#include "sdc/injection.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;
namespace sdc = sdcgmres::sdc;

namespace {

void expect_same_vector(const la::Vector& a, const la::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i;
  }
}

} // namespace

TEST(SolverWorkspace, ReserveIsMonotoneAndShapesArenas) {
  la::SolverWorkspace ws;
  ws.reserve(100, 30);
  EXPECT_EQ(ws.rows(), 100u);
  EXPECT_EQ(ws.max_dim(), 30u);
  EXPECT_EQ(ws.basis().rows(), 100u);
  EXPECT_EQ(ws.basis().capacity(), 31u);
  EXPECT_EQ(ws.directions().capacity(), 30u);
  EXPECT_GE(ws.h_column().size(), 32u);
  for (std::size_t s = 0; s < la::SolverWorkspace::kScratchSlots; ++s) {
    EXPECT_EQ(ws.scratch(s).size(), 100u);
  }

  const double* before = ws.basis().data();
  ws.reserve(100, 20); // fits: no reshape
  EXPECT_EQ(ws.basis().data(), before);
  EXPECT_EQ(ws.max_dim(), 30u);

  ws.reserve(100, 50); // column growth
  EXPECT_EQ(ws.max_dim(), 50u);
  ws.reserve(64, 10); // row change reshapes to the new row count
  EXPECT_EQ(ws.rows(), 64u);
  EXPECT_EQ(ws.basis().rows(), 64u);
}

TEST(Workspace, RepeatedGmresSolvesMatchFreshState) {
  // Two consecutive solves from ONE workspace must equal two fresh-state
  // solves bitwise: no state may leak between checkouts.
  const auto A = gen::convection_diffusion2d(12, 8.0, 4.0);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const la::Vector x0 = la::zeros(A.rows());
  krylov::GmresOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 200;
  opts.restart = 30; // exercise the per-cycle reset path too

  const auto fresh1 = krylov::gmres(op, b, x0, opts);
  const auto fresh2 = krylov::gmres(op, b, x0, opts);

  krylov::KrylovWorkspace ws;
  const auto reused1 = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);
  const auto reused2 = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);

  ASSERT_EQ(fresh1.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(reused1.status, fresh1.status);
  EXPECT_EQ(reused2.status, fresh2.status);
  EXPECT_EQ(reused1.iterations, fresh1.iterations);
  EXPECT_EQ(reused2.iterations, fresh2.iterations);
  EXPECT_EQ(reused1.residual_norm, fresh1.residual_norm);
  EXPECT_EQ(reused2.residual_norm, fresh2.residual_norm);
  expect_same_vector(reused1.x, fresh1.x);
  expect_same_vector(reused2.x, fresh2.x);
  EXPECT_EQ(reused1.residual_history, fresh1.residual_history);
  EXPECT_EQ(reused2.residual_history, fresh2.residual_history);
}

TEST(Workspace, RepeatedFgmresSolvesMatchFreshState) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  const la::Vector x0 = la::zeros(A.rows());
  krylov::Ilu0Preconditioner ilu(A);
  krylov::FixedFlexibleAdapter M(ilu);
  krylov::FgmresOptions opts;
  opts.tol = 1e-10;
  opts.max_outer = 80;

  const auto fresh1 = krylov::fgmres(op, b, x0, opts, M);
  const auto fresh2 = krylov::fgmres(op, b, x0, opts, M);

  krylov::KrylovWorkspace ws;
  const auto reused1 = krylov::fgmres(op, b, x0, opts, M, &ws);
  const auto reused2 = krylov::fgmres(op, b, x0, opts, M, &ws);

  ASSERT_EQ(fresh1.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(reused1.status, fresh1.status);
  EXPECT_EQ(reused2.status, fresh2.status);
  EXPECT_EQ(reused1.outer_iterations, fresh1.outer_iterations);
  EXPECT_EQ(reused2.outer_iterations, fresh2.outer_iterations);
  EXPECT_EQ(reused1.residual_norm, fresh1.residual_norm);
  EXPECT_EQ(reused2.residual_norm, fresh2.residual_norm);
  expect_same_vector(reused1.x, fresh1.x);
  expect_same_vector(reused2.x, fresh2.x);
}

TEST(Workspace, RepeatedFtGmresSolvesMatchFreshState) {
  // The full nested solver, with a fault campaign attached on the second
  // solve of each pair so the workspace also survives faulty solves.
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 100;

  const auto make_campaign = [] {
    return sdc::FaultCampaign(sdc::InjectionPlan::hessenberg(
        3, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
  };

  const auto fresh_clean = krylov::ft_gmres(A, b, opts);
  auto campaign1 = make_campaign();
  const auto fresh_faulty = krylov::ft_gmres(A, b, opts, &campaign1);

  krylov::FtGmresWorkspace ws;
  const auto reused_clean = krylov::ft_gmres(A, b, opts, nullptr, &ws);
  auto campaign2 = make_campaign();
  const auto reused_faulty = krylov::ft_gmres(A, b, opts, &campaign2, &ws);

  EXPECT_EQ(reused_clean.status, fresh_clean.status);
  EXPECT_EQ(reused_clean.outer_iterations, fresh_clean.outer_iterations);
  EXPECT_EQ(reused_clean.total_inner_iterations,
            fresh_clean.total_inner_iterations);
  EXPECT_EQ(reused_clean.residual_norm, fresh_clean.residual_norm);
  expect_same_vector(reused_clean.x, fresh_clean.x);

  ASSERT_TRUE(campaign1.fired());
  ASSERT_TRUE(campaign2.fired());
  EXPECT_EQ(reused_faulty.status, fresh_faulty.status);
  EXPECT_EQ(reused_faulty.outer_iterations, fresh_faulty.outer_iterations);
  EXPECT_EQ(reused_faulty.residual_norm, fresh_faulty.residual_norm);
  expect_same_vector(reused_faulty.x, fresh_faulty.x);
}

namespace {

/// Fault + retry_reliable detector hooks for the first two instances of a
/// batch; one fresh set per solve.
struct RetryHooks {
  RetryHooks(std::size_t batch, double bound) : hooks(batch, nullptr) {
    for (std::size_t i = 0; i < std::min<std::size_t>(batch, 2); ++i) {
      campaigns.emplace_back(sdc::InjectionPlan::hessenberg(
          2 + 3 * i, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
      detectors.emplace_back(bound, sdc::DetectorResponse::RetryReliable);
      chains.emplace_back();
      chains.back().add(&campaigns.back());
      chains.back().add(&detectors.back());
      hooks[i] = &chains.back();
    }
  }
  std::deque<sdc::FaultCampaign> campaigns;
  std::deque<sdc::HessenbergBoundDetector> detectors;
  std::deque<krylov::HookChain> chains;
  std::vector<krylov::ArnoldiHook*> hooks;
};

void expect_same_ft_result(const krylov::FtGmresResult& got,
                           const krylov::FtGmresResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.outer_iterations, want.outer_iterations);
  EXPECT_EQ(got.total_inner_iterations, want.total_inner_iterations);
  EXPECT_EQ(got.reliable_retries, want.reliable_retries);
  EXPECT_EQ(got.global_syncs, want.global_syncs);
  EXPECT_EQ(got.residual_norm, want.residual_norm);
  EXPECT_EQ(got.residual_history, want.residual_history);
  expect_same_vector(got.x, want.x);
}

} // namespace

TEST(Workspace, FtGmresWorkspaceGrowsMidReuseBitwise) {
  // One workspace runs a 3-outer solve and then a 12-outer one, so its
  // outer arenas grow (and move) between solves while the inner solves
  // hold spans into them across their reliable retries.  Every result must
  // equal the same solve on a fresh workspace, solo and in lockstep.
  const auto A = gen::poisson2d(16);
  const krylov::CsrOperator op(A);
  const double bound = A.frobenius_norm();
  krylov::FtGmresOptions short_opts;
  short_opts.inner.max_iters = 8;
  short_opts.recovery = krylov::InnerRecovery::RetryReliable;
  short_opts.outer.tol = 1e-2;
  krylov::FtGmresOptions long_opts = short_opts;
  long_opts.outer.tol = 1e-12;

  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(batch);
    std::vector<la::Vector> bs(batch, la::Vector(A.rows()));
    for (std::size_t c = 0; c < batch; ++c) {
      for (std::size_t i = 0; i < A.rows(); ++i) {
        bs[c][i] = std::sin(0.31 * static_cast<double>((i + 1) * (c + 1))) + 1;
      }
    }
    const auto solve = [&](const krylov::FtGmresOptions& opts,
                           krylov::FtGmresWorkspace* ws) {
      RetryHooks h(batch, bound);
      auto results = krylov::ft_gmres_batch(op, bs, opts, h.hooks, ws);
      for (const sdc::HessenbergBoundDetector& d : h.detectors) {
        EXPECT_TRUE(d.triggered());
      }
      return results;
    };

    krylov::FtGmresWorkspace ws;
    const auto reused_short = solve(short_opts, &ws);
    const auto reused_long = solve(long_opts, &ws);
    const auto fresh_short = solve(short_opts, nullptr);
    const auto fresh_long = solve(long_opts, nullptr);

    EXPECT_EQ(fresh_short[0].outer_iterations, 3u);
    EXPECT_EQ(fresh_long[0].outer_iterations, 12u);
    EXPECT_EQ(fresh_short[0].reliable_retries, 1u);
    for (std::size_t i = 0; i < batch; ++i) {
      SCOPED_TRACE(i);
      expect_same_ft_result(reused_short[i], fresh_short[i]);
      expect_same_ft_result(reused_long[i], fresh_long[i]);
    }
  }
}

TEST(Workspace, SurvivesShapeChangesBetweenSolves) {
  // A workspace reused across different problem sizes must reshape and
  // still produce fresh-state results.
  krylov::KrylovWorkspace ws;
  krylov::GmresOptions opts;
  opts.tol = 1e-10;

  for (const std::size_t n : {6u, 12u, 9u}) {
    const auto A = gen::poisson2d(n);
    const krylov::CsrOperator op(A);
    const la::Vector b = la::ones(A.rows());
    const la::Vector x0 = la::zeros(A.rows());
    const auto fresh = krylov::gmres(op, b, x0, opts);
    const auto reused = krylov::gmres(op, b, x0, opts, nullptr, 0, &ws);
    EXPECT_EQ(reused.iterations, fresh.iterations);
    expect_same_vector(reused.x, fresh.x);
  }
}

TEST(Workspace, InPlaceSpanSolveMatchesVectorApi) {
  const auto A = gen::poisson2d(9);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.tol = 1e-10;

  const auto byvalue = krylov::gmres(op, b, la::zeros(A.rows()), opts);

  la::Vector x = la::zeros(A.rows());
  std::vector<double> history;
  krylov::KrylovWorkspace ws;
  const auto stats = krylov::gmres_in_place(
      op, b.span(), x.span(), opts, nullptr, 0, &ws, &history);

  EXPECT_EQ(stats.status, byvalue.status);
  EXPECT_EQ(stats.iterations, byvalue.iterations);
  EXPECT_EQ(stats.residual_norm, byvalue.residual_norm);
  expect_same_vector(x, byvalue.x);
  EXPECT_EQ(history, byvalue.residual_history);
}
