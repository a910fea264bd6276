#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/gmres.hpp"
#include "krylov/hooks.hpp"
#include "krylov/matrix_powers.hpp"
#include "krylov/operator.hpp"
#include "krylov/precond.hpp"
#include "la/blas1.hpp"
#include "la/block.hpp"
#include "sdc/injection.hpp"
#include "solver/solver.hpp"

namespace krylov = sdcgmres::krylov;
namespace solver = sdcgmres::solver;
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

bool bitwise_equal(const la::Vector& a, const la::Vector& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

} // namespace

// ---------------------------------------------------------------------------
// The matrix-powers kernel (the engine's bitwise reference)
// ---------------------------------------------------------------------------

TEST(MatrixPowers, MatchesChainedSpmvBitwise) {
  const auto A = gen::convection_diffusion2d(8, 12.0, -3.0);
  const krylov::CsrOperator op(A);
  const la::Vector v = la::ones(A.rows());

  la::BlockWorkspace block;
  block.reserve(A.rows(), 4);
  krylov::matrix_powers(op, v.span(), block.view(4));

  la::Vector expect = v;
  la::Vector next(A.rows());
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < A.rows(); ++i) {
      EXPECT_EQ(block.view(4).col(k)[i], expect[i])
          << "power " << k << " element " << i;
    }
    A.spmv(expect, next);
    expect = next;
  }
}

TEST(MatrixPowers, AppliesNewtonShifts) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  const la::Vector v = la::ones(A.rows());
  const double shifts[] = {0.5, 2.0};

  la::BlockWorkspace block;
  block.reserve(A.rows(), 3);
  krylov::matrix_powers(op, v.span(), block.view(3), shifts);

  // p1 = (A - 0.5 I) v, p2 = (A - 2 I) p1, computed independently.
  la::Vector p1(A.rows()), p2(A.rows());
  A.spmv(v, p1);
  la::axpy(-0.5, std::span<const double>(v.span()), p1.span());
  A.spmv(p1, p2);
  la::axpy(-2.0, std::span<const double>(p1.span()), p2.span());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    EXPECT_EQ(block.view(3).col(1)[i], p1[i]);
    EXPECT_EQ(block.view(3).col(2)[i], p2[i]);
  }
}

TEST(MatrixPowers, ValidatesShapes) {
  const auto A = gen::poisson2d(4);
  const krylov::CsrOperator op(A);
  const la::Vector v = la::ones(A.rows());
  la::BlockWorkspace block;
  block.reserve(A.rows(), 3);
  const la::Vector wrong = la::ones(A.rows() + 1);
  EXPECT_THROW(krylov::matrix_powers(op, wrong.span(), block.view(3)),
               std::invalid_argument);
  const double one_shift[] = {1.0};
  EXPECT_THROW(
      krylov::matrix_powers(op, v.span(), block.view(3), one_shift),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// s-step GMRES: correctness and the staged-powers protocol
// ---------------------------------------------------------------------------

TEST(SStepGmres, ConvergesOnPoissonAtSeveralBlockSizes) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  for (const std::size_t s : {2u, 3u, 4u}) {
    krylov::GmresOptions opts;
    opts.max_iters = 300;
    opts.tol = 1e-10;
    opts.s_step = s;
    const auto res = krylov::gmres(A, b, opts);
    EXPECT_EQ(res.status, krylov::SolveStatus::Converged) << "s=" << s;
    EXPECT_LE(explicit_residual(A, b, res.x), 1e-9 * la::nrm2(b))
        << "s=" << s;
  }
}

TEST(SStepGmres, ConvergesOnNonsymmetricWithRestart) {
  const auto A = gen::convection_diffusion2d(10, 20.0, -5.0);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 300;
  opts.restart = 30;
  opts.tol = 1e-10;
  opts.s_step = 4;
  const auto res = krylov::gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-8);
}

TEST(SStepGmres, HugeUnrestartedBudgetCostsOnlyTheColumnsUsed) {
  // Unrestarted, the cycle is the whole budget: the staged Hessenberg
  // columns once took (budget+1) x budget doubles up front, 80 GB here.
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 300;
  opts.tol = 1e-10;
  opts.s_step = 4;
  const auto small = krylov::gmres(A, b, opts);
  opts.max_iters = 100000;
  const auto huge = krylov::gmres(A, b, opts);
  EXPECT_EQ(huge.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(huge.iterations, small.iterations);
  EXPECT_EQ(huge.global_syncs, small.global_syncs);
  EXPECT_EQ(huge.residual_history, small.residual_history);
  EXPECT_TRUE(bitwise_equal(huge.x, small.x));
}

TEST(SStepGmres, SEqualsOneIsBitwiseIdenticalToTheClassicalPath) {
  const auto A = gen::convection_diffusion2d(9, 15.0, 5.0);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions classical;
  classical.max_iters = 120;
  classical.tol = 1e-10;
  krylov::GmresOptions sstep = classical;
  sstep.s_step = 1;
  const auto base = krylov::gmres(A, b, classical);
  const auto one = krylov::gmres(A, b, sstep);
  EXPECT_EQ(base.status, one.status);
  EXPECT_EQ(base.iterations, one.iterations);
  EXPECT_EQ(base.global_syncs, one.global_syncs);
  EXPECT_TRUE(bitwise_equal(base.x, one.x));
}

TEST(SStepGmres, StagedPowersMatchTheKernelBitwise) {
  // The engine's first staged block and the standalone matrix_powers
  // kernel must produce the same doubles: same seed (q0 = b/||b||),
  // same chain of width-1 products.
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  constexpr std::size_t kS = 4;

  struct PowerCapture final : krylov::ArnoldiHook {
    std::vector<la::Vector> powers;
    std::size_t block_size = 0;
    void on_power_computed(const krylov::ArnoldiContext& ctx,
                           std::size_t power_index, std::size_t block,
                           std::span<double> power) override {
      (void)ctx;
      if (power_index == powers.size() && powers.size() < kS) {
        block_size = block;
        powers.emplace_back(power.size());
        std::copy(power.begin(), power.end(), powers.back().data());
      }
    }
  } capture;

  krylov::GmresOptions opts;
  opts.max_iters = 60;
  opts.tol = 1e-10;
  opts.s_step = kS;
  la::Vector x(A.rows());
  (void)krylov::gmres_in_place(op, b.span(), x.span(), opts, &capture);
  ASSERT_EQ(capture.powers.size(), kS);
  EXPECT_EQ(capture.block_size, kS);

  la::Vector q0 = b;
  la::scal(1.0 / la::nrm2(b), q0.span());
  la::BlockWorkspace block;
  block.reserve(A.rows(), kS + 1);
  krylov::matrix_powers(op, q0.span(), block.view(kS + 1));
  for (std::size_t t = 0; t < kS; ++t) {
    const std::span<double> expect = block.view(kS + 1).col(t + 1);
    for (std::size_t i = 0; i < A.rows(); ++i) {
      EXPECT_EQ(capture.powers[t][i], expect[i])
          << "power " << t << " element " << i;
    }
  }
}

TEST(SStepGmres, ValidatesBlockSizeUpFront) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 50;
  opts.restart = 8;
  opts.s_step = 0;
  EXPECT_THROW((void)krylov::gmres(A, b, opts), std::invalid_argument);
  opts.s_step = 9; // > restart cycle length
  try {
    (void)krylov::gmres(A, b, opts);
    FAIL() << "s_step > restart must throw";
  } catch (const std::invalid_argument& e) {
    // The error lists the valid range so a sweep over s= fails usefully.
    EXPECT_NE(std::string(e.what()).find("1..8"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Synchronization accounting
// ---------------------------------------------------------------------------

TEST(SStepGmres, CountsTwoSyncsPerBlockPlusStartup) {
  // A 25-iteration fixed-effort MGS solve (the paper's inner protocol):
  //   s=1: 2 startup + per iteration (w_norm + MGS passes + hnext) = 377
  //   s=2: 2 + ceil(25/2) blocks x 2                              = 28
  //   s=4: 2 + ceil(25/4) blocks x 2                              = 16
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 25;
  opts.tol = 0.0; // fixed effort: run out the budget
  const auto count = [&](std::size_t s) {
    krylov::GmresOptions o = opts;
    o.s_step = s;
    return krylov::gmres(A, b, o).global_syncs;
  };
  EXPECT_EQ(count(1), 377u);
  EXPECT_EQ(count(2), 28u);
  EXPECT_EQ(count(4), 16u);
}

TEST(SStepFtGmres, InnerSyncsDropAtLeastTwofoldWithinTwoExtraOuters) {
  // The tentpole acceptance: on the Figure-3 grid, global reductions per
  // converged solve drop >= 2x at s in {2, 4} while the outer iteration
  // count grows by at most 2.
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions base;
  base.outer.tol = 1e-8;

  const auto run = [&](std::size_t s) {
    krylov::FtGmresOptions o = base;
    o.inner.s_step = s;
    return krylov::ft_gmres(A, b, o);
  };
  const auto classical = run(1);
  ASSERT_EQ(classical.status, krylov::SolveStatus::Converged);
  ASSERT_GT(classical.global_syncs, 0u);

  for (const std::size_t s : {2u, 4u}) {
    const auto sstep = run(s);
    EXPECT_EQ(sstep.status, krylov::SolveStatus::Converged) << "s=" << s;
    EXPECT_LE(sstep.outer_iterations, classical.outer_iterations + 2)
        << "s=" << s;
    EXPECT_LE(sstep.global_syncs * 2, classical.global_syncs) << "s=" << s;
    EXPECT_LE(explicit_residual(A, b, sstep.x), 1e-8 * la::nrm2(b) * 1.01)
        << "s=" << s;
  }
}

TEST(SStepFtGmres, RecordsPerInnerSolveSyncs) {
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(A.rows());
  krylov::FtGmresOptions opts;
  opts.outer.tol = 1e-8;
  opts.inner.max_iters = 10;
  opts.inner.s_step = 2;
  const auto res = krylov::ft_gmres(A, b, opts);
  ASSERT_FALSE(res.inner_solves.empty());
  std::size_t inner_total = 0;
  for (const auto& rec : res.inner_solves) {
    // 2 startup + ceil(10/2) blocks x 2 = 12 for a full-budget solve.
    EXPECT_EQ(rec.global_syncs, 12u);
    inner_total += rec.global_syncs;
  }
  // The nested total is the outer's own reductions plus every inner's.
  EXPECT_GT(res.global_syncs, inner_total);
}

// ---------------------------------------------------------------------------
// The façade: s= threading and family rejection
// ---------------------------------------------------------------------------

TEST(SStepFacade, GmresReportsSyncsAndHonorsS) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options classical;
  classical.max_iters = 120;
  classical.tol = 1e-9;
  solver::Options sstep = classical;
  sstep.s_step = 4;

  solver::GmresSolver plain(op, classical);
  solver::GmresSolver blocked(op, sstep);
  solver::SolveReport r1, r4;
  const la::Vector x1 = plain.solve(b, &r1);
  const la::Vector x4 = blocked.solve(b, &r4);
  EXPECT_TRUE(r1.converged());
  EXPECT_TRUE(r4.converged());
  EXPECT_GT(r1.global_syncs, 0u);
  EXPECT_LE(r4.global_syncs * 2, r1.global_syncs);
}

TEST(SStepFacade, SEqualsOneFacadeSolveIsBitwiseIdentical) {
  // s=1 through every solver family that accepts the key must match the
  // default-options path bitwise (the façade identity contract).
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  solver::Options dflt;
  dflt.tol = 1e-9;
  solver::Options explicit_one = dflt;
  explicit_one.s_step = 1;

  {
    solver::GmresSolver a(op, dflt), c(op, explicit_one);
    solver::SolveReport ra, rc;
    EXPECT_TRUE(bitwise_equal(a.solve(b, &ra), c.solve(b, &rc)));
    EXPECT_EQ(ra.global_syncs, rc.global_syncs);
  }
  {
    solver::FtGmresSolver a(op, dflt), c(op, explicit_one);
    solver::SolveReport ra, rc;
    EXPECT_TRUE(bitwise_equal(a.solve(b, &ra), c.solve(b, &rc)));
    EXPECT_EQ(ra.global_syncs, rc.global_syncs);
  }
  {
    // The lockstep entry point of the same facade.
    solver::FtGmresSolver a(op, dflt), c(op, explicit_one);
    la::Vector xa(A.rows()), xc(A.rows());
    const std::span<const double> bs[] = {b.span()};
    const std::span<double> xas[] = {xa.span()};
    const std::span<double> xcs[] = {xc.span()};
    const auto ra = a.solve_batch(bs, xas);
    const auto rc = c.solve_batch(bs, xcs);
    EXPECT_TRUE(bitwise_equal(xa, xc));
    EXPECT_EQ(ra[0].global_syncs, rc[0].global_syncs);
  }
}

TEST(SStepFacade, BatchedSolveMatchesSoloAtSGreaterThanOne) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  solver::Options opts;
  opts.tol = 1e-8;
  opts.inner_iters = 10;
  opts.s_step = 4;

  solver::FtGmresSolver solo(op, opts);
  solver::FtGmresSolver batched(op, opts);
  solver::SolveReport rs;
  const la::Vector xs = solo.solve(b, &rs);
  // Two lockstep instances of the same rhs: each must match the solo run.
  la::Vector xb0(A.rows()), xb1(A.rows());
  const std::span<const double> bs[] = {b.span(), b.span()};
  const std::span<double> xbs[] = {xb0.span(), xb1.span()};
  const auto rb = batched.solve_batch(bs, xbs);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(bitwise_equal(xs, i == 0 ? xb0 : xb1));
    EXPECT_EQ(rs.global_syncs, rb[i].global_syncs);
    EXPECT_EQ(rs.iterations, rb[i].iterations);
  }
}

TEST(SStepFacade, UnsupportedFamiliesRejectSGreaterThanOne) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  solver::Options opts;
  opts.s_step = 2;
  EXPECT_THROW(solver::FgmresSolver s(op, opts), std::invalid_argument);
  EXPECT_THROW(solver::CgSolver s(op, opts), std::invalid_argument);
  EXPECT_THROW(solver::FcgSolver s(op, opts), std::invalid_argument);
  EXPECT_THROW(solver::FtCgSolver s(op, opts), std::invalid_argument);
}

TEST(SStepFacade, RightPreconditionerIsIncompatibleWithSStep) {
  const auto A = gen::poisson2d(6);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.s_step = 2;
  krylov::JacobiPreconditioner jacobi(A);
  opts.right_precond = &jacobi;
  EXPECT_THROW((void)krylov::gmres(A, b, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault injection into staged powers
// ---------------------------------------------------------------------------

TEST(SStepInjection, PowerElementFaultFiresAndPerturbsTheSolve) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());

  krylov::GmresOptions opts;
  opts.max_iters = 80;
  opts.tol = 1e-10;
  opts.s_step = 4;

  sdc::InjectionPlan plan;
  plan.target = sdc::InjectionTarget::PowerElement;
  plan.aggregate_iteration = 2; // a mid-block staging step
  plan.element_index = 5;
  plan.model = sdc::FaultModel::scale(1e8);
  sdc::FaultCampaign campaign(plan);

  la::Vector x(A.rows());
  (void)krylov::gmres_in_place(op, b.span(), x.span(), opts, &campaign);
  EXPECT_TRUE(campaign.fired());
  ASSERT_FALSE(campaign.log().events().empty());
  EXPECT_NE(campaign.log().events().front().description.find("power"),
            std::string::npos);

  // The corrupted block taints the basis, so the faulty iterate must
  // differ from the clean one -- the fault was not silently dropped.
  const auto clean = krylov::gmres(A, b, opts);
  EXPECT_FALSE(bitwise_equal(x, clean.x));
}
