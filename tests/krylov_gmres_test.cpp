#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "gen/random_sparse.hpp"
#include "krylov/gmres.hpp"
#include "krylov/mixed.hpp"
#include "la/blas1.hpp"

namespace krylov = sdcgmres::krylov;
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

TEST(Gmres, SolvesPoissonToTolerance) {
  const auto A = gen::poisson2d(12);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 300;
  opts.tol = 1e-10;
  const auto res = krylov::gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-9 * la::nrm2(b));
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const auto A = gen::convection_diffusion2d(10, 20.0, -5.0);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 200;
  opts.tol = 1e-10;
  const auto res = krylov::gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-8);
}

TEST(Gmres, ResidualHistoryMonotonicallyNonIncreasing) {
  // The defining GMRES property (assuming correct arithmetic).
  const auto A = gen::convection_diffusion2d(8, 10.0, 10.0);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 64; // full Krylov space, no restart
  opts.tol = 1e-12;
  const auto res = krylov::gmres(A, b, opts);
  for (std::size_t k = 1; k < res.residual_history.size(); ++k) {
    EXPECT_LE(res.residual_history[k],
              res.residual_history[k - 1] * (1.0 + 1e-12));
  }
}

TEST(Gmres, ZeroRhsConvergesImmediately) {
  const auto A = gen::poisson2d(5);
  const auto res = krylov::gmres(A, la::zeros(25), krylov::GmresOptions{});
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(la::nrm2(res.x), 0.0);
}

TEST(Gmres, ExactInitialGuessConvergesWithoutIterating) {
  const auto A = gen::poisson2d(5);
  const la::Vector x_true = la::ones(25);
  const la::Vector b = A.apply(x_true);
  const krylov::CsrOperator op(A);
  krylov::GmresOptions opts;
  const auto res = krylov::gmres(op, b, x_true, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(Gmres, FixedIterationModeRunsExactBudget) {
  // tol = 0 reproduces the paper's inner solves: exactly max_iters
  // iterations, no convergence test.
  const auto A = gen::poisson2d(8);
  krylov::GmresOptions opts;
  opts.max_iters = 25;
  opts.tol = 0.0;
  const auto res = krylov::gmres(A, la::ones(64), opts);
  EXPECT_EQ(res.iterations, 25u);
  EXPECT_EQ(res.status, krylov::SolveStatus::MaxIterations);
}

TEST(Gmres, RestartedSolveConverges) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 600;
  opts.restart = 20;
  opts.tol = 1e-8;
  const auto res = krylov::gmres(A, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-6);
}

TEST(Gmres, RestartedNeverBeatsFullGmresInIterations) {
  const auto A = gen::convection_diffusion2d(9, 15.0, 0.0);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions full;
  full.max_iters = 200;
  full.tol = 1e-8;
  krylov::GmresOptions restarted = full;
  restarted.restart = 10;
  restarted.max_iters = 2000;
  const auto r_full = krylov::gmres(A, b, full);
  const auto r_rest = krylov::gmres(A, b, restarted);
  ASSERT_EQ(r_full.status, krylov::SolveStatus::Converged);
  ASSERT_EQ(r_rest.status, krylov::SolveStatus::Converged);
  EXPECT_GE(r_rest.iterations, r_full.iterations);
}

TEST(Gmres, HappyBreakdownReturnsExactSolution) {
  // Identity matrix: Krylov space is one-dimensional, breakdown at step 1
  // with the exact solution.
  sdcgmres::sparse::CooMatrix coo(6, 6);
  for (std::size_t i = 0; i < 6; ++i) coo.add(i, i, 1.0);
  const sdcgmres::sparse::CsrMatrix I{std::move(coo)};
  la::Vector b{1.0, -2.0, 3.0, 0.5, 0.0, 4.0};
  krylov::GmresOptions opts;
  opts.tol = 0.0; // even with no convergence test, breakdown must stop it
  opts.max_iters = 6;
  const auto res = krylov::gmres(I, b, opts);
  EXPECT_EQ(res.status, krylov::SolveStatus::HappyBreakdown);
  EXPECT_EQ(res.iterations, 1u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(res.x[i], b[i], 1e-14);
  }
}

TEST(Gmres, JacobiRightPreconditioningAcceleratesSkewedSystem) {
  // Badly scaled diagonal-dominant system: Jacobi fixes the scaling.
  auto opts_gen = gen::RandomSparseOptions{};
  opts_gen.rows = opts_gen.cols = 100;
  opts_gen.diagonal_shift = 50.0;
  opts_gen.seed = 9;
  auto A = gen::random_sparse(opts_gen);
  // Scale rows to spread the diagonal over 6 orders of magnitude.
  sdcgmres::sparse::CooMatrix scaled(100, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    const double s = std::pow(10.0, static_cast<double>(i % 7) - 3.0);
    const auto cols = A.row_cols(i);
    const auto vals = A.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      scaled.add(i, cols[k], vals[k] * s);
    }
  }
  const sdcgmres::sparse::CsrMatrix As{std::move(scaled)};
  const la::Vector b = la::ones(100);

  krylov::GmresOptions plain;
  plain.max_iters = 100;
  plain.tol = 1e-10;
  const auto res_plain = krylov::gmres(As, b, plain);

  const krylov::JacobiPreconditioner jacobi(As);
  krylov::GmresOptions pre = plain;
  pre.right_precond = &jacobi;
  const auto res_pre = krylov::gmres(As, b, pre);

  ASSERT_EQ(res_pre.status, krylov::SolveStatus::Converged);
  EXPECT_LT(res_pre.iterations, res_plain.iterations);
  EXPECT_LE(explicit_residual(As, b, res_pre.x), 1e-7);
}

TEST(Gmres, InvalidArgumentsThrow) {
  const auto A = gen::poisson1d(4);
  const krylov::CsrOperator op(A);
  krylov::GmresOptions opts;
  EXPECT_THROW((void)krylov::gmres(op, la::ones(5), la::zeros(4), opts),
               std::invalid_argument);
  EXPECT_THROW((void)krylov::gmres(op, la::ones(4), la::zeros(5), opts),
               std::invalid_argument);
  opts.max_iters = 0;
  EXPECT_THROW((void)krylov::gmres(op, la::ones(4), la::zeros(4), opts),
               std::invalid_argument);
}

TEST(Gmres, StatusNamesAreStable) {
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::Converged), "converged");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::MaxIterations),
               "max-iterations");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::HappyBreakdown),
               "happy-breakdown");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::AbortedByDetector),
               "aborted-by-detector");
}

TEST(Gmres, IterateIsOptimalInTheKrylovSubspace) {
  // GMRES minimizes the residual over x0 + K_k: no scaling of the GMRES
  // update direction can produce a smaller residual.
  const auto A = gen::convection_diffusion2d(6, 8.0, 3.0);
  const la::Vector b = la::ones(36);
  krylov::GmresOptions opts;
  opts.max_iters = 7;
  opts.tol = 0.0;
  const auto res = krylov::gmres(A, b, opts);
  // r(t) = || b - A (t * x) ||^2 is minimized at t = 1 within the span of
  // the computed update; check r(1) <= r(t) for perturbed scalings.
  const auto residual_at = [&](double t) {
    la::Vector x = res.x;
    la::scal(t, x);
    la::Vector r(36);
    A.spmv(x, r);
    la::waxpby(1.0, b, -1.0, r, r);
    return la::nrm2(r);
  };
  const double at_one = residual_at(1.0);
  EXPECT_LE(at_one, residual_at(0.9) * (1.0 + 1e-12));
  EXPECT_LE(at_one, residual_at(1.1) * (1.0 + 1e-12));
}

TEST(Gmres, RestartCycleResidualsAreMonotoneAcrossCycles) {
  // Each restart begins from the previous cycle's iterate, so the first
  // estimate of cycle c+1 equals the explicit residual at the end of
  // cycle c: the history must stay non-increasing across the boundary.
  const auto A = gen::poisson2d(9);
  krylov::GmresOptions opts;
  opts.max_iters = 120;
  opts.restart = 15;
  opts.tol = 1e-10;
  const auto res = krylov::gmres(A, la::ones(81), opts);
  for (std::size_t k = 1; k < res.residual_history.size(); ++k) {
    EXPECT_LE(res.residual_history[k],
              res.residual_history[k - 1] * (1.0 + 1e-10))
        << "at iteration " << k;
  }
}

TEST(Gmres, ResidualEstimateMatchesExplicitResidualWithoutFaults) {
  const auto A = gen::convection_diffusion2d(7, 12.0, -4.0);
  const la::Vector b = la::ones(49);
  krylov::GmresOptions opts;
  opts.max_iters = 30;
  opts.tol = 1e-9;
  const auto res = krylov::gmres(A, b, opts);
  ASSERT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_NEAR(res.residual_norm, explicit_residual(A, b, res.x),
              1e-10 * la::nrm2(b));
}

TEST(Gmres, SolutionMatchesDirectSubstitutionOnTinySystem) {
  // 2x2 system solved by hand: A = [4 1; 2 3], b = [1; 2] -> x = [0.1; 0.6].
  sdcgmres::sparse::CooMatrix coo(2, 2);
  coo.add(0, 0, 4.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 3.0);
  const sdcgmres::sparse::CsrMatrix A{std::move(coo)};
  krylov::GmresOptions opts;
  opts.tol = 1e-14;
  opts.max_iters = 2;
  const auto res = krylov::gmres(A, la::Vector{1.0, 2.0}, opts);
  EXPECT_NEAR(res.x[0], 0.1, 1e-12);
  EXPECT_NEAR(res.x[1], 0.6, 1e-12);
}

// ---------------------------------------------------------------------------
// GmresEngine: the step-driveable protocol behind gmres()/gmres_in_place()
// and the lockstep inner solves of ft_gmres_batch.
// ---------------------------------------------------------------------------

TEST(GmresEngine, ManualDriveIsBitwiseIdenticalToGmres) {
  // Driving the engine by hand through the documented protocol must
  // reproduce gmres() exactly -- including across restart cycles, where
  // the engine turns over into a fresh residual phase.
  const auto A = gen::convection_diffusion2d(9, 8.0, -3.0);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 60;
  opts.restart = 7; // several cycles
  opts.tol = 1e-10;

  const auto reference = krylov::gmres(op, b, la::Vector(A.cols()), opts);

  krylov::KrylovWorkspace ws;
  la::Vector x(A.cols());
  std::vector<double> history;
  krylov::GmresEngine engine(op, b.span(), x.span(), opts, nullptr, 0, ws,
                             &history);
  EXPECT_TRUE(engine.awaiting_residual());
  std::size_t residual_steps = 0;
  std::size_t arnoldi_steps = 0;
  while (!engine.finished()) {
    if (engine.awaiting_residual()) {
      ++residual_steps;
      op.apply(engine.residual_operand(), engine.residual_target());
      engine.start_cycle();
    } else {
      ++arnoldi_steps;
      engine.begin_iteration();
      op.apply(engine.direction(), engine.v_target());
      engine.advance();
    }
  }
  const krylov::GmresStats& stats = engine.stats();

  EXPECT_EQ(stats.status, reference.status);
  EXPECT_EQ(stats.iterations, reference.iterations);
  EXPECT_EQ(stats.residual_norm, reference.residual_norm); // bitwise
  ASSERT_EQ(history.size(), reference.residual_history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    ASSERT_EQ(history[i], reference.residual_history[i]) << "history " << i;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i], reference.x[i]) << "x[" << i << "]";
  }
  EXPECT_GT(residual_steps, 1u) << "test wants multiple restart cycles";
  EXPECT_EQ(stats.operator_applies, residual_steps + arnoldi_steps);
}

TEST(GmresEngine, OperatorApplyCountMatchesConsumedProducts) {
  // Every operator product the solve consumes is exactly one apply() in
  // the straight-through drive: the engine's operator_applies counter and
  // the operator's own traffic stats must agree.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const la::Vector b = la::ones(A.rows());
  krylov::GmresOptions opts;
  opts.max_iters = 12;
  opts.tol = 0.0; // fixed-iteration mode, the paper's inner-solve shape

  op.reset_stats();
  la::Vector x(A.cols());
  const auto stats = krylov::gmres_in_place(op, b.span(), x.span(), opts);
  EXPECT_EQ(stats.iterations, 12u);
  // One cycle-start residual + one product per Arnoldi iteration.
  EXPECT_EQ(stats.operator_applies, 13u);
  EXPECT_EQ(op.stats().apply_calls, stats.operator_applies);
  EXPECT_EQ(op.stats().apply_block_calls, 0u);
  EXPECT_EQ(op.stats().columns(), stats.operator_applies);
}

// --- Basis traffic (GmresStats::basis_bytes) --------------------------------

namespace {

/// Length-n words of one blocked projection pass over k columns: gemv_t
/// reads every column and v once per four-column group (each tail column
/// re-reads v); gemv reads every column and reads and writes v once.
std::size_t projection_words(std::size_t k) {
  return (k + k / 4 + k % 4) + (k + 2);
}

/// Length-n words of one orthogonalization against k columns, the entry
/// and exit norms of v included.
std::size_t ortho_words(krylov::Orthogonalization kind, std::size_t k) {
  switch (kind) {
    case krylov::Orthogonalization::MGS:
      // la::mgs: 2 words in sweep 0, 4 in sweeps 1..k-1, 3 in sweep k.
      return 2 + 4 * (k - 1) + 3;
    case krylov::Orthogonalization::CGS:
      return projection_words(k) + 2;
    case krylov::Orthogonalization::CGS2:
      return 2 * projection_words(k) + 2;
  }
  return 0;
}

/// Fixed-iteration solve (tol = 0) of A x = 1 on the plane of A.
template <typename S>
krylov::GmresStats fixed_solve(const krylov::OperatorT<S>& A,
                               const krylov::GmresOptions& opts) {
  const std::vector<S> b(A.rows(), S(1));
  std::vector<S> x(A.cols(), S(0));
  krylov::KrylovWorkspaceT<S> ws;
  krylov::GmresEngineT<S> engine(A.rows(), A.cols(), b, x, opts, nullptr, 0,
                                 ws, nullptr);
  krylov::drive_to_completion(A, engine);
  return engine.stats();
}

} // namespace

TEST(GmresStats, BasisBytesPinEachOrthoFormula) {
  // 12 iterations in cycles of 5, 5 and 2: each cycle appends its
  // normalized start vector (2 words), each iteration orthogonalizes
  // against j+1 columns and appends the normalized result (2 words).
  const auto A = gen::poisson2d(10);
  const std::size_t n = A.rows();
  const krylov::CsrOperator op(A);
  const sdcgmres::sparse::CsrMatrixT<float, std::int32_t> Af(A);
  const krylov::MixedCsrOperator<float, std::int32_t> op_f(Af);
  for (const auto kind :
       {krylov::Orthogonalization::MGS, krylov::Orthogonalization::CGS,
        krylov::Orthogonalization::CGS2}) {
    krylov::GmresOptions opts;
    opts.max_iters = 12;
    opts.restart = 5;
    opts.tol = 0.0;
    opts.ortho = kind;
    std::size_t words = 0;
    for (const std::size_t cycle : {5u, 5u, 2u}) {
      words += 2;
      for (std::size_t j = 0; j < cycle; ++j) {
        words += ortho_words(kind, j + 1) + 2;
      }
    }
    const krylov::GmresStats d = fixed_solve(op, opts);
    const krylov::GmresStats f = fixed_solve(op_f, opts);
    ASSERT_EQ(d.iterations, 12u) << krylov::to_string(kind);
    ASSERT_EQ(f.iterations, 12u) << krylov::to_string(kind);
    EXPECT_EQ(d.basis_bytes, words * n * sizeof(double))
        << krylov::to_string(kind);
    EXPECT_EQ(f.basis_bytes, words * n * sizeof(float))
        << krylov::to_string(kind);
  }
}

TEST(GmresStats, BasisBytesPinTheSStepBlockFormula) {
  // s = 4, restart 8, 12 iterations: blocks of 4 powers against 1 and 5
  // committed columns in the first cycle, one block of 4 against 1 in
  // the second.  Each block costs one projection pass per power plus
  // 4 words per power for its TSQR (two read-and-write sweeps).
  const auto A = gen::poisson2d(10);
  const std::size_t n = A.rows();
  const krylov::CsrOperator op(A);
  krylov::GmresOptions opts;
  opts.max_iters = 12;
  opts.restart = 8;
  opts.tol = 0.0;
  opts.s_step = 4;
  std::size_t words = 2 * 2; // two cycle-start appends
  for (const std::size_t k : {1u, 5u, 1u}) {
    words += 4 * projection_words(k) + 4 * 4;
  }
  const krylov::GmresStats stats = fixed_solve(op, opts);
  ASSERT_EQ(stats.iterations, 12u);
  EXPECT_EQ(stats.basis_bytes, words * n * sizeof(double));
}
