#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/gmres.hpp"
#include "la/blas1.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

/// Flexible preconditioner that alternates between Jacobi-like scaling and
/// identity -- a legitimate "changing preconditioner" workload for FGMRES.
class AlternatingPreconditioner final : public krylov::FlexiblePreconditioner {
public:
  explicit AlternatingPreconditioner(const la::Vector& inv_diag)
      : inv_diag_(inv_diag) {}
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t outer_index,
             std::span<double> z) override {
    if (outer_index % 2 == 0) {
      la::hadamard(q, std::span<const double>(inv_diag_.span()), z);
    } else {
      la::copy(q, z);
    }
  }

private:
  la::Vector inv_diag_;
};

/// Guest that returns NaN-poisoned output on one chosen invocation.
class PoisonedPreconditioner final : public krylov::FlexiblePreconditioner {
public:
  explicit PoisonedPreconditioner(std::size_t poisoned_call)
      : poisoned_(poisoned_call) {}
  using krylov::FlexiblePreconditioner::apply;
  void apply(std::span<const double> q, std::size_t outer_index,
             std::span<double> z) override {
    la::copy(q, z);
    if (outer_index == poisoned_) {
      z[0] = std::numeric_limits<double>::quiet_NaN();
    }
  }

private:
  std::size_t poisoned_;
};

double explicit_residual(const sdcgmres::sparse::CsrMatrix& A,
                         const la::Vector& b, const la::Vector& x) {
  la::Vector r(A.rows());
  A.spmv(x, r);
  la::waxpby(1.0, b, -1.0, r, r);
  return la::nrm2(r);
}

/// Drive \p engine to completion after start()/resume(), recording each
/// boundary into \p record when given.
krylov::FgmresResult drive(krylov::FgmresEngine& engine,
                           const krylov::LinearOperator& A,
                           krylov::FlexiblePreconditioner& M,
                           krylov::FgmresTrajectory* record = nullptr) {
  while (true) {
    if (record != nullptr) EXPECT_TRUE(engine.snapshot(*record));
    const krylov::FgmresEngine::PrecondRequest req = engine.begin_iteration();
    M.apply(req.q, req.outer_index, req.z);
    A.apply(engine.direction(), engine.v_target());
    if (engine.advance()) break;
  }
  return engine.take_result();
}

/// Bitwise equality of every field a resumed solve reproduces.
void expect_same_result(const krylov::FgmresResult& got,
                        const krylov::FgmresResult& want, std::size_t k) {
  SCOPED_TRACE("resumed at boundary " + std::to_string(k));
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.outer_iterations, want.outer_iterations);
  EXPECT_EQ(got.residual_norm, want.residual_norm);
  EXPECT_EQ(got.residual_history, want.residual_history);
  EXPECT_EQ(got.global_syncs, want.global_syncs);
  EXPECT_EQ(got.rank_checks, want.rank_checks);
  EXPECT_EQ(got.min_sigma_ratio, want.min_sigma_ratio);
  EXPECT_EQ(got.sanitized_outputs, want.sanitized_outputs);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  }
}

} // namespace

TEST(Fgmres, ResumingAtEveryBoundaryReproducesTheStraightSolve) {
  const auto A = gen::poisson2d(10);
  const la::Vector b = la::ones(A.rows());
  const la::Vector x0 = la::zeros(A.rows());
  const krylov::CsrOperator op(A);
  la::Vector inv_diag = A.diagonal();
  for (std::size_t i = 0; i < inv_diag.size(); ++i) {
    inv_diag[i] = 1.0 / inv_diag[i];
  }
  for (const bool every_iteration : {true, false}) {
    SCOPED_TRACE(every_iteration ? "rank check every iteration"
                                 : "rank check at breakdown only");
    krylov::FgmresOptions opts;
    opts.max_outer = 80;
    opts.tol = 1e-10;
    opts.rank_check_every_iteration = every_iteration;
    AlternatingPreconditioner M(inv_diag);
    const krylov::FgmresResult straight = krylov::fgmres(op, b, x0, opts, M);
    ASSERT_EQ(straight.status, krylov::SolveStatus::Converged);

    // Recording observes only.
    krylov::KrylovWorkspace ws;
    krylov::FgmresTrajectory t;
    krylov::FgmresEngine recorder(op, b.span(), x0.span(), opts, ws);
    ASSERT_FALSE(recorder.start());
    expect_same_result(drive(recorder, op, M, &t), straight, 0);
    ASSERT_EQ(t.size(), straight.outer_iterations);

    // Every boundary, through one reused (dirty) workspace.
    for (std::size_t k = 0; k < t.size(); ++k) {
      krylov::FgmresEngine resumed(op, b.span(), x0.span(), opts, ws);
      resumed.resume(t, k);
      EXPECT_EQ(resumed.iteration(), k);
      expect_same_result(drive(resumed, op, M), straight, k);
    }
    krylov::FgmresEngine beyond(op, b.span(), x0.span(), opts, ws);
    EXPECT_THROW(beyond.resume(t, t.size()), std::invalid_argument);
  }
}

TEST(Fgmres, IdentityPreconditionerMatchesGmres) {
  const auto A = gen::poisson2d(8);
  const la::Vector b = la::ones(A.rows());
  const krylov::CsrOperator op(A);

  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  krylov::FgmresOptions opts;
  opts.max_outer = 200;
  opts.tol = 1e-10;
  const auto flex = krylov::fgmres(op, b, la::zeros(64), opts, M);

  krylov::GmresOptions gopts;
  gopts.max_iters = 200;
  gopts.tol = 1e-10;
  const auto plain = krylov::gmres(A, b, gopts);

  ASSERT_EQ(flex.status, krylov::SolveStatus::Converged);
  ASSERT_EQ(plain.status, krylov::SolveStatus::Converged);
  // With M = I, FGMRES *is* GMRES: same iteration counts.
  EXPECT_EQ(flex.outer_iterations, plain.iterations);
}

TEST(Fgmres, ConvergesWithChangingPreconditioner) {
  const auto A = gen::convection_diffusion2d(9, 10.0, 5.0);
  const la::Vector b = la::ones(A.rows());
  const krylov::CsrOperator op(A);
  la::Vector inv_diag = A.diagonal();
  for (std::size_t i = 0; i < inv_diag.size(); ++i) {
    inv_diag[i] = 1.0 / inv_diag[i];
  }
  AlternatingPreconditioner M(inv_diag);
  krylov::FgmresOptions opts;
  opts.max_outer = 150;
  opts.tol = 1e-10;
  const auto res = krylov::fgmres(op, b, la::zeros(81), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-8);
}

TEST(Fgmres, ExplicitResidualIsReportedAtExit) {
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(49);
  const krylov::CsrOperator op(A);
  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  krylov::FgmresOptions opts;
  opts.tol = 1e-9;
  const auto res = krylov::fgmres(op, b, la::zeros(49), opts, M);
  EXPECT_NEAR(res.residual_norm, explicit_residual(A, b, res.x),
              1e-12 * la::nrm2(b));
}

TEST(Fgmres, SanitizesNonFinitePreconditionerOutput) {
  const auto A = gen::poisson2d(7);
  const la::Vector b = la::ones(49);
  const krylov::CsrOperator op(A);
  PoisonedPreconditioner M(2); // third outer iteration returns NaN
  krylov::FgmresOptions opts;
  opts.max_outer = 120;
  opts.tol = 1e-9;
  const auto res = krylov::fgmres(op, b, la::zeros(49), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(res.sanitized_outputs, 1u);
  EXPECT_LE(explicit_residual(A, b, res.x), 1e-7);
}

TEST(Fgmres, SanitizationCanBeDisabled) {
  const auto A = gen::poisson2d(5);
  const la::Vector b = la::ones(25);
  const krylov::CsrOperator op(A);
  PoisonedPreconditioner M(0);
  krylov::FgmresOptions opts;
  opts.sanitize_preconditioner_output = false;
  opts.max_outer = 10;
  const auto res = krylov::fgmres(op, b, la::zeros(25), opts, M);
  // NaN floods the iteration; the solver must not claim convergence.
  EXPECT_NE(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(res.sanitized_outputs, 0u);
}

TEST(Fgmres, DegenerateGuestDirectionIsRetriedWithIdentity) {
  // A guest returning a ~zero (but nonzero, finite) vector creates a
  // numerically rank-deficient Hessenberg column.  The reliable phase
  // must discard it and retry with the identity preconditioner rather
  // than declaring rank deficiency (this is how FT-GMRES runs through a
  // fault whose truncated projected solve degenerates the inner update).
  class TinyGuest final : public krylov::FlexiblePreconditioner {
  public:
    using krylov::FlexiblePreconditioner::apply;
    void apply(std::span<const double> q, std::size_t outer_index,
               std::span<double> z) override {
      la::copy(q, z);
      if (outer_index == 1) la::scal(1e-150, z);
    }
  };
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  TinyGuest M;
  krylov::FgmresOptions opts;
  opts.max_outer = 120;
  opts.tol = 1e-8;
  const auto res = krylov::fgmres(op, la::ones(36), la::zeros(36), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_GE(res.sanitized_outputs, 1u);
}

TEST(Fgmres, DegenerateDirectionIsLoudFailureWhenSanitizationOff) {
  class TinyGuest final : public krylov::FlexiblePreconditioner {
  public:
    using krylov::FlexiblePreconditioner::apply;
    void apply(std::span<const double> q, std::size_t outer_index,
               std::span<double> z) override {
      la::copy(q, z);
      if (outer_index == 1) la::scal(1e-150, z);
    }
  };
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  TinyGuest M;
  krylov::FgmresOptions opts;
  opts.max_outer = 20;
  opts.tol = 1e-8;
  opts.sanitize_preconditioner_output = false;
  const auto res = krylov::fgmres(op, la::ones(36), la::zeros(36), opts, M);
  // Trichotomy: never a silent wrong answer -- the degenerate basis is
  // reported loudly.
  EXPECT_EQ(res.status, krylov::SolveStatus::RankDeficient);
}

TEST(Fgmres, ZeroInitialResidualReturnsImmediately) {
  const auto A = gen::poisson2d(5);
  const la::Vector x_true = la::ones(25);
  const la::Vector b = A.apply(x_true);
  const krylov::CsrOperator op(A);
  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  const auto res = krylov::fgmres(op, b, x_true, krylov::FgmresOptions{}, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::Converged);
  EXPECT_EQ(res.outer_iterations, 0u);
}

TEST(Fgmres, TracksRankChecks) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  krylov::FgmresOptions opts;
  opts.tol = 1e-8;
  opts.rank_check_every_iteration = true;
  const auto res = krylov::fgmres(op, la::ones(36), la::zeros(36), opts, M);
  EXPECT_EQ(res.rank_checks, res.outer_iterations);
  EXPECT_GT(res.min_sigma_ratio, 0.0);
  EXPECT_LE(res.min_sigma_ratio, 1.0);
}

TEST(Fgmres, MaxIterationsReportedWhenBudgetTooSmall) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  krylov::FgmresOptions opts;
  opts.max_outer = 3;
  opts.tol = 1e-12;
  const auto res = krylov::fgmres(op, la::ones(100), la::zeros(100), opts, M);
  EXPECT_EQ(res.status, krylov::SolveStatus::MaxIterations);
  EXPECT_EQ(res.outer_iterations, 3u);
  // Even without convergence the best iterate is returned.
  EXPECT_LT(res.residual_norm, la::nrm2(la::ones(100)));
}

TEST(Fgmres, InvalidArgumentsThrow) {
  const auto A = gen::poisson1d(4);
  const krylov::CsrOperator op(A);
  krylov::IdentityPreconditioner ident;
  krylov::FixedFlexibleAdapter M(ident);
  krylov::FgmresOptions opts;
  EXPECT_THROW(
      (void)krylov::fgmres(op, la::ones(5), la::zeros(4), opts, M),
      std::invalid_argument);
  opts.max_outer = 0;
  EXPECT_THROW(
      (void)krylov::fgmres(op, la::ones(4), la::zeros(4), opts, M),
      std::invalid_argument);
}

TEST(Fgmres, StatusNamesAreStable) {
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::Converged),
               "converged");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::HappyBreakdown),
               "happy-breakdown");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::Indefinite),
               "indefinite");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::RankDeficient),
               "rank-deficient");
  EXPECT_STREQ(krylov::to_string(krylov::SolveStatus::MaxIterations),
               "max-iterations");
}
