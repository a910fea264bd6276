#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/poisson.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/hooks.hpp"
#include "krylov/operator.hpp"
#include "sdc/detector.hpp"
#include "sdc/fault_model.hpp"
#include "sdc/injection.hpp"
#include "solver/solver.hpp"
#include "sparse/csr.hpp"

using namespace sdcgmres;

namespace {

/// Deterministic, mutually distinct right-hand sides.
std::vector<la::Vector> test_rhs(std::size_t n, std::size_t count) {
  std::vector<la::Vector> bs(count, la::Vector(n));
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      bs[c][i] = std::sin(0.31 * static_cast<double>(i + 1) *
                          static_cast<double>(c + 1)) +
                 1.0;
    }
  }
  return bs;
}

/// Every field of the two results must agree, the vectors bitwise.
void expect_same_result(const krylov::FtGmresResult& got,
                        const krylov::FtGmresResult& want,
                        const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.outer_iterations, want.outer_iterations);
  EXPECT_EQ(got.total_inner_iterations, want.total_inner_iterations);
  EXPECT_EQ(got.total_inner_applies, want.total_inner_applies);
  EXPECT_EQ(got.sanitized_outputs, want.sanitized_outputs);
  EXPECT_EQ(got.residual_norm, want.residual_norm); // bitwise
  EXPECT_EQ(got.reliable_retries, want.reliable_retries);
  EXPECT_EQ(got.outer_restarts, want.outer_restarts);
  EXPECT_EQ(got.global_syncs, want.global_syncs);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    ASSERT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
  }
  ASSERT_EQ(got.residual_history.size(), want.residual_history.size());
  for (std::size_t i = 0; i < got.residual_history.size(); ++i) {
    ASSERT_EQ(got.residual_history[i], want.residual_history[i])
        << "history[" << i << "]";
  }
  ASSERT_EQ(got.inner_solves.size(), want.inner_solves.size());
  for (std::size_t i = 0; i < got.inner_solves.size(); ++i) {
    EXPECT_EQ(got.inner_solves[i].outer_index,
              want.inner_solves[i].outer_index);
    EXPECT_EQ(got.inner_solves[i].status, want.inner_solves[i].status);
    EXPECT_EQ(got.inner_solves[i].iterations,
              want.inner_solves[i].iterations);
    EXPECT_EQ(got.inner_solves[i].operator_applies,
              want.inner_solves[i].operator_applies);
    EXPECT_EQ(got.inner_solves[i].residual_norm,
              want.inner_solves[i].residual_norm);
    EXPECT_EQ(got.inner_solves[i].reliable_retries,
              want.inner_solves[i].reliable_retries);
    EXPECT_EQ(got.inner_solves[i].triggered_outer_restart,
              want.inner_solves[i].triggered_outer_restart);
    EXPECT_EQ(got.inner_solves[i].global_syncs,
              want.inner_solves[i].global_syncs);
  }
}

/// Multiplies the first projection coefficient of aggregate Arnoldi
/// iteration `site` by 1e150 and asks for that inner solve to stop; every
/// other event passes untouched.  Counts the iterations it is shown.
class PerturbOnce final : public krylov::ArnoldiHook {
public:
  PerturbOnce(std::size_t site, std::size_t seen) : site_(site), seen_(seen) {}

  void on_solve_begin(std::size_t) override { abort_ = false; }
  void on_iteration_begin(const krylov::ArnoldiContext&) override { ++seen_; }
  void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t i,
                                 std::size_t, double& h) override {
    if (fired_ || i != 0 || seen_ != site_ + 1) return;
    h *= 1e150;
    fired_ = true;
    abort_ = true;
  }
  [[nodiscard]] bool abort_requested() const override { return abort_; }

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }

private:
  std::size_t site_;
  std::size_t seen_;
  bool fired_ = false;
  bool abort_ = false;
};

/// Counts the Arnoldi iterations it is shown.
class CountIterations final : public krylov::ArnoldiHook {
public:
  void on_iteration_begin(const krylov::ArnoldiContext&) override { ++seen_; }
  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }

private:
  std::size_t seen_ = 0;
};

krylov::FtGmresOptions small_opts() {
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 8;
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 60;
  return opts;
}

} // namespace

TEST(FtGmresBatch, LockstepSolvesAreBitwiseIdenticalToSolo) {
  const auto A = gen::poisson2d(12); // n = 144
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 4);

  const auto batch = krylov::ft_gmres_batch(op, bs, opts);
  ASSERT_EQ(batch.size(), bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    const auto solo = krylov::ft_gmres(op, bs[i], opts);
    expect_same_result(batch[i], solo, "instance vs solo");
    EXPECT_EQ(batch[i].status, krylov::SolveStatus::Converged);
  }
}

TEST(FtGmresBatch, BatchOfOneMatchesFgmresDrivingInnerGmres) {
  // ft_gmres() is a lockstep batch of one, so the "vs solo" checks in this
  // file compare batch-of-B against batch-of-1.  This reference does not
  // go through the lockstep driver at all: the plain fgmres() loop with
  // the inner solve as a FlexiblePreconditioner (InnerGmresT::apply).
  const auto A = gen::poisson2d(20);
  const krylov::CsrOperator op(A);
  krylov::FtGmresOptions opts;
  opts.inner.max_iters = 10;
  const la::Vector b = test_rhs(A.rows(), 1)[0];
  const double bound = A.frobenius_norm();

  struct Policy {
    krylov::InnerRecovery recovery;
    sdc::DetectorResponse response;
  };
  const Policy policies[] = {
      {krylov::InnerRecovery::None, sdc::DetectorResponse::AbortSolve},
      {krylov::InnerRecovery::RetryReliable,
       sdc::DetectorResponse::RetryReliable}};
  for (const Policy& policy : policies) {
    opts.recovery = policy.recovery;
    for (const std::size_t site : {0u, 3u, 17u, 40u}) {
      SCOPED_TRACE("site " + std::to_string(site) + " recovery " +
                   std::to_string(static_cast<int>(policy.recovery)));
      const auto plan = sdc::InjectionPlan::hessenberg(
          site, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150));

      sdc::FaultCampaign campaign(plan);
      sdc::HessenbergBoundDetector detector(bound, policy.response);
      krylov::HookChain chain({&campaign, &detector});
      const auto got = krylov::ft_gmres(op, b, opts, &chain);

      sdc::FaultCampaign ref_campaign(plan);
      sdc::HessenbergBoundDetector ref_detector(bound, policy.response);
      krylov::HookChain ref_chain({&ref_campaign, &ref_detector});
      krylov::InnerGmresPreconditioner inner(op, opts.inner, &ref_chain,
                                             opts.robust_first_inner,
                                             nullptr, opts.recovery);
      const auto want =
          krylov::fgmres(op, b, la::Vector(A.rows()), opts.outer, inner);

      EXPECT_TRUE(campaign.fired());
      EXPECT_TRUE(detector.triggered());
      EXPECT_EQ(ref_detector.triggered(), detector.triggered());
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.outer_iterations, want.outer_iterations);
      ASSERT_EQ(got.x.size(), want.x.size());
      for (std::size_t i = 0; i < got.x.size(); ++i) {
        ASSERT_EQ(got.x[i], want.x[i]) << "x[" << i << "]";
      }
      EXPECT_EQ(got.residual_history, want.residual_history); // bitwise
      const auto& records = inner.records();
      ASSERT_EQ(got.inner_solves.size(), records.size());
      for (std::size_t k = 0; k < records.size(); ++k) {
        const krylov::InnerSolveRecord& g = got.inner_solves[k];
        const krylov::InnerSolveRecord& w = records[k];
        EXPECT_EQ(g.outer_index, w.outer_index);
        EXPECT_EQ(g.status, w.status);
        EXPECT_EQ(g.iterations, w.iterations);
        EXPECT_EQ(g.operator_applies, w.operator_applies);
        EXPECT_EQ(g.residual_norm, w.residual_norm);
        EXPECT_EQ(g.reliable_retries, w.reliable_retries);
        EXPECT_EQ(g.global_syncs, w.global_syncs);
      }
    }
  }
}

TEST(FtGmresBatch, EarlyDropoutDoesNotPerturbSurvivors) {
  const auto A = gen::poisson2d(10); // n = 100
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();

  // Heterogeneous convergence: a zero rhs drops out before the first
  // iteration, a near-singular-direction rhs takes its own path, the
  // rest converge at different outer counts.  The survivors must be
  // bitwise equal to their solo runs regardless of who leaves when.
  auto bs = test_rhs(A.rows(), 5);
  for (std::size_t i = 0; i < A.rows(); ++i) bs[1][i] = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    bs[3][i] *= 1e-6; // same direction, tiny scale: different residuals
  }

  const auto batch = krylov::ft_gmres_batch(op, bs, opts);
  ASSERT_EQ(batch.size(), bs.size());
  // The zero-rhs instance converges instantly (its solo run does too).
  EXPECT_EQ(batch[1].outer_iterations, 0u);
  bool heterogeneous = false;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    const auto solo = krylov::ft_gmres(op, bs[i], opts);
    expect_same_result(batch[i], solo, "dropout instance vs solo");
    heterogeneous |= batch[i].outer_iterations != batch[0].outer_iterations;
  }
  EXPECT_TRUE(heterogeneous) << "test wants staggered dropout";
}

TEST(FtGmresBatch, PerInstanceHooksSeeTheSoloEventStream) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 3);
  const double bound = A.frobenius_norm();

  // One fault campaign + detector chain per instance, each planning a
  // different injection site -- exactly the sweep engine's block shape.
  const std::size_t sites[] = {0, 5, 11};
  std::vector<sdc::FaultCampaign> campaigns;
  campaigns.reserve(bs.size());
  std::vector<sdc::HessenbergBoundDetector> detectors;
  detectors.reserve(bs.size());
  std::vector<krylov::HookChain> chains(bs.size());
  std::vector<krylov::ArnoldiHook*> hooks(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    campaigns.emplace_back(sdc::InjectionPlan::hessenberg(
        sites[i], sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
    detectors.emplace_back(bound, sdc::DetectorResponse::AbortSolve);
    chains[i].add(&campaigns[i]);
    chains[i].add(&detectors[i]);
    hooks[i] = &chains[i];
  }

  const auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks);

  for (std::size_t i = 0; i < bs.size(); ++i) {
    sdc::FaultCampaign solo_campaign(sdc::InjectionPlan::hessenberg(
        sites[i], sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
    sdc::HessenbergBoundDetector solo_detector(
        bound, sdc::DetectorResponse::AbortSolve);
    krylov::HookChain solo_chain;
    solo_chain.add(&solo_campaign);
    solo_chain.add(&solo_detector);
    const auto solo = krylov::ft_gmres(op, bs[i], opts, &solo_chain);
    expect_same_result(batch[i], solo, "hooked instance vs solo");
    EXPECT_EQ(campaigns[i].fired(), solo_campaign.fired());
    EXPECT_EQ(detectors[i].triggered(), solo_detector.triggered());
    EXPECT_TRUE(campaigns[i].fired());
    EXPECT_TRUE(detectors[i].triggered()); // class-1 faults exceed ||A||_F
  }
}

TEST(FtGmresBatch, EmptyBatchAndHookMismatch) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  EXPECT_TRUE(
      krylov::ft_gmres_batch(op, std::vector<la::Vector>{}, opts).empty());

  const auto bs = test_rhs(A.rows(), 2);
  krylov::ArnoldiHook* one_hook[] = {nullptr};
  EXPECT_THROW(
      (void)krylov::ft_gmres_batch(op, bs, opts,
                                   std::span<krylov::ArnoldiHook* const>(
                                       one_hook, 1)),
      std::invalid_argument);
}

TEST(FtGmresBatch, DefaultApplyBlockFallbackKeepsGuestOperatorsWorking) {
  // ScaledOperator does not override apply_block, so the batch runs it
  // through the loop-over-columns fallback -- results must still be
  // bitwise equal to the solo solves (which use the same span core).
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator csr(A);
  const krylov::ScaledOperator op(csr, 2.0);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 3);

  const auto batch = krylov::ft_gmres_batch(op, bs, opts);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    const auto solo = krylov::ft_gmres(op, bs[i], opts);
    expect_same_result(batch[i], solo, "fallback operator vs solo");
  }
}

TEST(FtGmresBatch, ReusedWorkspaceStaysBitwiseIdentical) {
  const auto A = gen::poisson2d(9);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  krylov::FtGmresWorkspace ws;

  const auto bs4 = test_rhs(A.rows(), 4);
  const auto first = krylov::ft_gmres_batch(op, bs4, opts, {}, &ws);
  // Re-solving a smaller batch through the warm workspace (instances,
  // staging blocks) must not change a single bit.
  const auto bs2 = test_rhs(A.rows(), 2);
  const auto second = krylov::ft_gmres_batch(op, bs2, opts, {}, &ws);
  for (std::size_t i = 0; i < bs2.size(); ++i) {
    const auto solo = krylov::ft_gmres(op, bs2[i], opts);
    expect_same_result(second[i], solo, "warm workspace vs solo");
  }
  (void)first;
}

TEST(FtGmresBatch, BatchOfOneReservesNoStaging) {
  // A solo solve never packs columns, so it must not pay for the staging
  // blocks (2 x rows doubles per instance) that only multi-instance
  // blocks use; a warm workspace keeps them once a batch reserved them.
  const auto A = gen::poisson2d(9);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 2);
  krylov::FtGmresWorkspace ws;

  const auto solo = krylov::ft_gmres(op, bs[0], opts, nullptr, &ws);
  EXPECT_EQ(ws.instances.size(), 1u);
  EXPECT_EQ(ws.directions.capacity(), 0u);
  EXPECT_EQ(ws.products.capacity(), 0u);

  (void)krylov::ft_gmres_batch(op, bs, opts, {}, &ws);
  EXPECT_EQ(ws.instances.size(), 2u);
  EXPECT_EQ(ws.directions.capacity(), 2u);
  EXPECT_EQ(ws.products.capacity(), 2u);

  const auto warm = krylov::ft_gmres(op, bs[0], opts, nullptr, &ws);
  EXPECT_EQ(ws.directions.capacity(), 2u);
  expect_same_result(warm, solo, "warm batch workspace vs cold solo");
}

TEST(FtGmresSolverFacade, SolveBatchOfOneMatchesSolve) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  solver::Options options;
  options.inner_iters = 8;
  const auto bs = test_rhs(A.rows(), 1);

  solver::FtGmresSolver solo(op, options);
  solver::FtGmresSolver batched(op, options, "ft_gmres_batch");
  EXPECT_EQ(batched.name(), "ft_gmres_batch");
  la::Vector x_solo(A.rows());
  la::Vector x_batch(A.rows());
  const auto r_solo = solo.solve(bs[0].span(), x_solo.span());
  const std::span<const double> b_spans[] = {bs[0].span()};
  const std::span<double> x_spans[] = {x_batch.span()};
  const auto r_batch = batched.solve_batch(b_spans, x_spans).front();

  EXPECT_EQ(r_batch.status, r_solo.status);
  EXPECT_EQ(r_batch.iterations, r_solo.iterations);
  EXPECT_EQ(r_batch.residual_norm, r_solo.residual_norm);
  EXPECT_EQ(r_batch.residual_history, r_solo.residual_history);
  for (std::size_t i = 0; i < x_solo.size(); ++i) {
    ASSERT_EQ(x_batch[i], x_solo[i]) << "x[" << i << "]";
  }
}

TEST(FtGmresSolverFacade, SolveBatchValidatesShapes) {
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  solver::FtGmresSolver batched(op);
  la::Vector b(A.rows());
  la::Vector x_short(A.rows() - 1);
  const std::span<const double> bs[] = {b.span()};
  std::span<double> xs_short[] = {x_short.span()};
  EXPECT_THROW((void)batched.solve_batch(bs, xs_short),
               std::invalid_argument);
  EXPECT_THROW((void)batched.solve_batch(bs, {}), std::invalid_argument);
}

TEST(FtGmresSolverFacade, SingleSolveHookDoesNotLeakIntoSolveBatch) {
  // The set_hook() seam covers solve() only; solve_batch() refuses to
  // run with an installed single-solve hook but no per-instance hooks
  // (silently dropping a fault campaign would corrupt an experiment).
  const auto A = gen::poisson2d(6);
  const krylov::CsrOperator op(A);
  solver::FtGmresSolver batched(op);
  krylov::HookChain chain;
  batched.set_hook(&chain);
  la::Vector b = la::ones(A.rows());
  la::Vector x(A.rows());
  const std::span<const double> bs[] = {b.span()};
  std::span<double> xs[] = {x.span()};
  EXPECT_THROW((void)batched.solve_batch(bs, xs), std::invalid_argument);
  // Per-instance hooks (even the same chain) make it legal again.
  krylov::ArnoldiHook* hooks[] = {&chain};
  EXPECT_NO_THROW((void)batched.solve_batch(bs, xs, hooks));
  batched.set_hook(nullptr);
  EXPECT_NO_THROW((void)batched.solve_batch(bs, xs));
}

// ---------------------------------------------------------------------------
// Inner-lockstep coverage: with PR 5 the B inner GMRES solves of a batch
// advance in lockstep too (one fused product per inner Arnoldi iteration),
// so these tests pin the bitwise-identity contract across fault classes,
// injection positions, and detector-triggered inner aborts mid-block.
// ---------------------------------------------------------------------------

TEST(FtGmresBatch, FaultClassesAndPositionsStayBitwiseIdentical) {
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 3);
  const std::size_t sites[] = {0, 5, 11};

  const sdc::FaultModel models[] = {
      sdc::fault_classes::very_large(),      // class 1
      sdc::fault_classes::slightly_smaller(), // class 2
      sdc::fault_classes::nearly_zero(),      // class 3
  };
  const sdc::MgsPosition positions[] = {sdc::MgsPosition::First,
                                        sdc::MgsPosition::Last};
  for (const auto& model : models) {
    for (const auto position : positions) {
      SCOPED_TRACE(static_cast<int>(position));
      std::vector<sdc::FaultCampaign> campaigns;
      campaigns.reserve(bs.size());
      std::vector<krylov::ArnoldiHook*> hooks(bs.size());
      for (std::size_t i = 0; i < bs.size(); ++i) {
        campaigns.emplace_back(
            sdc::InjectionPlan::hessenberg(sites[i], position, model));
        hooks[i] = &campaigns[i];
      }
      const auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks);
      for (std::size_t i = 0; i < bs.size(); ++i) {
        sdc::FaultCampaign solo_campaign(
            sdc::InjectionPlan::hessenberg(sites[i], position, model));
        const auto solo = krylov::ft_gmres(op, bs[i], opts, &solo_campaign);
        expect_same_result(batch[i], solo, "fault class/position vs solo");
        EXPECT_EQ(campaigns[i].fired(), solo_campaign.fired());
      }
    }
  }
}

TEST(FtGmresBatch, PartialInnerAbortMidBlockKeepsEveryoneBitwise) {
  // Only SOME instances carry an abort-response detector: their inner
  // engines terminate mid-inner-block (dropping out of the fused inner
  // products) while the unhooked instances' inner solves run to their
  // full budget.  Every instance -- aborted and survivor alike -- must
  // still match its solo run bitwise.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const auto bs = test_rhs(A.rows(), 4);
  const double bound = A.frobenius_norm();
  const std::size_t abort_sites[] = {3, 9};

  std::vector<sdc::FaultCampaign> campaigns;
  campaigns.reserve(2);
  std::vector<sdc::HessenbergBoundDetector> detectors;
  detectors.reserve(2);
  std::vector<krylov::HookChain> chains(2);
  std::vector<krylov::ArnoldiHook*> hooks(bs.size(), nullptr);
  for (std::size_t k = 0; k < 2; ++k) {
    campaigns.emplace_back(sdc::InjectionPlan::hessenberg(
        abort_sites[k], sdc::MgsPosition::First,
        sdc::FaultModel::scale(1e150)));
    detectors.emplace_back(bound, sdc::DetectorResponse::AbortSolve);
    chains[k].add(&campaigns[k]);
    chains[k].add(&detectors[k]);
    hooks[1 + k] = &chains[k]; // instances 1 and 2 abort, 0 and 3 do not
  }

  const auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks);
  EXPECT_TRUE(detectors[0].triggered());
  EXPECT_TRUE(detectors[1].triggered());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    sdc::FaultCampaign solo_campaign(sdc::InjectionPlan::hessenberg(
        i == 1 || i == 2 ? abort_sites[i - 1] : 0, sdc::MgsPosition::First,
        sdc::FaultModel::scale(1e150)));
    sdc::HessenbergBoundDetector solo_detector(
        bound, sdc::DetectorResponse::AbortSolve);
    krylov::HookChain solo_chain;
    solo_chain.add(&solo_campaign);
    solo_chain.add(&solo_detector);
    krylov::ArnoldiHook* solo_hook =
        (i == 1 || i == 2) ? static_cast<krylov::ArnoldiHook*>(&solo_chain)
                           : nullptr;
    const auto solo = krylov::ft_gmres(op, bs[i], opts, solo_hook);
    expect_same_result(batch[i], solo, "partial abort vs solo");
  }
  // The aborted instances record at least one AbortedByDetector inner.
  const auto aborted = [](const krylov::FtGmresResult& r) {
    for (const auto& rec : r.inner_solves) {
      if (rec.status == krylov::SolveStatus::AbortedByDetector) return true;
    }
    return false;
  };
  EXPECT_TRUE(aborted(batch[1]));
  EXPECT_TRUE(aborted(batch[2]));
  EXPECT_FALSE(aborted(batch[0]));
  EXPECT_FALSE(aborted(batch[3]));
}

TEST(FtGmresBatch, InnerLockstepSharesMatrixStreams) {
  // The acceptance criterion of the inner-lockstep engine, measured with
  // the LinearOperator traffic counters: the batch consumes the SAME
  // operand columns as the solo runs (identical work, bitwise identical
  // results) while paying ~1/B of the matrix streams -- because every
  // inner Arnoldi iteration (and inner cycle start, and outer product)
  // is one fused apply_block across all live instances.
  const auto A = gen::poisson2d(12);
  const krylov::CsrOperator op(A);
  const auto opts = small_opts();
  const std::size_t B = 4;
  const auto bs = test_rhs(A.rows(), B);

  op.reset_stats();
  std::size_t total_outer = 0;
  std::vector<krylov::FtGmresResult> solos;
  for (std::size_t i = 0; i < B; ++i) {
    solos.push_back(krylov::ft_gmres(op, bs[i], opts));
    total_outer += solos.back().outer_iterations;
  }
  const krylov::OperatorStats serial = op.stats();
  EXPECT_EQ(serial.apply_block_calls, 0u);

  op.reset_stats();
  const auto batch = krylov::ft_gmres_batch(op, bs, opts);
  const krylov::OperatorStats batched = op.stats();

  for (std::size_t i = 0; i < B; ++i) {
    expect_same_result(batch[i], solos[i], "counter run vs solo");
  }
  // Same work: the per-instance operation sequences are identical, so the
  // operand-column totals agree exactly.
  EXPECT_EQ(batched.columns(), serial.columns());
  // ~1/B the streams: fused blocks for every lockstep product.  The slack
  // term covers the per-instance products that cannot fuse (FgmresEngine's
  // initial residual and explicit convergence verification, one-live-
  // instance tails after dropout).
  EXPECT_GT(batched.apply_block_calls, 0u);
  EXPECT_LE(batched.streams(), serial.streams() / B + 3 * B + total_outer);
  EXPECT_LT(2 * batched.streams(), serial.streams());
}

TEST(FtGmresBatch, RetryReliableMidBlockKeepsEveryoneBitwise) {
  // Recovery in lockstep: instances 1 and 2 carry a retry_reliable
  // detector and get their flagged inner solve recomputed reliably
  // (in-place engine replacement inside the running block), while 0 and 3
  // run untouched.  Every instance must still match its solo run bitwise.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  auto opts = small_opts();
  opts.recovery = krylov::InnerRecovery::RetryReliable;
  const auto bs = test_rhs(A.rows(), 4);
  const double bound = A.frobenius_norm();
  const std::size_t fault_sites[] = {3, 9};

  std::vector<sdc::FaultCampaign> campaigns;
  campaigns.reserve(2);
  std::vector<sdc::HessenbergBoundDetector> detectors;
  detectors.reserve(2);
  std::vector<krylov::HookChain> chains(2);
  std::vector<krylov::ArnoldiHook*> hooks(bs.size(), nullptr);
  for (std::size_t k = 0; k < 2; ++k) {
    campaigns.emplace_back(sdc::InjectionPlan::hessenberg(
        fault_sites[k], sdc::MgsPosition::First,
        sdc::FaultModel::scale(1e150)));
    detectors.emplace_back(bound, sdc::DetectorResponse::RetryReliable);
    chains[k].add(&campaigns[k]);
    chains[k].add(&detectors[k]);
    hooks[1 + k] = &chains[k];
  }

  const auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks);
  EXPECT_TRUE(detectors[0].triggered());
  EXPECT_TRUE(detectors[1].triggered());
  EXPECT_EQ(batch[1].reliable_retries, 1u);
  EXPECT_EQ(batch[2].reliable_retries, 1u);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    krylov::HookChain solo_chain;
    sdc::FaultCampaign solo_campaign(sdc::InjectionPlan::hessenberg(
        i == 1 || i == 2 ? fault_sites[i - 1] : 0, sdc::MgsPosition::First,
        sdc::FaultModel::scale(1e150)));
    sdc::HessenbergBoundDetector solo_detector(
        bound, sdc::DetectorResponse::RetryReliable);
    krylov::ArnoldiHook* solo_hook = nullptr;
    if (i == 1 || i == 2) {
      solo_chain.add(&solo_campaign);
      solo_chain.add(&solo_detector);
      solo_hook = &solo_chain;
    }
    const auto solo = krylov::ft_gmres(op, bs[i], opts, solo_hook);
    expect_same_result(batch[i], solo, "retry_reliable vs solo");
    EXPECT_EQ(batch[i].reliable_retries, solo.reliable_retries);
  }
}

TEST(FtGmresBatch, RestartOuterMidBlockKeepsEveryoneBitwise) {
  // restart_outer discards a poisoned outer basis mid-batch: the
  // restarting instance leaves the current lockstep round and rejoins
  // with a fresh cycle, without perturbing the other instances.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  auto opts = small_opts();
  opts.recovery = krylov::InnerRecovery::RestartOuter;
  const auto bs = test_rhs(A.rows(), 3);
  const double bound = A.frobenius_norm();

  sdc::FaultCampaign campaign(sdc::InjectionPlan::hessenberg(
      5, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
  sdc::HessenbergBoundDetector detector(bound,
                                        sdc::DetectorResponse::RestartOuter);
  krylov::HookChain chain({&campaign, &detector});
  std::vector<krylov::ArnoldiHook*> hooks(bs.size(), nullptr);
  hooks[1] = &chain;

  const auto batch = krylov::ft_gmres_batch(op, bs, opts, hooks);
  EXPECT_TRUE(detector.triggered());
  EXPECT_EQ(batch[1].outer_restarts, 1u);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    sdc::FaultCampaign solo_campaign(sdc::InjectionPlan::hessenberg(
        5, sdc::MgsPosition::First, sdc::FaultModel::scale(1e150)));
    sdc::HessenbergBoundDetector solo_detector(
        bound, sdc::DetectorResponse::RestartOuter);
    krylov::HookChain solo_chain({&solo_campaign, &solo_detector});
    const auto solo = krylov::ft_gmres(
        op, bs[i], opts, i == 1 ? &solo_chain : nullptr);
    expect_same_result(batch[i], solo, "restart_outer vs solo");
    EXPECT_EQ(batch[i].outer_restarts, solo.outer_restarts);
  }
}

TEST(FtGmresBatch, SettledInstanceRejoinsTheRecordingBitwise) {
  // Instance 1 resumes the recorded failure-free solve at boundary 1; its
  // hook corrupts one coefficient in outer iteration 2 and aborts, the
  // reliable retry recomputes that inner solve, and from boundary 3 on it
  // is back on the recording, so it stops there and takes the rest from
  // it.  Instance 2 is on the recording throughout, but its predicate
  // never holds, so it runs to its end.  0 and 3 solve other systems
  // without trajectories.  Every instance must equal its solve from zero.
  const auto A = gen::poisson2d(10);
  const krylov::CsrOperator op(A);
  auto opts = small_opts();
  opts.recovery = krylov::InnerRecovery::RetryReliable;
  auto bs = test_rhs(A.rows(), 4);
  bs[2] = bs[1];

  krylov::FtGmresTrajectory t;
  const auto recorded = krylov::ft_gmres_recorded(op, bs[1], opts, nullptr, t);
  ASSERT_GE(t.size(), 5u);
  expect_same_result(t.end, recorded, "trajectory end vs recorded result");
  const std::size_t site = t.hook_iterations[2] + 3;

  PerturbOnce perturb(site, t.hook_iterations[1]);
  CountIterations watcher;
  std::vector<krylov::ArnoldiHook*> hooks{nullptr, &perturb, &watcher,
                                          nullptr};
  std::vector<krylov::FtGmresStart> starts(4);
  starts[1] = {.trajectory = &t,
               .boundary = 1,
               .settled = [&](std::size_t) { return perturb.fired(); }};
  starts[2] = {.trajectory = &t,
               .boundary = 0,
               .settled = [](std::size_t) { return false; }};
  std::vector<std::span<const double>> spans;
  for (const la::Vector& b : bs) spans.push_back(b.span());
  const auto batch = krylov::ft_gmres_batch(op, spans, opts, hooks, nullptr,
                                            starts);

  PerturbOnce straight_hook(site, 0);
  const auto straight = krylov::ft_gmres(op, bs[1], opts, &straight_hook);
  ASSERT_TRUE(perturb.fired());
  EXPECT_EQ(straight.reliable_retries, 1u);
  expect_same_result(batch[1], straight, "rejoined vs straight through");
  // It stopped at boundary 3: the hook saw outer iterations 1 and 2 (the
  // aborted attempt only; the retry runs hook-free), not the rest.
  EXPECT_EQ(perturb.seen(), site + 1);
  EXPECT_GT(straight_hook.seen(), perturb.seen());

  // The never-settled instance ran every outer iteration with its hook.
  expect_same_result(batch[2], recorded, "unsettled vs recorded");
  EXPECT_EQ(watcher.seen(), recorded.total_inner_iterations);
  for (const std::size_t i : {0u, 3u}) {
    expect_same_result(batch[i], krylov::ft_gmres(op, bs[i], opts),
                       "neighbour vs solo");
  }
}
