/// \file krylov_mixed_precision_test.cpp
/// \brief The mixed-precision inner data plane of FT-GMRES: (double,
/// int32) bitwise identity with the default and (float, int32) with
/// (float, int64) on CSR and SELL, the float-inner convergence envelope
/// on the paper's Figure-3 scenario grid, spec-key validation,
/// non-matrix rejection, and the bytes-streamed accounting of the
/// mirrors.
///
/// Envelope contract (documented here, asserted below): a float32 inner
/// plane is just another bounded perturbation of the unreliable inner
/// solves, so the flexible outer absorbs it the way it absorbs injected
/// faults -- every failure-free float solve must converge with at most
/// FLOAT_OUTER_SLACK more outer iterations than the all-double solve of
/// the same scenario.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "experiment/scenario_spec.hpp"
#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/ft_gmres.hpp"
#include "krylov/ft_gmres_batch.hpp"
#include "krylov/mixed.hpp"
#include "krylov/operator.hpp"
#include "krylov/sell_operator.hpp"
#include "la/blas1.hpp"
#include "la/vector.hpp"
#include "sparse/sell.hpp"

namespace krylov = sdcgmres::krylov;
namespace experiment = sdcgmres::experiment;
namespace sparse = sdcgmres::sparse;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

/// Documented float-inner outer-iteration slack (see file comment).
constexpr std::size_t FLOAT_OUTER_SLACK = 2;

la::Vector ones(std::size_t n) {
  la::Vector b(n);
  b.fill(1.0);
  return b;
}

krylov::FtGmresOptions paper_options() {
  krylov::FtGmresOptions opts; // inner: 25 iterations, tol 0
  opts.outer.tol = 1e-8;
  opts.outer.max_outer = 200;
  return opts;
}

krylov::FtGmresOptions with_plane(krylov::FtGmresOptions opts,
                                  krylov::Precision precision,
                                  krylov::IndexWidth index_width) {
  opts.precision = precision;
  opts.index_width = index_width;
  return opts;
}

/// Every field of two FT-GMRES results, bitwise: iterate, residual
/// history, and each inner-solve record.
void expect_bitwise_equal(const krylov::FtGmresResult& got,
                          const krylov::FtGmresResult& ref,
                          const std::string& what) {
  EXPECT_EQ(got.status, ref.status) << what;
  EXPECT_EQ(got.outer_iterations, ref.outer_iterations) << what;
  EXPECT_EQ(got.total_inner_iterations, ref.total_inner_iterations) << what;
  EXPECT_EQ(got.total_inner_applies, ref.total_inner_applies) << what;
  EXPECT_EQ(got.global_syncs, ref.global_syncs) << what;
  EXPECT_EQ(got.residual_norm, ref.residual_norm) << what;
  EXPECT_EQ(got.residual_history, ref.residual_history) << what;
  ASSERT_EQ(got.x.size(), ref.x.size()) << what;
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_EQ(got.x[i], ref.x[i]) << what << " x[" << i << "]";
  }
  ASSERT_EQ(got.inner_solves.size(), ref.inner_solves.size()) << what;
  for (std::size_t k = 0; k < ref.inner_solves.size(); ++k) {
    const krylov::InnerSolveRecord& g = got.inner_solves[k];
    const krylov::InnerSolveRecord& r = ref.inner_solves[k];
    const std::string at = what + " inner solve " + std::to_string(k);
    EXPECT_EQ(g.outer_index, r.outer_index) << at;
    EXPECT_EQ(g.status, r.status) << at;
    EXPECT_EQ(g.iterations, r.iterations) << at;
    EXPECT_EQ(g.operator_applies, r.operator_applies) << at;
    EXPECT_EQ(g.residual_norm, r.residual_norm) << at;
    EXPECT_EQ(g.reliable_retries, r.reliable_retries) << at;
    EXPECT_EQ(g.triggered_outer_restart, r.triggered_outer_restart) << at;
    EXPECT_EQ(g.global_syncs, r.global_syncs) << at;
  }
}

/// Matrix passes and operand columns of a solve: the outer operator's
/// plus the inner mirror's, when one was built.
krylov::OperatorStats traffic(const krylov::LinearOperator& op,
                              const std::shared_ptr<krylov::MixedPlaneBase>&
                                  plane) {
  krylov::OperatorStats s = op.stats();
  if (plane != nullptr) s += plane->stats();
  return s;
}

std::vector<la::Vector> batch_rhs(std::size_t n) {
  std::vector<la::Vector> bs;
  for (std::size_t i = 0; i < 3; ++i) {
    la::Vector b(n);
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = 1.0 + 0.01 * static_cast<double>((i + j) % 7);
    }
    bs.push_back(std::move(b));
  }
  return bs;
}

} // namespace

TEST(MixedPrecisionFtGmres, DoubleInt32IsBitwiseIdenticalToDefault) {
  // Index narrowing never touches the arithmetic: iterate, residual
  // history, inner records, and the streams/columns the solve paid must
  // equal the default plane's -- on CSR and on SELL, whose results are
  // in turn bitwise equal to CSR's.
  const auto A = gen::convection_diffusion2d(20, 1.0, 0.5); // n = 400
  const sparse::SellMatrix S(A);
  const krylov::CsrOperator csr(A);
  const krylov::SellOperator sell(S);
  const la::Vector b = ones(A.rows());
  const auto opts = paper_options();
  const auto opts32 = with_plane(opts, krylov::Precision::Double,
                                 krylov::IndexWidth::I32);

  const auto ref = krylov::ft_gmres(A, b, opts);
  ASSERT_EQ(ref.status, krylov::SolveStatus::Converged);
  for (const krylov::LinearOperator* op :
       {static_cast<const krylov::LinearOperator*>(&csr),
        static_cast<const krylov::LinearOperator*>(&sell)}) {
    const std::string name = op == &csr ? "csr" : "sell";
    krylov::FtGmresWorkspace ws64, ws32;
    op->reset_stats();
    expect_bitwise_equal(krylov::ft_gmres(*op, b, opts, nullptr, &ws64), ref,
                         name + "/64");
    EXPECT_EQ(ws64.plane, nullptr) << name << ": (double, int64) is the "
                                   << "identity narrowing, no mirror";
    const krylov::OperatorStats t64 = traffic(*op, ws64.plane);
    op->reset_stats();
    expect_bitwise_equal(krylov::ft_gmres(*op, b, opts32, nullptr, &ws32),
                         ref, name + "/32");
    ASSERT_NE(ws32.plane, nullptr) << name;
    const krylov::OperatorStats t32 = traffic(*op, ws32.plane);
    EXPECT_EQ(t32.columns(), t64.columns()) << name;
    EXPECT_EQ(t32.streams(), t64.streams()) << name;
  }
}

TEST(MixedPrecisionFtGmres, BatchedDoubleInt32IsBitwiseIdenticalToDefault) {
  const auto A = gen::poisson2d(20); // n = 400
  const sparse::SellMatrix S(A);
  const krylov::CsrOperator csr(A);
  const krylov::SellOperator sell(S);
  const std::vector<la::Vector> bs = batch_rhs(A.rows());
  const auto opts = paper_options();
  const auto opts32 = with_plane(opts, krylov::Precision::Double,
                                 krylov::IndexWidth::I32);

  const auto ref = krylov::ft_gmres_batch(csr, bs, opts);
  for (const krylov::LinearOperator* op :
       {static_cast<const krylov::LinearOperator*>(&csr),
        static_cast<const krylov::LinearOperator*>(&sell)}) {
    const std::string name = op == &csr ? "csr" : "sell";
    krylov::FtGmresWorkspace ws64, ws32;
    op->reset_stats();
    const auto got64 = krylov::ft_gmres_batch(*op, bs, opts, {}, &ws64);
    EXPECT_EQ(ws64.plane, nullptr) << name;
    const krylov::OperatorStats t64 = traffic(*op, ws64.plane);
    op->reset_stats();
    const auto got32 = krylov::ft_gmres_batch(*op, bs, opts32, {}, &ws32);
    ASSERT_NE(ws32.plane, nullptr) << name;
    const krylov::OperatorStats t32 = traffic(*op, ws32.plane);
    ASSERT_EQ(got64.size(), ref.size());
    ASSERT_EQ(got32.size(), ref.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
      const std::string at = name + " rhs " + std::to_string(r);
      expect_bitwise_equal(got64[r], ref[r], at + " /64");
      expect_bitwise_equal(got32[r], ref[r], at + " /32");
    }
    EXPECT_EQ(t32.columns(), t64.columns()) << name;
    EXPECT_EQ(t32.streams(), t64.streams()) << name;
  }
}

TEST(MixedPrecisionFtGmres, FloatInt32IsBitwiseIdenticalToFloatInt64) {
  // At float precision the index width is still arithmetic-free: the
  // int32 and int64 float mirrors must agree bit for bit, solo and in
  // lockstep, on CSR and SELL.
  const auto A = gen::convection_diffusion2d(20, 1.0, 0.5); // n = 400
  const sparse::SellMatrix S(A);
  const krylov::CsrOperator csr(A);
  const krylov::SellOperator sell(S);
  const la::Vector b = ones(A.rows());
  const std::vector<la::Vector> bs = batch_rhs(A.rows());
  const auto f64 = with_plane(paper_options(), krylov::Precision::Float,
                              krylov::IndexWidth::I64);
  const auto f32 = with_plane(paper_options(), krylov::Precision::Float,
                              krylov::IndexWidth::I32);
  for (const krylov::LinearOperator* op :
       {static_cast<const krylov::LinearOperator*>(&csr),
        static_cast<const krylov::LinearOperator*>(&sell)}) {
    const std::string name = op == &csr ? "csr" : "sell";
    const auto ref = krylov::ft_gmres(*op, b, f64);
    EXPECT_EQ(ref.status, krylov::SolveStatus::Converged) << name;
    expect_bitwise_equal(krylov::ft_gmres(*op, b, f32), ref, name);

    const auto batch64 = krylov::ft_gmres_batch(*op, bs, f64);
    const auto batch32 = krylov::ft_gmres_batch(*op, bs, f32);
    ASSERT_EQ(batch32.size(), batch64.size());
    for (std::size_t r = 0; r < batch64.size(); ++r) {
      expect_bitwise_equal(batch32[r], batch64[r],
                           name + " batched rhs " + std::to_string(r));
    }
  }
}

TEST(MixedPrecisionFtGmres, FloatInnerConvergesWithinEnvelopeOnFig3Grid) {
  // The failure-free corner of the paper's Figure-3 scenario grid: the
  // Poisson model problem and a nonsymmetric convection-diffusion
  // variant, solo and batched, inner = 25 / tol = 0 / outer tol = 1e-8.
  struct Cell {
    const char* name;
    sparse::CsrMatrix A;
  };
  std::vector<Cell> grid;
  grid.push_back({"poisson-40", gen::poisson2d(40)});
  grid.push_back({"poisson-20", gen::poisson2d(20)});
  grid.push_back({"convdiff-20", gen::convection_diffusion2d(20, 1.0, 0.5)});

  for (const Cell& cell : grid) {
    const la::Vector b = ones(cell.A.rows());
    const auto opts = paper_options();
    const auto ref = krylov::ft_gmres(cell.A, b, opts);
    ASSERT_EQ(ref.status, krylov::SolveStatus::Converged) << cell.name;

    auto fopts = opts;
    fopts.precision = krylov::Precision::Float;
    fopts.index_width = krylov::IndexWidth::I32;
    const auto got = krylov::ft_gmres(cell.A, b, fopts);
    EXPECT_EQ(got.status, krylov::SolveStatus::Converged) << cell.name;
    EXPECT_LE(got.outer_iterations,
              ref.outer_iterations + FLOAT_OUTER_SLACK)
        << cell.name;
    // The outer residual check is the reliable (double) plane either
    // way, so the converged float run meets the same (relative)
    // tolerance as the all-double one.
    EXPECT_LE(got.residual_norm, opts.outer.tol * la::nrm2(b)) << cell.name;

    // Batched lockstep float: same envelope per instance.
    const krylov::CsrOperator op(cell.A);
    const std::vector<la::Vector> bs(4, b);
    const auto batch = krylov::ft_gmres_batch(op, bs, fopts);
    for (const auto& r : batch) {
      EXPECT_EQ(r.status, krylov::SolveStatus::Converged) << cell.name;
      EXPECT_LE(r.outer_iterations, ref.outer_iterations + FLOAT_OUTER_SLACK)
          << cell.name;
    }
  }
}

TEST(MixedPrecisionFtGmres, FloatInnerRequiresCsrBackedOperator) {
  const auto A = gen::poisson2d(8);
  const krylov::CsrOperator csr(A);
  const krylov::ScaledOperator scaled(csr, 1.0); // not CSR-backed
  const la::Vector b = ones(A.rows());
  auto opts = paper_options();
  opts.precision = krylov::Precision::Float;
  EXPECT_THROW((void)krylov::ft_gmres(scaled, b, opts),
               std::invalid_argument);
  opts.precision = krylov::Precision::Double;
  opts.index_width = krylov::IndexWidth::I32;
  EXPECT_THROW((void)krylov::ft_gmres(scaled, b, opts),
               std::invalid_argument);
  // The same non-CSR operator is fine on the default plane.
  opts.index_width = krylov::IndexWidth::I64;
  EXPECT_EQ(krylov::ft_gmres(scaled, b, opts).status,
            krylov::SolveStatus::Converged);
}

TEST(MixedPrecisionFtGmres, MirrorCountsNarrowedBytes) {
  const auto A = gen::poisson2d(10); // n = 100
  const sparse::CsrMatrixT<float, std::int32_t> M(A);
  const krylov::MixedCsrOperator<float, std::int32_t> op(M);
  std::vector<float> x(A.cols(), 1.0f), y(A.rows());
  op.apply(std::span<const float>(x), std::span<float>(y));
  const auto s = op.stats();
  EXPECT_EQ(s.apply_calls, 1u);
  EXPECT_EQ(s.scalar_bytes,
            sizeof(float) * (A.nnz() + A.rows() + A.cols()));
  EXPECT_EQ(s.index_bytes, sizeof(std::int32_t) * (A.nnz() + A.rows() + 1));
  // Same stream on the double/size_t CsrOperator costs exactly 2x in
  // both categories -- the traffic halving the bench demonstrates.
  const krylov::CsrOperator dop(A);
  la::Vector xd(A.cols()), yd(A.rows());
  xd.fill(1.0);
  dop.apply(std::span<const double>(xd.span()), yd.span());
  const auto sd = dop.stats();
  EXPECT_EQ(sd.scalar_bytes, 2 * s.scalar_bytes);
  EXPECT_EQ(sd.index_bytes, 2 * s.index_bytes);

  // SELL counts its padded value slots and every index array its kernels
  // walk (padded col_idx, chunk_ptr, slot lengths, permutation) at the
  // stored widths; the float/int32 mirror again costs exactly half.
  const sparse::SellMatrix S(A, 4, 1);
  const std::size_t slots = S.col_idx().size() + S.chunk_ptr().size() +
                            S.slot_lengths().size() + S.perm().size();
  const sparse::SellMatrixT<float, std::int32_t> MS(S);
  const krylov::MixedSellOperator<float, std::int32_t> sop(MS);
  sop.apply(std::span<const float>(x), std::span<float>(y));
  const auto ss = sop.stats();
  EXPECT_EQ(ss.scalar_bytes,
            sizeof(float) * (S.values().size() + A.rows() + A.cols()));
  EXPECT_EQ(ss.index_bytes, sizeof(std::int32_t) * slots);
  const krylov::SellOperator dsop(S);
  dsop.apply(std::span<const double>(xd.span()), yd.span());
  const auto sds = dsop.stats();
  EXPECT_EQ(sds.scalar_bytes,
            sizeof(double) * (S.values().size() + A.rows() + A.cols()));
  EXPECT_EQ(sds.index_bytes, sizeof(std::size_t) * slots);
  EXPECT_EQ(sds.scalar_bytes, 2 * ss.scalar_bytes);
  EXPECT_EQ(sds.index_bytes, 2 * ss.index_bytes);
}

TEST(MixedPrecisionScenario, SpecKeysValidate) {
  using experiment::ScenarioSpec;
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=6 precision=half"));
    FAIL() << "precision=half must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precision"), std::string::npos) << what;
    EXPECT_NE(what.find("double float"), std::string::npos) << what;
  }
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=6 index=16"));
    FAIL() << "index=16 must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index"), std::string::npos) << what;
    EXPECT_NE(what.find("32 64"), std::string::npos) << what;
  }
  // Mixed keys apply to the nested solvers only.
  try {
    (void)experiment::run_scenario(
        ScenarioSpec::parse("solver=gmres matrix=poisson n=6 precision=float"));
    FAIL() << "precision=float on plain gmres must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ft_gmres"), std::string::npos) << what;
  }
}

TEST(MixedPrecisionScenario, SpecDrivenPlanesMatchDefaultScenario) {
  using experiment::ScenarioSpec;
  const auto base = experiment::run_scenario(
      ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=20"));
  ASSERT_TRUE(base.report.converged());

  // index=32 through the registry: bitwise identical solve.
  const auto i32 = experiment::run_scenario(
      ScenarioSpec::parse("solver=ft_gmres matrix=poisson n=20 index=32"));
  EXPECT_EQ(i32.report.iterations, base.report.iterations);
  EXPECT_EQ(i32.report.residual_norm, base.report.residual_norm);

  // precision=float index=32 through the registry: converges within the
  // documented envelope; same for the batched solver.
  for (const char* spec :
       {"solver=ft_gmres matrix=poisson n=20 precision=float index=32",
        "solver=ft_gmres_batch matrix=poisson n=20 precision=float index=32"}) {
    const auto f = experiment::run_scenario(ScenarioSpec::parse(spec));
    EXPECT_TRUE(f.report.converged()) << spec;
    EXPECT_LE(f.report.iterations,
              base.report.iterations + FLOAT_OUTER_SLACK)
        << spec;
  }
}
