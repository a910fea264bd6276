#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "dense/givens.hpp"
#include "dense/hessenberg_qr.hpp"
#include "dense/triangular.hpp"
#include "la/blas2.hpp"

namespace dense = sdcgmres::dense;
namespace la = sdcgmres::la;

TEST(HessenbergQr, InitialResidualIsBeta) {
  dense::HessenbergQr qr(5, 3.5);
  EXPECT_EQ(qr.size(), 0u);
  EXPECT_DOUBLE_EQ(qr.residual_estimate(), 3.5);
}

TEST(HessenbergQr, ZeroCapacityThrows) {
  EXPECT_THROW(dense::HessenbergQr(0, 1.0), std::invalid_argument);
}

TEST(HessenbergQr, WrongColumnSizeThrows) {
  dense::HessenbergQr qr(3, 1.0);
  const std::vector<double> too_short{1.0};
  EXPECT_THROW((void)qr.add_column(too_short), std::invalid_argument);
}

TEST(HessenbergQr, CapacityExhaustionThrows) {
  dense::HessenbergQr qr(1, 1.0);
  (void)qr.add_column(std::vector<double>{1.0, 0.5});
  EXPECT_THROW((void)qr.add_column(std::vector<double>{1.0, 0.5, 0.1}),
               std::length_error);
}

TEST(HessenbergQr, SingleColumnResidual) {
  // H = [2; 1], rhs = beta*e1 with beta = 1.  The least-squares residual is
  // beta * |h21| / hypot(h11, h21) = 1/sqrt(5).
  dense::HessenbergQr qr(2, 1.0);
  const double res = qr.add_column(std::vector<double>{2.0, 1.0});
  EXPECT_NEAR(res, 1.0 / std::sqrt(5.0), 1e-15);
  EXPECT_EQ(qr.size(), 1u);
}

TEST(HessenbergQr, ResidualMonotonicallyNonIncreasing) {
  dense::HessenbergQr qr(4, 2.0);
  double prev = qr.residual_estimate();
  const std::vector<std::vector<double>> cols = {
      {1.0, 0.8},
      {0.3, 1.2, 0.6},
      {-0.2, 0.1, 0.9, 0.4},
      {0.5, -0.3, 0.2, 1.1, 0.25},
  };
  for (const auto& c : cols) {
    const double res = qr.add_column(c);
    EXPECT_LE(res, prev * (1.0 + 1e-14));
    prev = res;
  }
}

TEST(HessenbergQr, SolvesProjectedSystemExactly) {
  // Build H (3x2 Hessenberg), reduce, solve R y = g, and verify that y
  // minimizes ||H y - beta e1||: for a consistent system the residual is
  // the reported estimate.
  dense::HessenbergQr qr(2, 1.0);
  (void)qr.add_column(std::vector<double>{2.0, 0.5});
  const double res = qr.add_column(std::vector<double>{1.0, 1.5, 0.75});

  const la::DenseMatrix R = qr.r_block();
  const la::Vector z = qr.rhs_block();
  const la::Vector y = dense::back_substitute(R, z);

  // Reconstruct H explicitly and compute ||H y - e1||.
  la::DenseMatrix H(3, 2);
  H(0, 0) = 2.0; H(1, 0) = 0.5;
  H(0, 1) = 1.0; H(1, 1) = 1.5; H(2, 1) = 0.75;
  la::Vector r{1.0, 0.0, 0.0};
  la::gemv(-1.0, H, y, 1.0, r);
  const double true_res = std::sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
  EXPECT_NEAR(true_res, res, 1e-14);
}

TEST(HessenbergQr, RAccessorGuardsBounds) {
  dense::HessenbergQr qr(2, 1.0);
  (void)qr.add_column(std::vector<double>{1.0, 0.0});
  EXPECT_NO_THROW((void)qr.r(0, 0));
  EXPECT_THROW((void)qr.r(1, 0), std::out_of_range); // below diagonal
  EXPECT_THROW((void)qr.r(0, 1), std::out_of_range); // column not added
}

TEST(HessenbergQr, TriangularFactorIsUpperTriangular) {
  dense::HessenbergQr qr(3, 1.0);
  (void)qr.add_column(std::vector<double>{1.0, 0.7});
  (void)qr.add_column(std::vector<double>{0.2, 1.1, 0.4});
  (void)qr.add_column(std::vector<double>{0.3, -0.2, 0.9, 0.5});
  const la::DenseMatrix R = qr.r_block();
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(R(i, j), 0.0);
    }
  }
}

TEST(HessenbergQr, HappyBreakdownColumnGivesZeroResidualForConsistentSystem) {
  // With h21 = 0, the system H y = beta*e1 is square and consistent, so
  // the residual estimate collapses to ~0.
  dense::HessenbergQr qr(1, 2.0);
  const double res = qr.add_column(std::vector<double>{4.0, 0.0});
  EXPECT_NEAR(res, 0.0, 1e-15);
}

TEST(HessenbergQr, PopColumnRestoresResidualAndSize) {
  dense::HessenbergQr qr(3, 2.0);
  (void)qr.add_column(std::vector<double>{1.0, 0.7});
  const double res_before = qr.residual_estimate();
  const auto r_before = qr.r_block();
  (void)qr.add_column(std::vector<double>{0.2, 1.1, 0.4});
  qr.pop_column();
  EXPECT_EQ(qr.size(), 1u);
  EXPECT_NEAR(qr.residual_estimate(), res_before, 1e-15);
  EXPECT_EQ(qr.r_block()(0, 0), r_before(0, 0));
}

TEST(HessenbergQr, PopThenReAddMatchesDirectBuild) {
  // pop + re-add of a *different* column must give the same factorization
  // as building it directly.
  const std::vector<double> col0{1.0, 0.7};
  const std::vector<double> bad{1e-18, 1e-18, 1e-18};
  const std::vector<double> good{0.3, 0.9, 0.5};

  dense::HessenbergQr direct(2, 1.5);
  (void)direct.add_column(col0);
  const double expected = direct.add_column(good);

  dense::HessenbergQr popped(2, 1.5);
  (void)popped.add_column(col0);
  (void)popped.add_column(bad);
  popped.pop_column();
  const double actual = popped.add_column(good);

  EXPECT_NEAR(actual, expected, 1e-15);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = i; j < 2; ++j) {
      EXPECT_NEAR(popped.r(i, j), direct.r(i, j), 1e-15);
    }
  }
}

TEST(HessenbergQr, PopOnEmptyThrows) {
  dense::HessenbergQr qr(2, 1.0);
  EXPECT_THROW(qr.pop_column(), std::logic_error);
}

TEST(HessenbergQr, SurvivesHugeFaultyEntries) {
  // Class-1 faults scale an entry by 1e150; the QR update must stay finite.
  dense::HessenbergQr qr(2, 1.0);
  (void)qr.add_column(std::vector<double>{1e150, 0.5});
  const double res = qr.add_column(std::vector<double>{1.0, 1.0, 0.5});
  EXPECT_TRUE(std::isfinite(res));
  EXPECT_TRUE(std::isfinite(qr.r(0, 0)));
}

namespace {

/// The incremental Givens QR with R in a dense max_cols x max_cols
/// column-major array: the same arithmetic as HessenbergQr, stored the
/// way it was before R was packed.
struct DenseGivensQr {
  explicit DenseGivensQr(std::size_t max_cols)
      : ld(max_cols), r(max_cols * max_cols, 0.0) {}

  void add_column(std::vector<double> col) {
    const std::size_t k = rotations.size();
    for (std::size_t i = 0; i < k; ++i) rotations[i].apply(col[i], col[i + 1]);
    const dense::GivensRotation rot = dense::make_givens(col[k], col[k + 1]);
    rot.apply(col[k], col[k + 1]);
    rotations.push_back(rot);
    for (std::size_t i = 0; i <= k; ++i) r[i + k * ld] = col[i];
  }
  void pop_column() { rotations.pop_back(); }

  std::size_t ld;
  std::vector<double> r;
  std::vector<dense::GivensRotation> rotations;
};

} // namespace

TEST(HessenbergQr, PackedFactorMatchesDenseReferenceBitwise) {
  // Add six columns, pop two, re-add two different ones and a seventh:
  // every stored entry of R must equal the dense-storage reference bit
  // for bit, through r() and r_block() alike.
  const std::size_t max_cols = 8;
  const auto column = [](std::size_t k, double salt) {
    std::vector<double> c(k + 2);
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = std::sin(1.7 * static_cast<double>(i) + salt +
                      0.3 * static_cast<double>(k)) +
             (i == k + 1 ? 0.5 : 0.0);
    }
    return c;
  };
  dense::HessenbergQr qr(max_cols, 2.5);
  DenseGivensQr ref(max_cols);
  const auto add = [&](std::size_t k, double salt) {
    (void)qr.add_column(column(k, salt));
    ref.add_column(column(k, salt));
  };
  for (std::size_t k = 0; k < 6; ++k) add(k, 0.0);
  qr.pop_column();
  qr.pop_column();
  ref.pop_column();
  ref.pop_column();
  add(4, 1.0);
  add(5, 2.0);
  add(6, 3.0);

  const std::size_t k = qr.size();
  ASSERT_EQ(k, 7u);
  const la::DenseMatrix block = qr.r_block();
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i <= j; ++i) {
      EXPECT_EQ(qr.r(i, j), ref.r[i + j * ref.ld]) << i << "," << j;
      EXPECT_EQ(block(i, j), ref.r[i + j * ref.ld]) << i << "," << j;
    }
    for (std::size_t i = j + 1; i < k; ++i) EXPECT_EQ(block(i, j), 0.0);
  }
}
