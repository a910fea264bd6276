// The structured-grid generators write CSR rows directly; each one must
// be byte for byte the matrix a CooMatrix assembly of the same stencil
// gives (triplets added row by row, sorted and compressed into CSR).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiment/scenario.hpp"
#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "sparse/coo.hpp"

namespace gen = sdcgmres::gen;
namespace sparse = sdcgmres::sparse;
namespace experiment = sdcgmres::experiment;

namespace {

constexpr std::size_t kSizes[] = {1, 2, 3, 7, 16};

sparse::CsrMatrix ref_poisson1d(std::size_t n) {
  sparse::CooMatrix coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) coo.add(i, i - 1, -1.0);
    coo.add(i, i, 2.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  return sparse::CsrMatrix(std::move(coo));
}

sparse::CsrMatrix ref_anisotropic2d(std::size_t n, double eps_x,
                                    double eps_y) {
  sparse::CooMatrix coo(n * n, n * n);
  const auto idx = [n](std::size_t i, std::size_t j) { return i * n + j; };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = idx(i, j);
      coo.add(row, row, 2.0 * (eps_x + eps_y));
      if (i > 0) coo.add(row, idx(i - 1, j), -eps_y);
      if (i + 1 < n) coo.add(row, idx(i + 1, j), -eps_y);
      if (j > 0) coo.add(row, idx(i, j - 1), -eps_x);
      if (j + 1 < n) coo.add(row, idx(i, j + 1), -eps_x);
    }
  }
  return sparse::CsrMatrix(std::move(coo));
}

sparse::CsrMatrix ref_poisson3d(std::size_t n) {
  sparse::CooMatrix coo(n * n * n, n * n * n);
  const auto idx = [n](std::size_t i, std::size_t j, std::size_t k) {
    return (i * n + j) * n + k;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t row = idx(i, j, k);
        coo.add(row, row, 6.0);
        if (i > 0) coo.add(row, idx(i - 1, j, k), -1.0);
        if (i + 1 < n) coo.add(row, idx(i + 1, j, k), -1.0);
        if (j > 0) coo.add(row, idx(i, j - 1, k), -1.0);
        if (j + 1 < n) coo.add(row, idx(i, j + 1, k), -1.0);
        if (k > 0) coo.add(row, idx(i, j, k - 1), -1.0);
        if (k + 1 < n) coo.add(row, idx(i, j, k + 1), -1.0);
      }
    }
  }
  return sparse::CsrMatrix(std::move(coo));
}

sparse::CsrMatrix ref_convection_diffusion2d(std::size_t n, double beta_x,
                                             double beta_y) {
  const double h = 1.0 / static_cast<double>(n + 1);
  sparse::CooMatrix coo(n * n, n * n);
  const auto idx = [n](std::size_t i, std::size_t j) { return i * n + j; };
  const double cx = beta_x * h;
  const double cy = beta_y * h;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = idx(i, j);
      const double diag = 4.0 + std::abs(cx) + std::abs(cy);
      const double west = -1.0 - std::max(cx, 0.0);
      const double east = -1.0 + std::min(cx, 0.0);
      const double south = -1.0 - std::max(cy, 0.0);
      const double north = -1.0 + std::min(cy, 0.0);
      coo.add(row, row, diag);
      if (j > 0) coo.add(row, idx(i, j - 1), west);
      if (j + 1 < n) coo.add(row, idx(i, j + 1), east);
      if (i > 0) coo.add(row, idx(i - 1, j), south);
      if (i + 1 < n) coo.add(row, idx(i + 1, j), north);
    }
  }
  return sparse::CsrMatrix(std::move(coo));
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expect_identical(const sparse::CsrMatrix& got,
                      const sparse::CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(same_bytes(got.row_ptr(), want.row_ptr())) << "row_ptr";
  EXPECT_TRUE(same_bytes(got.col_idx(), want.col_idx())) << "col_idx";
  EXPECT_TRUE(same_bytes(got.values(), want.values())) << "values";
}

/// The std::invalid_argument message of \p build, or "" if it did not
/// throw one.
template <typename Fn>
std::string invalid_argument_of(Fn&& build) {
  try {
    (void)build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The message the generators' size check gives for \p n on a d-D grid.
std::string refusal(const char* name, const char* n, int d) {
  return std::string(name) + ": n=" + n + " is out of range; n^" +
         std::to_string(d) + " rows must be 1 to 2147483647";
}

} // namespace

TEST(Stencil, Poisson1dMatchesCooAssembly) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    expect_identical(gen::poisson1d(n), ref_poisson1d(n));
  }
}

TEST(Stencil, Poisson2dMatchesCooAssembly) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    expect_identical(gen::poisson2d(n), ref_anisotropic2d(n, 1.0, 1.0));
  }
}

TEST(Stencil, Anisotropic2dMatchesCooAssembly) {
  const std::pair<double, double> eps[] = {
      {1.0, 1.0}, {1e-3, 1.0}, {2.5, 0.1}};
  for (const std::size_t n : kSizes) {
    for (const auto& [ex, ey] : eps) {
      SCOPED_TRACE(std::to_string(n) + " " + std::to_string(ex) + " " +
                   std::to_string(ey));
      expect_identical(gen::anisotropic2d(n, ex, ey),
                       ref_anisotropic2d(n, ex, ey));
    }
  }
}

TEST(Stencil, Poisson3dMatchesCooAssembly) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    expect_identical(gen::poisson3d(n), ref_poisson3d(n));
  }
}

TEST(Stencil, ConvectionDiffusion2dMatchesCooAssembly) {
  const std::pair<double, double> betas[] = {{0.0, 0.0}, {20.0, 5.0},
                                             {-7.0, 3.0}};
  for (const std::size_t n : kSizes) {
    for (const auto& [bx, by] : betas) {
      SCOPED_TRACE(std::to_string(n) + " " + std::to_string(bx) + " " +
                   std::to_string(by));
      expect_identical(gen::convection_diffusion2d(n, bx, by),
                       ref_convection_diffusion2d(n, bx, by));
    }
  }
}

TEST(Stencil, OversizedGridsFailNamingTheGeneratorAndN) {
  // 2^31 - 1 rows at most; n^d must not wrap around std::size_t either
  // (4294967296^2 is 0 modulo 2^64), and every refusal comes before any
  // allocation.
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson1d(2147483648); }),
            refusal("poisson1d", "2147483648", 1));
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson2d(46341); }),
            refusal("poisson2d", "46341", 2));
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson2d(4294967296); }),
            refusal("poisson2d", "4294967296", 2));
  EXPECT_EQ(invalid_argument_of(
                [] { return gen::anisotropic2d(4294967296, 1.0, 1.0); }),
            refusal("anisotropic2d", "4294967296", 2));
  EXPECT_EQ(invalid_argument_of(
                [] { return gen::convection_diffusion2d(46341, 1.0, 1.0); }),
            refusal("convection_diffusion2d", "46341", 2));
  // 1290^3 = 2,146,689,000 fits; 1291^3 = 2,151,685,171 does not.
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson3d(1291); }),
            refusal("poisson3d", "1291", 3));
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson3d(5284492); }),
            refusal("poisson3d", "5284492", 3));
  EXPECT_EQ(invalid_argument_of([] { return gen::poisson2d(0); }),
            refusal("poisson2d", "0", 2));
}

TEST(Stencil, OversizedGridThroughAScenarioNamesTheSpecKey) {
  for (const char* spec :
       {"matrix=poisson n=4294967296", "matrix=poisson3d n=1291",
        "matrix=convdiff n=46341", "matrix=aniso n=4294967296"}) {
    SCOPED_TRACE(spec);
    const std::string what =
        invalid_argument_of([&] { return experiment::run_scenario(spec); });
    // The key as the spec spells it: "n=<value>".
    const std::string key = std::strchr(spec, ' ') + 1;
    EXPECT_NE(what.find(key + " is out of range"), std::string::npos) << what;
  }
}
