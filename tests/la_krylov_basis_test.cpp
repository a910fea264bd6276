#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/blas1.hpp"
#include "la/krylov_basis.hpp"

namespace la = sdcgmres::la;

TEST(KrylovBasis, StartsEmptyWithRequestedGeometry) {
  la::KrylovBasis b(8, 3);
  EXPECT_EQ(b.rows(), 8u);
  EXPECT_EQ(b.cols(), 0u);
  EXPECT_EQ(b.capacity(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST(KrylovBasis, AppendedColumnsAreContiguousColumnMajor) {
  la::KrylovBasis b(3, 2);
  b.append(la::Vector{1.0, 2.0, 3.0});
  b.append(la::Vector{4.0, 5.0, 6.0});
  ASSERT_EQ(b.cols(), 2u);
  // Column-major with leading dimension == rows: col 1 starts at data+3.
  const double* d = b.data();
  EXPECT_EQ(d[0], 1.0);
  EXPECT_EQ(d[2], 3.0);
  EXPECT_EQ(d[3], 4.0);
  EXPECT_EQ(d[5], 6.0);
  EXPECT_EQ(b.col(1).data(), b.col(0).data() + 3);
}

TEST(KrylovBasis, AppendReturnsWritableZeroColumn) {
  la::KrylovBasis b(4, 1);
  std::span<double> c = b.append();
  for (const double v : c) EXPECT_EQ(v, 0.0);
  c[2] = 7.0;
  EXPECT_EQ(b.col(0)[2], 7.0);
}

TEST(KrylovBasis, AppendPastCapacityThrows) {
  la::KrylovBasis b(2, 1);
  b.append(la::Vector{1.0, 1.0});
  EXPECT_THROW(b.append(), std::length_error);
}

TEST(KrylovBasis, AppendLengthMismatchThrows) {
  la::KrylovBasis b(2, 1);
  EXPECT_THROW(b.append(la::Vector{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(KrylovBasis, PopBackRezeroesStorage) {
  la::KrylovBasis b(2, 1);
  b.append(la::Vector{9.0, 9.0});
  b.pop_back();
  EXPECT_EQ(b.cols(), 0u);
  std::span<double> c = b.append();
  EXPECT_EQ(c[0], 0.0);
  EXPECT_EQ(c[1], 0.0);
}

TEST(KrylovBasis, PopBackOnEmptyThrows) {
  la::KrylovBasis b(2, 1);
  EXPECT_THROW(b.pop_back(), std::out_of_range);
}

TEST(KrylovBasis, ClearKeepsArenaAndRezeroes) {
  // The public contract of an O(1) clear(): no columns, the capacity kept,
  // and the next append() hands out an all-zero column although the
  // storage still holds the old data.
  la::KrylovBasis b(2, 2);
  b.append(la::Vector{1.0, 2.0});
  b.append(la::Vector{3.0, 4.0});
  b.clear();
  EXPECT_EQ(b.cols(), 0u);
  EXPECT_EQ(b.capacity(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    const std::span<double> c = b.append();
    EXPECT_EQ(c[0], 0.0) << "column " << j;
    EXPECT_EQ(c[1], 0.0) << "column " << j;
  }
  EXPECT_THROW(b.append(), std::length_error);
}

TEST(KrylovBasis, ScaledAppendMatchesAppendThenScalBitwise) {
  // Both sides of the 4096-row serial threshold, double and float.
  for (const std::size_t n : {std::size_t{7}, std::size_t{5000}}) {
    la::Vector v(n);
    std::vector<float> vf(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = std::sin(1.3 * static_cast<double>(i)) * 1e3;
      vf[i] = static_cast<float>(v[i]);
    }
    const double scale = 1.0 / 7.0;
    la::KrylovBasis fused(n, 1), plain(n, 1);
    fused.append(v.span(), scale);
    plain.append(v);
    la::scal(scale, plain.col(0));
    EXPECT_EQ(fused.col_copy(0), plain.col_copy(0)) << "n=" << n;

    la::KrylovBasisT<float> fused_f(n, 1), plain_f(n, 1);
    fused_f.append(std::span<const float>(vf), static_cast<float>(scale));
    plain_f.append(std::span<const float>(vf));
    la::scal(static_cast<float>(scale), plain_f.col(0));
    EXPECT_EQ(fused_f.col_copy(0), plain_f.col_copy(0)) << "n=" << n;
  }
  la::KrylovBasis b(2, 1);
  EXPECT_THROW(b.append(la::Vector{1.0, 2.0, 3.0}.span(), 2.0),
               std::invalid_argument);
  EXPECT_EQ(b.cols(), 0u);
}

TEST(KrylovBasis, ColCopyMatchesColumnView) {
  la::KrylovBasis b(3, 1);
  b.append(la::Vector{1.5, -2.5, 3.5});
  const la::Vector v = b.col_copy(0);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.5);
  EXPECT_THROW((void)b.col_copy(1), std::out_of_range);
}

TEST(KrylovBasis, ViewExposesLeadingColumns) {
  la::KrylovBasis b(2, 3);
  b.append(la::Vector{1.0, 0.0});
  b.append(la::Vector{0.0, 1.0});
  const la::BasisView v = b.view(1);
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.cols(), 1u);
  EXPECT_EQ(v.col(0)[0], 1.0);
  EXPECT_THROW((void)b.view(3), std::out_of_range);
}

TEST(KrylovBasis, ToDenseRoundTrip) {
  la::KrylovBasis b(2, 2);
  b.append(la::Vector{1.0, 2.0});
  b.append(la::Vector{3.0, 4.0});
  const la::DenseMatrix m = b.to_dense();
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(KrylovBasis, ColumnsWorkWithBlas1Kernels) {
  la::KrylovBasis b(4, 2);
  b.append(la::Vector{1.0, 0.0, 0.0, 0.0});
  b.append(la::Vector{0.0, 1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(la::dot(b.col(0), b.col(1)), 0.0);
  EXPECT_DOUBLE_EQ(la::nrm2(b.col(0)), 1.0);
}

TEST(KrylovBasis, CapacityIsABoundNotAnAllocation) {
  // A 2^40-column bound would need 8 PB up front; the arena allocates only
  // the columns appended.
  la::KrylovBasis b(1000, std::size_t{1} << 40);
  EXPECT_EQ(b.capacity(), std::size_t{1} << 40);
  for (std::size_t j = 0; j < 3; ++j) {
    const std::span<double> c = b.append();
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = static_cast<double>(1000 * j + i);
    }
  }
  ASSERT_EQ(b.cols(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(b.col(j)[0], static_cast<double>(1000 * j));
    EXPECT_EQ(b.col(j)[999], static_cast<double>(1000 * j + 999));
  }
}

namespace {

/// Appends distinct columns to a padded arena one at a time, through every
/// growth step up to the capacity, and checks after each append that all
/// earlier columns kept their bits.
template <typename S>
void check_columns_survive_growth(std::size_t rows) {
  const std::size_t capacity = 40;
  la::KrylovBasisT<S> b(rows, capacity);
  ASSERT_GT(b.ld(), rows) << "the check wants a padded leading dimension";
  const auto value = [](std::size_t i, std::size_t j) {
    return static_cast<S>(std::sin(0.37 * static_cast<double>(i) +
                                   1.91 * static_cast<double>(j)) *
                          1e3);
  };
  for (std::size_t j = 0; j < capacity; ++j) {
    std::vector<S> v(rows);
    for (std::size_t i = 0; i < rows; ++i) v[i] = value(i, j);
    b.append(std::span<const S>(v));
    for (std::size_t c = 0; c <= j; ++c) {
      const std::span<const S> col = std::as_const(b).col(c);
      for (std::size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(col[i], value(i, c))
            << "column " << c << " row " << i << " after " << j + 1
            << " appends";
      }
    }
  }
  EXPECT_THROW(b.append(), std::length_error);
}

} // namespace

TEST(KrylovBasis, ColumnsSurviveEveryGrowthBitwise) {
  check_columns_survive_growth<double>(512); // ld = 520
  check_columns_survive_growth<float>(1024); // ld = 1040
}

TEST(KrylovBasis, RefillAfterClearDoesNotGrowAgain) {
  la::KrylovBasis b(64, 100);
  for (std::size_t j = 0; j < 11; ++j) (void)b.append();
  const double* grown = b.data();
  b.clear();
  for (std::size_t j = 0; j < 11; ++j) {
    (void)b.append();
    EXPECT_EQ(b.data(), grown) << "append " << j;
  }
}

TEST(KrylovBasis, MovesHandTheStorageOver) {
  la::KrylovBasis b(3, 8);
  b.append(la::Vector{1.0, 2.0, 3.0});
  b.append(la::Vector{4.0, 5.0, 6.0});
  const double* storage = b.data();
  la::KrylovBasis moved(std::move(b));
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.cols(), 2u);
  EXPECT_EQ(moved.capacity(), 8u);
  la::KrylovBasis assigned(3, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), storage);
  EXPECT_EQ(assigned.col_copy(1), (la::Vector{4.0, 5.0, 6.0}));
  assigned.append(la::Vector{7.0, 8.0, 9.0});
  EXPECT_EQ(assigned.col_copy(0), (la::Vector{1.0, 2.0, 3.0}));
}
