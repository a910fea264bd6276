#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/blas1.hpp"

namespace la = sdcgmres::la;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

TEST(Blas1Dot, OrthogonalVectorsGiveZero) {
  la::Vector x{1.0, 0.0};
  la::Vector y{0.0, 5.0};
  EXPECT_EQ(la::dot(x, y), 0.0);
}

TEST(Blas1Dot, MatchesHandComputedValue) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(la::dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(Blas1Dot, SizeMismatchThrows) {
  la::Vector x(3);
  la::Vector y(4);
  EXPECT_THROW((void)la::dot(x, y), std::invalid_argument);
}

TEST(Blas1Dot, LargeVectorParallelPathAgreesWithSerialSum) {
  const std::size_t n = 100000; // above the OpenMP threshold
  la::Vector x(n, 1.0);
  la::Vector y(n, 2.0);
  EXPECT_DOUBLE_EQ(la::dot(x, y), 2.0 * static_cast<double>(n));
}

TEST(Blas1Norms, Nrm2OfUnitAxisVector) {
  EXPECT_DOUBLE_EQ(la::nrm2(la::unit(7, 3)), 1.0);
}

TEST(Blas1Norms, Nrm2Pythagorean) {
  la::Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(la::nrm2(v), 5.0);
}

TEST(Blas1Axpy, BasicUpdate) {
  la::Vector x{1.0, 2.0};
  la::Vector y{10.0, 20.0};
  la::axpy(2.0, x, y);
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[1], 24.0);
}

TEST(Blas1Axpy, SizeMismatchThrows) {
  la::Vector x(2);
  la::Vector y(3);
  EXPECT_THROW(la::axpy(1.0, x, y), std::invalid_argument);
}

TEST(Blas1Waxpby, ThreeOperandForm) {
  la::Vector x{1.0, 2.0};
  la::Vector y{3.0, 4.0};
  la::Vector w;
  la::waxpby(2.0, x, -1.0, y, w);
  EXPECT_EQ(w[0], -1.0);
  EXPECT_EQ(w[1], 0.0);
}

TEST(Blas1Waxpby, OutputMayAliasInput) {
  la::Vector x{1.0, 2.0};
  la::Vector y{3.0, 4.0};
  la::waxpby(1.0, x, 1.0, y, y); // y := x + y
  EXPECT_EQ(y[0], 4.0);
  EXPECT_EQ(y[1], 6.0);
}

TEST(Blas1Scal, ScalesInPlace) {
  la::Vector x{1.0, -2.0};
  la::scal(-3.0, x);
  EXPECT_EQ(x[0], -3.0);
  EXPECT_EQ(x[1], 6.0);
}

TEST(Blas1Copy, ResizesDestination) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y;
  la::copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(Blas1Hadamard, ElementWiseProduct) {
  la::Vector x{1.0, 2.0, 3.0};
  la::Vector y{2.0, 0.5, -1.0};
  la::Vector z;
  la::hadamard(x, y, z);
  EXPECT_EQ(z[0], 2.0);
  EXPECT_EQ(z[1], 1.0);
  EXPECT_EQ(z[2], -3.0);
}

TEST(Blas1Finite, AllFiniteOnCleanVector) {
  la::Vector v{1.0, -2.0, 0.0};
  EXPECT_TRUE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 0u);
}

TEST(Blas1Finite, DetectsInf) {
  la::Vector v{1.0, kInf, 0.0};
  EXPECT_FALSE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 1u);
}

TEST(Blas1Finite, DetectsNaN) {
  la::Vector v{kNaN, kNaN, 0.0};
  EXPECT_FALSE(la::all_finite(v));
  EXPECT_EQ(la::count_nonfinite(v), 2u);
}

TEST(Blas1Finite, NegativeInfCounts) {
  la::Vector v{-kInf};
  EXPECT_EQ(la::count_nonfinite(v), 1u);
}

// --- Fused dot_axpy (the MGS hot-path kernel) -------------------------------

TEST(Blas1DotAxpy, BitwiseMatchesUnfusedDotThenAxpy) {
  // The fused dot runs the same fixed partition as dot() -- the plain
  // sequential loop up to 4096 entries, block partials above -- so the
  // fused and unfused sequences agree bitwise on both sides of the
  // threshold.
  for (const std::size_t n : {std::size_t{4000}, std::size_t{5000},
                              std::size_t{100003}}) {
    la::Vector q(n), v(n);
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = std::sin(0.31 * static_cast<double>(i));
      v[i] = std::cos(0.17 * static_cast<double>(i)) + 0.2;
    }
    la::Vector v_ref = v;
    const double h_ref = la::dot(q, v_ref);
    la::axpy(-h_ref, q, v_ref);

    const double h = la::dot_axpy(q.span(), v.span());
    EXPECT_EQ(h, h_ref) << "n=" << n;
    EXPECT_EQ(v, v_ref) << "n=" << n;
  }
}

TEST(Blas1DotAxpy, AdjustRunsOnceBetweenDotAndCorrection) {
  la::Vector q{1.0, 0.0, 0.0};
  la::Vector v{4.0, 2.0, 1.0};
  int calls = 0;
  const double h =
      la::dot_axpy(q.span(), v.span(), [&](double& c) {
        ++calls;
        EXPECT_DOUBLE_EQ(c, 4.0); // the freshly computed coefficient
        c = 1.0;                  // mutate: only 1.0 of the component removed
      });
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(h, 1.0);      // returns the mutated coefficient
  EXPECT_DOUBLE_EQ(v[0], 3.0);   // 4 - 1: mutated value applied
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(Blas1DotAxpy, SizeMismatchThrows) {
  la::Vector q(3), v(4);
  EXPECT_THROW((void)la::dot_axpy(q.span(), v.span()), std::invalid_argument);
}

TEST(Blas1SpanOverloads, MatchVectorOverloadsBitwise) {
  const std::size_t n = 4100;
  la::Vector x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.7);
    y[i] = std::cos(static_cast<double>(i) * 0.3);
  }
  EXPECT_EQ(la::dot(x.span(), y.span()), la::dot(x, y));
  EXPECT_EQ(la::nrm2(x.span()), la::nrm2(x));
  la::Vector y1 = y, y2 = y;
  la::axpy(0.37, x, y1);
  la::axpy(0.37, x.span(), y2.span());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y1[i], y2[i]);
}

// --- Thread invariance of the reductions ------------------------------------

#ifdef _OPENMP

namespace {

/// Everything the reduction kernels return for one input, captured at one
/// OpenMP thread count.
template <typename S>
struct ReductionResults {
  S dot = S(0);
  S nrm2 = S(0);
  std::size_t nonfinite = 0;
  S h_plain = S(0);
  S h_seen = S(0); ///< coefficient the dot_axpy hook observed
  S h_hook = S(0);
  std::vector<S> y_plain;
  std::vector<S> y_hook;
};

template <typename S>
ReductionResults<S> run_reductions(std::size_t n, int threads) {
  std::vector<S> x(n), y(n), dirty(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<S>(std::sin(0.37 * static_cast<double>(i)) + 1e-3);
    y[i] = static_cast<S>(std::cos(0.11 * static_cast<double>(i)) - 0.4);
    dirty[i] = (i % 997 == 5) ? std::numeric_limits<S>::quiet_NaN() : x[i];
  }
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  ReductionResults<S> out;
  const std::span<const S> cx(x);
  out.dot = la::dot(cx, std::span<const S>(y));
  out.nrm2 = la::nrm2(cx);
  out.nonfinite = la::count_nonfinite(std::span<const S>(dirty));
  out.y_plain = y;
  out.h_plain = la::dot_axpy(cx, std::span<S>(out.y_plain));
  out.y_hook = y;
  out.h_hook = la::dot_axpy(cx, std::span<S>(out.y_hook), [&](S& c) {
    out.h_seen = c;
    c *= S(3); // mutate, as an injection would
  });
  omp_set_num_threads(saved);
  return out;
}

template <typename S>
bool same_bits(S a, S b) {
  return std::memcmp(&a, &b, sizeof(S)) == 0;
}

template <typename S>
bool same_bits(const std::vector<S>& a, const std::vector<S>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(S)) == 0;
}

template <typename S>
void expect_thread_invariant(std::size_t n) {
  const ReductionResults<S> serial = run_reductions<S>(n, 1);
  for (int threads = 2; threads <= 4; ++threads) {
    const ReductionResults<S> r = run_reductions<S>(n, threads);
    const auto where = ::testing::Message()
                       << "n=" << n << " threads=" << threads
                       << " sizeof(S)=" << sizeof(S);
    EXPECT_TRUE(same_bits(r.dot, serial.dot)) << where;
    EXPECT_TRUE(same_bits(r.nrm2, serial.nrm2)) << where;
    EXPECT_EQ(r.nonfinite, serial.nonfinite) << where;
    EXPECT_TRUE(same_bits(r.h_plain, serial.h_plain)) << where;
    EXPECT_TRUE(same_bits(r.h_seen, serial.h_seen)) << where;
    EXPECT_TRUE(same_bits(r.h_hook, serial.h_hook)) << where;
    EXPECT_TRUE(same_bits(r.y_plain, serial.y_plain)) << where;
    EXPECT_TRUE(same_bits(r.y_hook, serial.y_hook)) << where;
  }
  // The hook saw the same coefficient the unhooked kernel returned, and
  // the count covers every planted NaN.
  EXPECT_TRUE(same_bits(serial.h_seen, serial.h_plain));
  EXPECT_EQ(serial.nonfinite, (n - 5 + 996) / 997);
}

} // namespace

TEST(Blas1ThreadInvariance, ReductionsBitwiseEqualAtOneToFourThreads) {
  for (const std::size_t n :
       {std::size_t{4097}, std::size_t{100003}, std::size_t{1} << 20}) {
    expect_thread_invariant<double>(n);
    expect_thread_invariant<float>(n);
  }
}

#endif // _OPENMP
