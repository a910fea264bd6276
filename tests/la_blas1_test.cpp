#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/blas1.hpp"
#include "la/krylov_basis.hpp"

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

// --- Pipelined MGS (la::mgs, the MGS hot-path kernel) ----------------------

namespace {

template <typename S>
bool same_bits(S a, S b) {
  return std::memcmp(&a, &b, sizeof(S)) == 0;
}

template <typename S>
bool same_bits(const std::vector<S>& a, const std::vector<S>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(S)) == 0;
}

/// No hook mutation in this run.
constexpr std::size_t kNoMutation = static_cast<std::size_t>(-1);

/// The injection a hook applies at its mutation index.
template <typename S>
S mutated(S c) {
  return S(-3) * c + S(0.25);
}

/// Everything one MGS pass produces.
template <typename S>
struct MgsRun {
  std::vector<S> v;
  std::vector<S> h;
  std::vector<S> seen; ///< coefficients as the hook observed them
  la::OrthoNorms<S> norms;
};

/// The unfused oracle: per column la::dot, then the hook, then la::axpy;
/// both norms from la::nrm2.
template <typename S>
MgsRun<S> oracle_mgs(const la::KrylovBasisT<S>& q, std::size_t k,
                     const std::vector<S>& v0, std::size_t mutate_at) {
  MgsRun<S> run{v0, std::vector<S>(k, S(0)), {}, {}};
  const std::span<S> v(run.v);
  run.norms.entry = la::nrm2(std::span<const S>(v));
  for (std::size_t i = 0; i < k; ++i) {
    S c = la::dot(q.col(i), std::span<const S>(v));
    run.seen.push_back(c);
    if (i == mutate_at) c = mutated(c);
    run.h[i] += c;
    la::axpy(-c, q.col(i), v);
  }
  run.norms.exit = la::nrm2(std::span<const S>(v));
  return run;
}

/// la::mgs on the same input; with \p hooked false no hook is installed.
template <typename S>
MgsRun<S> kernel_mgs(const la::KrylovBasisT<S>& q, std::size_t k,
                     const std::vector<S>& v0, bool hooked,
                     std::size_t mutate_at) {
  MgsRun<S> run{v0, std::vector<S>(k, S(0)), {}, {}};
  auto hook = [&](std::size_t i, S& c) {
    run.seen.push_back(c);
    if (i == mutate_at) c = mutated(c);
  };
  run.norms = hooked ? la::mgs(q.view(k), std::span<S>(run.v),
                               std::span<S>(run.h), hook)
                     : la::mgs(q.view(k), std::span<S>(run.v),
                               std::span<S>(run.h));
  return run;
}

/// A k-column basis of length n with entries of size ~1/sqrt(n) (so that
/// thirteen corrections keep v in range, float included) and a start v.
template <typename S>
la::KrylovBasisT<S> test_basis(std::size_t n, std::size_t k) {
  la::KrylovBasisT<S> q(n, k);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<S> c = q.append();
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = static_cast<S>(
          scale * std::sin(0.31 * static_cast<double>(i) + 0.7 * j));
    }
  }
  return q;
}

template <typename S>
std::vector<S> test_start(std::size_t n) {
  std::vector<S> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<S>(std::cos(0.17 * static_cast<double>(i)) + 0.2);
  }
  return v;
}

template <typename S>
void expect_same_run(const MgsRun<S>& got, const MgsRun<S>& want,
                     const ::testing::Message& where) {
  EXPECT_TRUE(same_bits(got.v, want.v)) << where;
  EXPECT_TRUE(same_bits(got.h, want.h)) << where;
  EXPECT_TRUE(same_bits(got.norms.entry, want.norms.entry)) << where;
  EXPECT_TRUE(same_bits(got.norms.exit, want.norms.exit)) << where;
}

/// Every (k, mutation index, thread count) on one basis: the kernel with
/// and without a hook against the unfused oracle, bitwise.
template <typename S>
void expect_mgs_matches_oracle(std::size_t n) {
  constexpr std::size_t kMaxK = 13;
  const la::KrylovBasisT<S> q = test_basis<S>(n, kMaxK);
  const std::vector<S> v0 = test_start<S>(n);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const int max_threads = 4;
#else
  const int max_threads = 1;
#endif
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, kMaxK}) {
    const MgsRun<S> clean = oracle_mgs(q, k, v0, kNoMutation);
    std::vector<std::size_t> mutations{kNoMutation, 0};
    for (const std::size_t at : {k / 2, k - 1}) {
      if (at != mutations.back()) mutations.push_back(at);
    }
    for (const std::size_t at : mutations) {
      const MgsRun<S> want = oracle_mgs(q, k, v0, at);
      // Up to 4096 rows the kernel never enters OpenMP.
      const int last = n > 4096 ? max_threads : 1;
      for (int threads = 1; threads <= last; ++threads) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        const auto where = ::testing::Message()
                           << "n=" << n << " k=" << k << " mutate_at=" << at
                           << " threads=" << threads
                           << " sizeof(S)=" << sizeof(S);
        const MgsRun<S> got = kernel_mgs(q, k, v0, /*hooked=*/true, at);
        expect_same_run(got, want, where);
        EXPECT_TRUE(same_bits(got.seen, want.seen)) << where;
        if (at == kNoMutation) {
          expect_same_run(kernel_mgs(q, k, v0, /*hooked=*/false, at), clean,
                          where);
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

} // namespace

TEST(Blas1Mgs, BitwiseMatchesDotHookAxpyOracle) {
  // Both sides of the 4096-entry serial threshold, a ragged last block
  // (4097, 100003) and the 256-block cap (2^20).
  for (const std::size_t n :
       {std::size_t{1000}, std::size_t{4096}, std::size_t{4097},
        std::size_t{100003}, std::size_t{1} << 20}) {
    expect_mgs_matches_oracle<double>(n);
    expect_mgs_matches_oracle<float>(n);
  }
}

TEST(Blas1Mgs, HookRunsOncePerCoefficientBeforeItsCorrection) {
  la::KrylovBasis q(3, 2);
  q.append(la::Vector{1.0, 0.0, 0.0});
  q.append(la::Vector{0.0, 1.0, 0.0});
  la::Vector v{4.0, 2.0, 1.0};
  std::vector<double> h(2, 0.0);
  std::vector<std::size_t> order;
  auto hook = [&](std::size_t i, double& c) {
    order.push_back(i);
    if (i == 0) {
      EXPECT_DOUBLE_EQ(c, 4.0); // the freshly computed coefficient
      c = 1.0; // mutate: only 1.0 of the component removed
    } else {
      EXPECT_DOUBLE_EQ(c, 2.0); // computed after the mutated correction
    }
  };
  const la::OrthoNorms<double> norms = la::mgs(q.view(), v.span(), h, hook);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(h[0], 1.0); // the mutated value is recorded...
  EXPECT_DOUBLE_EQ(v[0], 3.0); // ...and applied: 4 - 1
  EXPECT_DOUBLE_EQ(h[1], 2.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(norms.entry, std::sqrt(21.0));
  EXPECT_DOUBLE_EQ(norms.exit, std::sqrt(10.0));
}

TEST(Blas1Mgs, ZeroColumnsReturnsTheNormTwice) {
  const la::KrylovBasis q(3, 1);
  la::Vector v{3.0, 0.0, 4.0};
  const la::OrthoNorms<double> norms = la::mgs(q.view(), v.span(), {});
  EXPECT_EQ(norms.entry, 5.0);
  EXPECT_EQ(norms.exit, 5.0);
  EXPECT_EQ(v, (la::Vector{3.0, 0.0, 4.0}));
}

TEST(Blas1Mgs, ShapeMismatchThrows) {
  la::KrylovBasis q(3, 2);
  q.append(la::Vector{1.0, 0.0, 0.0});
  q.append(la::Vector{0.0, 1.0, 0.0});
  la::Vector v(4);
  std::vector<double> h(2, 0.0);
  EXPECT_THROW((void)la::mgs(q.view(), v.span(), h), std::invalid_argument);
  la::Vector w(3);
  std::vector<double> short_h(1, 0.0);
  EXPECT_THROW((void)la::mgs(q.view(), w.span(), short_h),
               std::invalid_argument);
}

TEST(Blas1ScalInto, MatchesCopyThenScalBitwise) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{5000}}) {
    la::Vector x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::sin(0.9 * static_cast<double>(i)) * 1e-3;
    }
    la::Vector ref = x;
    la::scal(1.0 / 3.0, ref);
    la::scal(1.0 / 3.0, x.span(), y.span());
    EXPECT_EQ(y, ref) << "n=" << n;
  }
  la::Vector x(3), y(4);
  EXPECT_THROW(la::scal(2.0, x.span(), y.span()), std::invalid_argument);
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
  MgsRun<S> mgs_plain; ///< la::mgs without a hook
  MgsRun<S> mgs_hook;  ///< la::mgs with a hook mutating coefficient 1
};

template <typename S>
ReductionResults<S> run_reductions(std::size_t n, int threads) {
  std::vector<S> x(n), y(n), dirty(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<S>(std::sin(0.37 * static_cast<double>(i)) + 1e-3);
    y[i] = static_cast<S>(std::cos(0.11 * static_cast<double>(i)) - 0.4);
    dirty[i] = (i % 997 == 5) ? std::numeric_limits<S>::quiet_NaN() : x[i];
  }
  const la::KrylovBasisT<S> q = test_basis<S>(n, 3);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  ReductionResults<S> out;
  const std::span<const S> cx(x);
  out.dot = la::dot(cx, std::span<const S>(y));
  out.nrm2 = la::nrm2(cx);
  out.nonfinite = la::count_nonfinite(std::span<const S>(dirty));
  out.mgs_plain = kernel_mgs(q, 3, y, /*hooked=*/false, kNoMutation);
  out.mgs_hook = kernel_mgs(q, 3, y, /*hooked=*/true, 1);
  omp_set_num_threads(saved);
  return out;
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
    expect_same_run(r.mgs_plain, serial.mgs_plain, where);
    expect_same_run(r.mgs_hook, serial.mgs_hook, where);
    EXPECT_TRUE(same_bits(r.mgs_hook.seen, serial.mgs_hook.seen)) << where;
  }
  // The hook saw the unhooked kernel's first coefficient, and the count
  // covers every planted NaN.
  EXPECT_TRUE(same_bits(serial.mgs_hook.seen.at(0), serial.mgs_plain.h.at(0)));
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
