/// \file la_float_kernels_test.cpp
/// \brief Float instantiations of the BLAS-1/2 span kernels (the
/// mixed-precision inner plane): each kernel against a plain reference
/// loop in float, plus the structural properties the double tests pin
/// down (la::mgs == per-column dot + hook + axpy in serial order, hook
/// protocol, gemv_t == per-column dots).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"

namespace la = sdcgmres::la;

namespace {

std::vector<float> test_vec(std::size_t n, float phase) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.7f * static_cast<float>(i + 1) + phase) +
           0.25f * phase;
  }
  return v;
}

} // namespace

TEST(LaFloatKernels, DotMatchesSequentialReference) {
  const auto x = test_vec(257, 0.3f);
  const auto y = test_vec(257, 1.1f);
  float ref = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) ref += x[i] * y[i];
  EXPECT_EQ(la::dot(std::span<const float>(x), std::span<const float>(y)),
            ref);
}

TEST(LaFloatKernels, Nrm2IsSqrtOfSelfDot) {
  const auto x = test_vec(100, 0.9f);
  const float d = la::dot(std::span<const float>(x), std::span<const float>(x));
  EXPECT_FLOAT_EQ(la::nrm2(std::span<const float>(x)), std::sqrt(d));
}

TEST(LaFloatKernels, AxpyScalCopyWaxpby) {
  const auto x = test_vec(64, 0.2f);
  auto y = test_vec(64, 2.5f);
  auto y_ref = y;
  la::axpy(1.5f, std::span<const float>(x), std::span<float>(y));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], y_ref[i] + 1.5f * x[i]) << i;
  }

  la::scal(0.5f, std::span<float>(y));
  std::vector<float> z(64);
  la::copy(std::span<const float>(y), std::span<float>(z));
  EXPECT_EQ(z, y);

  std::vector<float> w(64);
  la::waxpby(2.0f, std::span<const float>(x), -1.0f,
             std::span<const float>(y), std::span<float>(w));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], 2.0f * x[i] + -1.0f * y[i]) << i;
  }
}

TEST(LaFloatKernels, FiniteChecks) {
  auto x = test_vec(16, 0.4f);
  EXPECT_TRUE(la::all_finite(std::span<const float>(x)));
  EXPECT_EQ(la::count_nonfinite(std::span<const float>(x)), 0u);
  x[3] = std::numeric_limits<float>::quiet_NaN();
  x[9] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(la::all_finite(std::span<const float>(x)));
  EXPECT_EQ(la::count_nonfinite(std::span<const float>(x)), 2u);
}

TEST(LaFloatKernels, MgsMatchesUnfusedSequenceInSerial) {
  // Below the parallel threshold the pipelined MGS pass must be bitwise
  // identical to nrm2, then dot() followed by axpy(-h, ...) per column,
  // then nrm2, same as the double kernel's contract.
  la::KrylovBasisT<float> q(128, 2);
  q.append(std::span<const float>(test_vec(128, 0.6f)));
  q.append(std::span<const float>(test_vec(128, 0.1f)));
  auto y = test_vec(128, 1.9f);
  auto y_ref = y;
  const std::span<float> r(y_ref);
  const float entry_ref = la::nrm2(std::span<const float>(r));
  std::vector<float> h_ref(2);
  for (std::size_t i = 0; i < 2; ++i) {
    h_ref[i] = la::dot(q.col(i), std::span<const float>(r));
    la::axpy(-h_ref[i], q.col(i), r);
  }
  const float exit_ref = la::nrm2(std::span<const float>(r));

  std::vector<float> h(2, 0.0f);
  const la::OrthoNorms<float> norms =
      la::mgs(q.view(), std::span<float>(y), std::span<float>(h));
  EXPECT_EQ(h, h_ref);
  EXPECT_EQ(norms.entry, entry_ref);
  EXPECT_EQ(norms.exit, exit_ref);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_ref[i]) << i;
}

TEST(LaFloatKernels, MgsHookObservesAndMutatesCoefficient) {
  la::KrylovBasisT<float> q(32, 1);
  q.append(std::span<const float>(test_vec(32, 0.8f)));
  auto y = test_vec(32, 1.2f);
  auto y_ref = y;
  const float h_clean = la::dot(q.col(0), std::span<const float>(y));

  float seen = 0.0f;
  auto hook = [&](std::size_t, float& c) {
    seen = c;
    c = 2.0f * c; // the injection site: mutate before application
  };
  std::vector<float> h(1, 0.0f);
  (void)la::mgs(q.view(), std::span<float>(y), std::span<float>(h), hook);
  EXPECT_EQ(seen, h_clean);
  EXPECT_EQ(h[0], 2.0f * h_clean);
  la::axpy(-h[0], q.col(0), std::span<float>(y_ref));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_ref[i]) << i;
}

TEST(LaFloatKernels, GemvTMatchesPerColumnDots) {
  // Basis with 5 columns of length 200; gemv_t must produce each y[j] in
  // sequential dot order (the CGS fusion contract of the double kernel).
  const std::size_t n = 200, cols = 5;
  la::KrylovBasisT<float> q(n, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    std::span<float> col = q.append();
    const auto v = test_vec(n, 0.5f * static_cast<float>(c + 1));
    for (std::size_t i = 0; i < n; ++i) col[i] = v[i];
  }
  const auto x = test_vec(n, 3.1f);
  std::vector<float> y(cols, 0.0f);
  la::gemv_t(1.0f, q.view(), std::span<const float>(x), 0.0f,
             std::span<float>(y));
  for (std::size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(y[c], la::dot(q.col(c), std::span<const float>(x))) << c;
  }
}

TEST(LaFloatKernels, GemvMatchesPerColumnAxpys) {
  const std::size_t n = 150, cols = 6;
  la::KrylovBasisT<float> q(n, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    std::span<float> col = q.append();
    const auto v = test_vec(n, 0.3f * static_cast<float>(c + 2));
    for (std::size_t i = 0; i < n; ++i) col[i] = v[i];
  }
  const auto coef = test_vec(cols, 1.7f);
  std::vector<float> y(n, 0.0f);
  la::gemv(1.0f, q.view(), std::span<const float>(coef), 0.0f,
           std::span<float>(y));

  std::vector<float> ref(n, 0.0f);
  // Reference accumulates with the kernel's 4-wide column blocking to a
  // tolerance; exact order differs, so compare to float roundoff.
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t i = 0; i < n; ++i) ref[i] += coef[c] * q.col(c)[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-4f * std::abs(ref[i]) + 1e-5f) << i;
  }
}
