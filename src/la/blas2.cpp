#include "la/blas2.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace sdcgmres::la {

namespace {

/// Row-chunk size for gemv: the y chunk stays cache-resident while all
/// columns stream past it (one pass over B, ~cols/4 passes over y instead
/// of cols).
constexpr std::size_t kGemvRowChunk = 4096;

template <typename S>
void gemv_chunk(S alpha, std::size_t cols, const S* b, std::size_t lda,
                const S* x, S beta, S* y, std::size_t r0, std::size_t r1) {
  if (beta == S(0)) {
    for (std::size_t i = r0; i < r1; ++i) y[i] = S(0);
  } else if (beta != S(1)) {
    for (std::size_t i = r0; i < r1; ++i) y[i] *= beta;
  }
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const S* c0 = b + j * lda;
    const S* c1 = c0 + lda;
    const S* c2 = c1 + lda;
    const S* c3 = c2 + lda;
    const S a0 = alpha * x[j];
    const S a1 = alpha * x[j + 1];
    const S a2 = alpha * x[j + 2];
    const S a3 = alpha * x[j + 3];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += a0 * c0[i] + a1 * c1[i] + a2 * c2[i] + a3 * c3[i];
    }
  }
  for (; j < cols; ++j) {
    const S* cj = b + j * lda;
    const S aj = alpha * x[j];
    for (std::size_t i = r0; i < r1; ++i) {
      y[i] += aj * cj[i];
    }
  }
}

template <typename S>
void gemv_impl(S alpha, std::size_t rows, std::size_t cols, const S* b,
               std::size_t lda, const S* x, S beta, S* y) {
  const auto nchunks = static_cast<std::int64_t>(
      (rows + kGemvRowChunk - 1) / kGemvRowChunk);
#pragma omp parallel for schedule(static) if (nchunks > 1 && rows * cols > 65536)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::size_t r0 = static_cast<std::size_t>(c) * kGemvRowChunk;
    const std::size_t r1 = std::min(rows, r0 + kGemvRowChunk);
    gemv_chunk(alpha, cols, b, lda, x, beta, y, r0, r1);
  }
}

template <typename S>
void gemv_t_impl(S alpha, std::size_t rows, std::size_t cols, const S* b,
                 std::size_t lda, const S* x, S beta, S* y) {
  const auto nblocks = static_cast<std::int64_t>((cols + 3) / 4);
#pragma omp parallel for schedule(static) if (nblocks > 1 && rows * cols > 65536)
  for (std::int64_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t j = static_cast<std::size_t>(blk) * 4;
    if (j + 4 <= cols) {
      const S* c0 = b + j * lda;
      const S* c1 = c0 + lda;
      const S* c2 = c1 + lda;
      const S* c3 = c2 + lda;
      // Four independent accumulator chains; each chain keeps the plain
      // sequential summation order of a naive dot product.
      S s0 = S(0), s1 = S(0), s2 = S(0), s3 = S(0);
      for (std::size_t i = 0; i < rows; ++i) {
        const S xi = x[i];
        s0 += c0[i] * xi;
        s1 += c1[i] * xi;
        s2 += c2[i] * xi;
        s3 += c3[i] * xi;
      }
      if (beta == S(0)) {
        y[j] = alpha * s0;
        y[j + 1] = alpha * s1;
        y[j + 2] = alpha * s2;
        y[j + 3] = alpha * s3;
      } else {
        y[j] = alpha * s0 + beta * y[j];
        y[j + 1] = alpha * s1 + beta * y[j + 1];
        y[j + 2] = alpha * s2 + beta * y[j + 2];
        y[j + 3] = alpha * s3 + beta * y[j + 3];
      }
    } else {
      for (std::size_t jj = j; jj < cols; ++jj) {
        const S* cj = b + jj * lda;
        S s = S(0);
        for (std::size_t i = 0; i < rows; ++i) s += cj[i] * x[i];
        y[jj] = (beta == S(0)) ? alpha * s : alpha * s + beta * y[jj];
      }
    }
  }
}

template <typename S>
void gemv_view(S alpha, const BasisViewT<S>& q, std::span<const S> x, S beta,
               std::span<S> y) {
  if (x.size() != q.cols()) {
    throw std::invalid_argument("la::gemv: x size must equal basis cols");
  }
  if (y.size() != q.rows()) {
    throw std::invalid_argument("la::gemv: y size must equal basis rows");
  }
  gemv_impl(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
            y.data());
}

template <typename S>
void gemv_t_view(S alpha, const BasisViewT<S>& q, std::span<const S> x,
                 S beta, std::span<S> y) {
  if (x.size() != q.rows()) {
    throw std::invalid_argument("la::gemv_t: x size must equal basis rows");
  }
  if (y.size() != q.cols()) {
    throw std::invalid_argument("la::gemv_t: y size must equal basis cols");
  }
  gemv_t_impl(alpha, q.rows(), q.cols(), q.data(), q.ld(), x.data(), beta,
              y.data());
}

} // namespace

void gemv(double alpha, std::size_t rows, std::size_t cols, const double* b,
          std::size_t lda, const double* x, double beta, double* y) {
  gemv_impl(alpha, rows, cols, b, lda, x, beta, y);
}
void gemv(float alpha, std::size_t rows, std::size_t cols, const float* b,
          std::size_t lda, const float* x, float beta, float* y) {
  gemv_impl(alpha, rows, cols, b, lda, x, beta, y);
}

void gemv_t(double alpha, std::size_t rows, std::size_t cols, const double* b,
            std::size_t lda, const double* x, double beta, double* y) {
  gemv_t_impl(alpha, rows, cols, b, lda, x, beta, y);
}
void gemv_t(float alpha, std::size_t rows, std::size_t cols, const float* b,
            std::size_t lda, const float* x, float beta, float* y) {
  gemv_t_impl(alpha, rows, cols, b, lda, x, beta, y);
}

void gemv(double alpha, const BasisView& q, std::span<const double> x,
          double beta, std::span<double> y) {
  gemv_view(alpha, q, x, beta, y);
}
void gemv(float alpha, const BasisViewT<float>& q, std::span<const float> x,
          float beta, std::span<float> y) {
  gemv_view(alpha, q, x, beta, y);
}

void gemv_t(double alpha, const BasisView& q, std::span<const double> x,
            double beta, std::span<double> y) {
  gemv_t_view(alpha, q, x, beta, y);
}
void gemv_t(float alpha, const BasisViewT<float>& q, std::span<const float> x,
            float beta, std::span<float> y) {
  gemv_t_view(alpha, q, x, beta, y);
}

void gemv(double alpha, const DenseMatrix& A, const Vector& x, double beta,
          Vector& y) {
  if (x.size() != A.cols()) {
    throw std::invalid_argument("la::gemv: x size must equal A.cols()");
  }
  if (y.size() != A.rows()) {
    throw std::invalid_argument("la::gemv: y size must equal A.rows()");
  }
  gemv(alpha, A.rows(), A.cols(), A.data(), A.rows(), x.data(), beta,
       y.data());
}

void gemv_t(double alpha, const DenseMatrix& A, const Vector& x, double beta,
            Vector& y) {
  if (x.size() != A.rows()) {
    throw std::invalid_argument("la::gemv_t: x size must equal A.rows()");
  }
  if (y.size() != A.cols()) {
    throw std::invalid_argument("la::gemv_t: y size must equal A.cols()");
  }
  gemv_t(alpha, A.rows(), A.cols(), A.data(), A.rows(), x.data(), beta,
         y.data());
}

void gemm(const DenseMatrix& A, const DenseMatrix& B, DenseMatrix& C) {
  if (A.cols() != B.rows()) {
    throw std::invalid_argument("la::gemm: inner dimensions must agree");
  }
  C.reshape(A.rows(), B.cols());
  for (std::size_t j = 0; j < B.cols(); ++j) {
    for (std::size_t k = 0; k < A.cols(); ++k) {
      const double bkj = B(k, j);
      if (bkj == 0.0) continue;
      const double* colk = A.col(k);
      double* coutj = C.col(j);
      for (std::size_t i = 0; i < A.rows(); ++i) {
        coutj[i] += colk[i] * bkj;
      }
    }
  }
}

double frobenius_norm(const DenseMatrix& A) {
  double sum = 0.0;
  for (std::size_t j = 0; j < A.cols(); ++j) {
    const double* colj = A.col(j);
    for (std::size_t i = 0; i < A.rows(); ++i) {
      sum += colj[i] * colj[i];
    }
  }
  return std::sqrt(sum);
}

namespace {

double orthonormality_defect_impl(const double* data, std::size_t rows,
                                  std::size_t cols, std::size_t lda) {
  double worst = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t k = j; k < cols; ++k) {
      double sum = 0.0;
      const double* cj = data + j * lda;
      const double* ck = data + k * lda;
      for (std::size_t i = 0; i < rows; ++i) sum += cj[i] * ck[i];
      const double target = (j == k) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(sum - target));
    }
  }
  return worst;
}

} // namespace

double orthonormality_defect(const DenseMatrix& A) {
  return orthonormality_defect_impl(A.data(), A.rows(), A.cols(), A.rows());
}

double orthonormality_defect(const BasisView& q) {
  return orthonormality_defect_impl(q.data(), q.rows(), q.cols(), q.ld());
}

} // namespace sdcgmres::la
