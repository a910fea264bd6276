#include "la/blas1.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "la/krylov_basis.hpp"

namespace sdcgmres::la {

namespace {

/// Kernels up to this length run serially behind a plain branch (no
/// parallel region, not even an if(false) one): the plain sequential loop.
constexpr std::size_t kSerialMax = 4096;

/// Cap on the number of partial sums of a fixed-partition reduction; the
/// partials live on the stack.
constexpr std::size_t kMaxBlocks = 256;

/// The thread-count-independent partition of [0, n) used above kSerialMax:
/// blocks of max(kSerialMax, ceil(n / kMaxBlocks)) entries, the last one
/// possibly short.  OpenMP loops run over blocks, so indices are signed.
struct Partition {
  explicit Partition(std::size_t len)
      : n(len),
        block(std::max(kSerialMax, (len + kMaxBlocks - 1) / kMaxBlocks)),
        count(static_cast<std::int64_t>((len + block - 1) / block)) {}
  [[nodiscard]] std::size_t begin(std::int64_t b) const {
    return static_cast<std::size_t>(b) * block;
  }
  [[nodiscard]] std::size_t end(std::int64_t b) const {
    return std::min(n, begin(b) + block);
  }
  std::size_t n;
  std::size_t block;
  std::int64_t count;
};

/// Combines partials[0..count) serially in a fixed pairwise tree (stride 1,
/// 2, 4, ...), the same discipline as la::tsqr's R-tree.
template <typename T>
T combine(T* partials, std::int64_t count) {
  for (std::int64_t stride = 1; stride < count; stride *= 2) {
    for (std::int64_t b = 0; b + stride < count; b += 2 * stride) {
      partials[b] += partials[b + stride];
    }
  }
  return partials[0];
}

/// The one reduction of this file: sum of block_sum(i0, i1) over the fixed
/// partition of [0, n), where block_sum accumulates [i0, i1) sequentially.
/// Bitwise independent of the thread count.
template <typename T, typename BlockSum>
T fixed_sum(std::size_t n, const BlockSum& block_sum) {
  if (n <= kSerialMax) return block_sum(std::size_t{0}, n);
  const Partition part(n);
  T partials[kMaxBlocks];
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < part.count; ++b) {
    partials[b] = block_sum(part.begin(b), part.end(b));
  }
  return combine(partials, part.count);
}

template <typename S>
void require_same_size(std::span<const S> x, std::span<const S> y,
                       const char* what) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(std::string("la::") + what +
                                ": size mismatch");
  }
}

template <typename S>
S dot_impl(std::span<const S> x, std::span<const S> y) {
  require_same_size(x, y, "dot");
  const S* px = x.data();
  const S* py = y.data();
  return fixed_sum<S>(x.size(), [=](std::size_t i0, std::size_t i1) {
    S sum = S(0);
    for (std::size_t i = i0; i < i1; ++i) sum += px[i] * py[i];
    return sum;
  });
}

/// Runs body(i) for every i in [0, n): the plain loop up to kSerialMax,
/// behind an ordinary branch so that small vectors never enter an OpenMP
/// region; a static OpenMP loop above.  Element-wise kernels only.
template <typename Body>
void for_each_entry(std::size_t n, const Body& body) {
  if (n <= kSerialMax) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) body(static_cast<std::size_t>(i));
}

template <typename S>
void axpy_impl(S alpha, std::span<const S> x, std::span<S> y) {
  require_same_size(x, std::span<const S>(y), "axpy");
  const S* px = x.data();
  S* py = y.data();
  for_each_entry(x.size(), [=](std::size_t i) { py[i] += alpha * px[i]; });
}

template <typename S>
void scal_impl(S alpha, std::span<S> x) {
  S* px = x.data();
  for_each_entry(x.size(), [=](std::size_t i) { px[i] *= alpha; });
}

template <typename S>
void scal_into_impl(S alpha, std::span<const S> x, std::span<S> y) {
  require_same_size(x, std::span<const S>(y), "scal");
  const S* px = x.data();
  S* py = y.data();
  for_each_entry(x.size(), [=](std::size_t i) { py[i] = px[i] * alpha; });
}

template <typename S>
void copy_impl(std::span<const S> x, std::span<S> y) {
  require_same_size(x, std::span<const S>(y), "copy");
  const S* px = x.data();
  S* py = y.data();
  for_each_entry(x.size(), [=](std::size_t i) { py[i] = px[i]; });
}

template <typename S>
void waxpby_impl(S alpha, std::span<const S> x, S beta,
                 std::span<const S> y, std::span<S> w) {
  require_same_size(x, y, "waxpby");
  require_same_size(x, std::span<const S>(w), "waxpby");
  const S* px = x.data();
  const S* py = y.data();
  S* pw = w.data();
  for_each_entry(x.size(), [=](std::size_t i) {
    pw[i] = alpha * px[i] + beta * py[i];
  });
}

template <typename S>
std::size_t count_nonfinite_impl(std::span<const S> x) {
  const S* px = x.data();
  return fixed_sum<std::size_t>(x.size(), [=](std::size_t i0, std::size_t i1) {
    std::size_t bad = 0;
    for (std::size_t i = i0; i < i1; ++i) {
      if (!std::isfinite(px[i])) ++bad;
    }
    return bad;
  });
}

// --- mgs(): the pipelined MGS pass ------------------------------------------
//
// The three block bodies of one pass.  Each sums [i0, i1) sequentially in
// entry order with the same expressions as dot_impl and axpy_impl, so a
// block partial here is bitwise equal to the partial dot() forms over the
// same (corrected) entries.

/// Sweep 0: q.v and v.v over one block.
template <typename S>
void first_sweep(const S* q, const S* v, std::size_t i0, std::size_t i1,
                 S& qv, S& vv) {
  S sq = S(0);
  S sv = S(0);
  for (std::size_t i = i0; i < i1; ++i) {
    sq += q[i] * v[i];
    sv += v[i] * v[i];
  }
  qv = sq;
  vv = sv;
}

/// Sweep i < k: v -= c*q_prev, then q_next.v over the corrected entries.
template <typename S>
S correct_then_dot(S c, const S* q_prev, const S* q_next, S* v,
                   std::size_t i0, std::size_t i1) {
  S sum = S(0);
  for (std::size_t i = i0; i < i1; ++i) {
    v[i] -= c * q_prev[i];
    sum += q_next[i] * v[i];
  }
  return sum;
}

/// Sweep k: v -= c*q_last, then v.v over the corrected entries.
template <typename S>
S correct_then_norm(S c, const S* q_last, S* v, std::size_t i0,
                    std::size_t i1) {
  S sum = S(0);
  for (std::size_t i = i0; i < i1; ++i) {
    v[i] -= c * q_last[i];
    sum += v[i] * v[i];
  }
  return sum;
}

template <typename S>
OrthoNorms<S> mgs_impl(const BasisViewT<S>& q, std::span<S> v,
                       std::span<S> h, CoefficientHook<S> hook) {
  const std::size_t n = v.size();
  const std::size_t k = q.cols();
  if (q.rows() != n) {
    throw std::invalid_argument("la::mgs: v size must equal basis rows");
  }
  if (h.size() < k) {
    throw std::invalid_argument("la::mgs: coefficient span too small");
  }
  if (k == 0) {
    const S norm = nrm2(std::span<const S>(v));
    return {norm, norm};
  }
  S* pv = v.data();
  const auto col = [&](std::size_t i) { return q.col(i).data(); };
  // Between sweeps: the hook sees (and may mutate) the reduced
  // coefficient, h records it, and the next sweep applies it.
  const auto settle = [&](std::size_t i, S& c) {
    if (hook) hook(i, c);
    h[i] += c;
  };

  OrthoNorms<S> norms;
  if (n <= kSerialMax) {
    S c = S(0);
    S vv = S(0);
    first_sweep(col(0), pv, 0, n, c, vv);
    norms.entry = std::sqrt(vv);
    for (std::size_t i = 0; i < k; ++i) {
      settle(i, c);
      if (i + 1 < k) {
        c = correct_then_dot(c, col(i), col(i + 1), pv, 0, n);
      } else {
        norms.exit = std::sqrt(correct_then_norm(c, col(i), pv, 0, n));
      }
    }
    return norms;
  }

  // fixed_sum's partition and combine, split so that one parallel region
  // runs every sweep and the coefficient protocol runs between them.  The
  // same static schedule hands each thread the same blocks in every sweep.
  const Partition part(n);
  S dots[kMaxBlocks];
  S selfs[kMaxBlocks];
  S c = S(0);
#pragma omp parallel default(shared)
  {
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < part.count; ++b) {
      first_sweep(col(0), pv, part.begin(b), part.end(b), dots[b], selfs[b]);
    }
#pragma omp single
    {
      norms.entry = std::sqrt(combine(selfs, part.count));
      c = combine(dots, part.count);
      settle(0, c);
    }
    for (std::size_t i = 0; i < k; ++i) {
      // Private copy of the settled coefficient: every thread reads it
      // after the single's barrier, and the loop below ends in a barrier
      // before the next single overwrites it.
      const S ci = c;
      if (i + 1 < k) {
#pragma omp for schedule(static)
        for (std::int64_t b = 0; b < part.count; ++b) {
          dots[b] = correct_then_dot(ci, col(i), col(i + 1), pv,
                                     part.begin(b), part.end(b));
        }
#pragma omp single
        {
          c = combine(dots, part.count);
          settle(i + 1, c);
        }
      } else {
#pragma omp for schedule(static)
        for (std::int64_t b = 0; b < part.count; ++b) {
          selfs[b] = correct_then_norm(ci, col(i), pv, part.begin(b),
                                       part.end(b));
        }
#pragma omp single
        norms.exit = std::sqrt(combine(selfs, part.count));
      }
    }
  }
  return norms;
}

} // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  return dot_impl(x, y);
}
float dot(std::span<const float> x, std::span<const float> y) {
  return dot_impl(x, y);
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }
float nrm2(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  axpy_impl(alpha, x, y);
}
void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  axpy_impl(alpha, x, y);
}

void scal(double alpha, std::span<double> x) { scal_impl(alpha, x); }
void scal(float alpha, std::span<float> x) { scal_impl(alpha, x); }

void scal(double alpha, std::span<const double> x, std::span<double> y) {
  scal_into_impl(alpha, x, y);
}
void scal(float alpha, std::span<const float> x, std::span<float> y) {
  scal_into_impl(alpha, x, y);
}

void copy(std::span<const double> x, std::span<double> y) { copy_impl(x, y); }
void copy(std::span<const float> x, std::span<float> y) { copy_impl(x, y); }

void waxpby(double alpha, std::span<const double> x, double beta,
            std::span<const double> y, std::span<double> w) {
  waxpby_impl(alpha, x, beta, y, w);
}
void waxpby(float alpha, std::span<const float> x, float beta,
            std::span<const float> y, std::span<float> w) {
  waxpby_impl(alpha, x, beta, y, w);
}

void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z) {
  require_same_size(x, y, "hadamard");
  require_same_size(x, std::span<const double>(z), "hadamard");
  const double* px = x.data();
  const double* py = y.data();
  double* pz = z.data();
  for_each_entry(x.size(), [=](std::size_t i) { pz[i] = px[i] * py[i]; });
}

bool all_finite(std::span<const double> x) { return count_nonfinite(x) == 0; }
bool all_finite(std::span<const float> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const double> x) {
  return count_nonfinite_impl(x);
}
std::size_t count_nonfinite(std::span<const float> x) {
  return count_nonfinite_impl(x);
}

OrthoNorms<double> mgs(const BasisViewT<double>& q, std::span<double> v,
                       std::span<double> h, CoefficientHook<double> hook) {
  return mgs_impl(q, v, h, hook);
}
OrthoNorms<float> mgs(const BasisViewT<float>& q, std::span<float> v,
                      std::span<float> h, CoefficientHook<float> hook) {
  return mgs_impl(q, v, h, hook);
}

// --- la::Vector overloads ---------------------------------------------------

double dot(const Vector& x, const Vector& y) { return dot(x.span(), y.span()); }

double nrm2(const Vector& x) { return nrm2(x.span()); }

void axpy(double alpha, const Vector& x, Vector& y) {
  axpy(alpha, x.span(), y.span());
}

void waxpby(double alpha, const Vector& x, double beta, const Vector& y,
            Vector& w) {
  require_same_size(x.span(), y.span(), "waxpby");
  w.resize(x.size());
  waxpby(alpha, x.span(), beta, y.span(), w.span());
}

void scal(double alpha, Vector& x) { scal(alpha, x.span()); }

void copy(const Vector& x, Vector& y) {
  y.resize(x.size());
  copy(x.span(), y.span());
}

void hadamard(const Vector& x, const Vector& y, Vector& z) {
  require_same_size(x.span(), y.span(), "hadamard");
  z.resize(x.size());
  hadamard(x.span(), y.span(), z.span());
}

bool all_finite(const Vector& x) { return all_finite(x.span()); }

std::size_t count_nonfinite(const Vector& x) {
  return count_nonfinite(x.span());
}

} // namespace sdcgmres::la
