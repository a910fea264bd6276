#include "la/blas1.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sdcgmres::la {

namespace {

/// Kernels up to this length run serially (no parallel region): the plain
/// sequential loop.
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

template <typename S>
void axpy_impl(S alpha, std::span<const S> x, std::span<S> y) {
  require_same_size(x, std::span<const S>(y), "axpy");
  const auto n = static_cast<std::int64_t>(x.size());
  const S* px = x.data();
  S* py = y.data();
#pragma omp parallel for schedule(static) if (x.size() > kSerialMax)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] += alpha * px[i];
  }
}

template <typename S>
void scal_impl(S alpha, std::span<S> x) {
  const auto n = static_cast<std::int64_t>(x.size());
  S* px = x.data();
#pragma omp parallel for schedule(static) if (x.size() > kSerialMax)
  for (std::int64_t i = 0; i < n; ++i) {
    px[i] *= alpha;
  }
}

template <typename S>
void copy_impl(std::span<const S> x, std::span<S> y) {
  require_same_size(x, std::span<const S>(y), "copy");
  const auto n = static_cast<std::int64_t>(x.size());
  const S* px = x.data();
  S* py = y.data();
#pragma omp parallel for schedule(static) if (x.size() > kSerialMax)
  for (std::int64_t i = 0; i < n; ++i) {
    py[i] = px[i];
  }
}

template <typename S>
void waxpby_impl(S alpha, std::span<const S> x, S beta,
                 std::span<const S> y, std::span<S> w) {
  require_same_size(x, y, "waxpby");
  require_same_size(x, std::span<const S>(w), "waxpby");
  const auto n = static_cast<std::int64_t>(x.size());
  const S* px = x.data();
  const S* py = y.data();
  S* pw = w.data();
#pragma omp parallel for schedule(static) if (x.size() > kSerialMax)
  for (std::int64_t i = 0; i < n; ++i) {
    pw[i] = alpha * px[i] + beta * py[i];
  }
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

template <typename S>
S dot_axpy_impl(std::span<const S> x, std::span<S> y,
                const std::function<void(S&)>* adjust) {
  require_same_size(x, std::span<const S>(y), "dot_axpy");
  const S* px = x.data();
  S* py = y.data();
  const auto dot_block = [=](std::size_t i0, std::size_t i1) {
    S sum = S(0);
    for (std::size_t i = i0; i < i1; ++i) sum += px[i] * py[i];
    return sum;
  };
  const auto axpy_block = [=](S h, std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) py[i] -= h * px[i];
  };
  if (x.size() <= kSerialMax) {
    S h = dot_block(0, x.size());
    if (adjust != nullptr) (*adjust)(h);
    axpy_block(h, 0, x.size());
    return h;
  }
  // fixed_sum's partition and combine, split so that the hook runs between
  // the dot and the correction inside one parallel region.
  const Partition part(x.size());
  S partials[kMaxBlocks];
  S h = S(0);
#pragma omp parallel default(shared)
  {
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < part.count; ++b) {
      partials[b] = dot_block(part.begin(b), part.end(b));
    }
    // The partials are complete at the barrier above; the hook point runs
    // exactly once, between the dot and the correction, and may mutate h.
#pragma omp single
    {
      h = combine(partials, part.count);
      if (adjust != nullptr) (*adjust)(h);
    }
    // Private copy: h is shared in the outlined region, and a shared
    // variable read inside the loop defeats register allocation.  The same
    // static block schedule hands each thread the blocks it just read.
    const S hh = h;
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < part.count; ++b) {
      axpy_block(hh, part.begin(b), part.end(b));
    }
  }
  return h;
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
  const auto n = static_cast<std::int64_t>(x.size());
  const double* px = x.data();
  const double* py = y.data();
  double* pz = z.data();
#pragma omp parallel for schedule(static) if (x.size() > kSerialMax)
  for (std::int64_t i = 0; i < n; ++i) {
    pz[i] = px[i] * py[i];
  }
}

bool all_finite(std::span<const double> x) { return count_nonfinite(x) == 0; }
bool all_finite(std::span<const float> x) { return count_nonfinite(x) == 0; }

std::size_t count_nonfinite(std::span<const double> x) {
  return count_nonfinite_impl(x);
}
std::size_t count_nonfinite(std::span<const float> x) {
  return count_nonfinite_impl(x);
}

double dot_axpy(std::span<const double> x, std::span<double> y) {
  return dot_axpy_impl<double>(x, y, nullptr);
}
float dot_axpy(std::span<const float> x, std::span<float> y) {
  return dot_axpy_impl<float>(x, y, nullptr);
}

double dot_axpy(std::span<const double> x, std::span<double> y,
                const std::function<void(double&)>& adjust) {
  return dot_axpy_impl(x, y, &adjust);
}
float dot_axpy(std::span<const float> x, std::span<float> y,
               const std::function<void(float&)>& adjust) {
  return dot_axpy_impl(x, y, &adjust);
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
