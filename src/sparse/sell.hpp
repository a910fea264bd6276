#pragma once
/// \file sell.hpp
/// \brief SELL-C-sigma sparse storage: the SIMD-friendly execution format
/// behind the `backend=sell` matrix plane.
///
/// CSR's inner loop strides an irregular row; SELL-C-sigma (sliced ELL
/// with sorting) regroups the matrix into chunks of C consecutive rows,
/// stores each chunk column-major and padded to the chunk's widest row,
/// and sorts rows by descending length inside windows of sigma chunks so
/// chunks are packed with similarly-long rows.  The kernel's inner loop
/// is then a unit-stride walk over C rows at once -- the shape compilers
/// vectorize -- at the cost of storing padding entries.
///
/// Layout, built from a validated CsrMatrix:
///
///   * perm()[s] is the original row stored in slot s; inv_perm() is its
///     inverse.  Sorting is windowed (sigma chunks of C rows each) and
///     STABLE, so the permutation is deterministic and rows never leave
///     their window.  Because every chunk is a contiguous slice of one
///     sorted window, slot lengths are non-increasing inside each chunk.
///   * chunk_ptr()[c] is the entry offset of chunk c; the chunk's padded
///     width is (chunk_ptr()[c+1] - chunk_ptr()[c]) / C.
///   * Entry j of slot r in chunk c lives at chunk_ptr()[c] + j*C + r in
///     values()/col_idx(): column-major inside the chunk, rows
///     left-aligned.  Entries keep their CSR (ascending-column) order
///     along j.
///   * Padding slots hold value +0.0 and column 0 for alignment, but the
///     kernels NEVER read them: because slot lengths are non-increasing
///     inside a chunk, the rows still active at chunk column j are a
///     prefix, and the kernel shrinks its row loop to that prefix
///     ("active-prefix" loop).  Padding is therefore provably inert --
///     even 0.0 * Inf or 0.0 * NaN can never contaminate a sum, and a
///     row's partial sums accumulate in exactly CSR spmv's order, making
///     every result bitwise identical to CSR's (the backend acceptance
///     contract).  Empty rows produce the same +0.0 a CSR row sum does.
///
/// Parallelism: OpenMP over chunks.  Each chunk scatters to a disjoint
/// set of output rows (its own perm() slots), so results are bitwise
/// invariant under the thread count.
///
/// SellMatrixT<S, I> is the narrowed mirror (float values and/or int32
/// indices) for the mixed-precision inner plane, mirroring CsrMatrixT:
/// construction from a SellMatrix validates that every index-typed
/// quantity (rows, cols, and the padded entry count, which chunk_ptr
/// entries reach) fits I and throws std::overflow_error otherwise.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "la/block.hpp"
#include "la/krylov_basis.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::sparse {

namespace detail {

/// Hard cap on the chunk height: bounds the generic kernels' stack
/// accumulators (C doubles per right-hand side per chunk).
inline constexpr std::size_t kSellMaxChunk = 256;
inline constexpr std::size_t kSellDefaultChunk = 8;

/// SELL spmv core shared by every SellStorage instantiation.  C0 is the
/// compile-time chunk height (0 selects the runtime-\p chunk generic
/// path); \p len holds the non-increasing slot lengths per chunk and the
/// active-prefix loop guarantees padding slots are never read.
template <std::size_t C0, typename S, typename I>
inline void sell_spmv_core(std::size_t rows, std::size_t n_chunks,
                           std::size_t chunk, const I* chunk_ptr, const I* len,
                           const I* perm, const S* values, const I* col_idx,
                           const S* x, S* y) {
  const auto nc = static_cast<std::int64_t>(n_chunks);
#pragma omp parallel for schedule(static) if (rows > 2048)
  for (std::int64_t cc = 0; cc < nc; ++cc) {
    const auto c = static_cast<std::size_t>(cc);
    const std::size_t C = C0 != 0 ? C0 : chunk;
    const std::size_t base = c * C;
    const std::size_t nrows = std::min(C, rows - base);
    const auto off = static_cast<std::size_t>(chunk_ptr[c]);
    const std::size_t width =
        (static_cast<std::size_t>(chunk_ptr[c + 1]) - off) / C;
    const I* l = len + base;
    S sum[C0 != 0 ? C0 : kSellMaxChunk];
    for (std::size_t r = 0; r < nrows; ++r) sum[r] = S(0);
    std::size_t active = nrows;
    for (std::size_t j = 0; j < width; ++j) {
      while (active > 0 && static_cast<std::size_t>(l[active - 1]) <= j) {
        --active;
      }
      const S* v = values + off + j * C;
      const I* ci = col_idx + off + j * C;
      for (std::size_t r = 0; r < active; ++r) {
        sum[r] += v[r] * x[static_cast<std::size_t>(ci[r])];
      }
    }
    for (std::size_t r = 0; r < nrows; ++r) {
      y[static_cast<std::size_t>(perm[base + r])] = sum[r];
    }
  }
}

/// SELL SpMM core: same chunk walk as sell_spmv_core with CsrMatrix
/// spmm's 4-wide right-hand-side blocking.  Per output column the
/// accumulation order equals sell_spmv_core's (ascending j), so each
/// column is bitwise identical to a separate spmv of that column.
template <std::size_t C0, typename S, typename I>
inline void sell_spmm_core(std::size_t rows, std::size_t n_chunks,
                           std::size_t chunk, const I* chunk_ptr, const I* len,
                           const I* perm, const S* values, const I* col_idx,
                           std::size_t ncols, const S* x, std::size_t ldx,
                           S* y, std::size_t ldy) {
  const auto nc = static_cast<std::int64_t>(n_chunks);
  constexpr std::size_t kAcc = C0 != 0 ? C0 : kSellMaxChunk;
  for (std::size_t c0 = 0; c0 < ncols; c0 += 4) {
    const std::size_t bw = std::min<std::size_t>(4, ncols - c0);
    const S* x0 = x + c0 * ldx;
    S* y0 = y + c0 * ldy;
    if (bw == 4) {
#pragma omp parallel for schedule(static) if (rows > 2048)
      for (std::int64_t cc = 0; cc < nc; ++cc) {
        const auto c = static_cast<std::size_t>(cc);
        const std::size_t C = C0 != 0 ? C0 : chunk;
        const std::size_t base = c * C;
        const std::size_t nrows = std::min(C, rows - base);
        const auto off = static_cast<std::size_t>(chunk_ptr[c]);
        const std::size_t width =
            (static_cast<std::size_t>(chunk_ptr[c + 1]) - off) / C;
        const I* l = len + base;
        S s0[kAcc], s1[kAcc], s2[kAcc], s3[kAcc];
        for (std::size_t r = 0; r < nrows; ++r) {
          s0[r] = S(0);
          s1[r] = S(0);
          s2[r] = S(0);
          s3[r] = S(0);
        }
        std::size_t active = nrows;
        for (std::size_t j = 0; j < width; ++j) {
          while (active > 0 && static_cast<std::size_t>(l[active - 1]) <= j) {
            --active;
          }
          const S* v = values + off + j * C;
          const I* ci = col_idx + off + j * C;
          for (std::size_t r = 0; r < active; ++r) {
            const S a = v[r];
            const auto jj = static_cast<std::size_t>(ci[r]);
            s0[r] += a * x0[jj];
            s1[r] += a * x0[jj + ldx];
            s2[r] += a * x0[jj + 2 * ldx];
            s3[r] += a * x0[jj + 3 * ldx];
          }
        }
        for (std::size_t r = 0; r < nrows; ++r) {
          const auto i = static_cast<std::size_t>(perm[base + r]);
          y0[i] = s0[r];
          y0[i + ldy] = s1[r];
          y0[i + 2 * ldy] = s2[r];
          y0[i + 3 * ldy] = s3[r];
        }
      }
    } else {
#pragma omp parallel for schedule(static) if (rows > 2048)
      for (std::int64_t cc = 0; cc < nc; ++cc) {
        const auto c = static_cast<std::size_t>(cc);
        const std::size_t C = C0 != 0 ? C0 : chunk;
        const std::size_t base = c * C;
        const std::size_t nrows = std::min(C, rows - base);
        const auto off = static_cast<std::size_t>(chunk_ptr[c]);
        const std::size_t width =
            (static_cast<std::size_t>(chunk_ptr[c + 1]) - off) / C;
        const I* l = len + base;
        S s[4][kAcc];
        for (std::size_t b = 0; b < bw; ++b) {
          for (std::size_t r = 0; r < nrows; ++r) s[b][r] = S(0);
        }
        std::size_t active = nrows;
        for (std::size_t j = 0; j < width; ++j) {
          while (active > 0 && static_cast<std::size_t>(l[active - 1]) <= j) {
            --active;
          }
          const S* v = values + off + j * C;
          const I* ci = col_idx + off + j * C;
          for (std::size_t r = 0; r < active; ++r) {
            const S a = v[r];
            const auto jj = static_cast<std::size_t>(ci[r]);
            for (std::size_t b = 0; b < bw; ++b) s[b][r] += a * x0[jj + b * ldx];
          }
        }
        for (std::size_t r = 0; r < nrows; ++r) {
          const auto i = static_cast<std::size_t>(perm[base + r]);
          for (std::size_t b = 0; b < bw; ++b) y0[i + b * ldy] = s[b][r];
        }
      }
    }
  }
}

/// Storage and kernels shared by SellMatrix and its narrowed mirrors
/// SellMatrixT<S, I>: the chunked arrays (see the file comment for the
/// layout) plus the spmv/spmm entry points over the shared cores above,
/// dispatched once on the chunk height.
template <typename S, typename I>
class SellStorage {
public:
  using scalar_type = S;
  using index_type = I;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Stored nonzeros of the SOURCE matrix (excludes padding).
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
  /// Padded entry slots actually stored (values().size()): what the
  /// kernels stream, and what byte accounting must count.
  [[nodiscard]] std::size_t stored() const noexcept { return values_.size(); }
  [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }
  [[nodiscard]] std::size_t n_chunks() const noexcept { return n_chunks_; }

  [[nodiscard]] const std::vector<I>& chunk_ptr() const noexcept {
    return chunk_ptr_;
  }
  /// Per-slot row lengths (n_chunks()*chunk() entries, non-increasing
  /// inside each chunk; phantom slots past rows() have length 0).
  [[nodiscard]] const std::vector<I>& slot_lengths() const noexcept {
    return len_;
  }
  /// perm()[s]: original row held by slot s.
  [[nodiscard]] const std::vector<I>& perm() const noexcept { return perm_; }
  [[nodiscard]] const std::vector<S>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] const std::vector<I>& col_idx() const noexcept {
    return col_idx_;
  }

  /// Index-typed slots the kernels stream per matrix pass: padded column
  /// indices + chunk_ptr + slot lengths + the scatter permutation.  The
  /// operator's index-byte accounting multiplies this by the index width.
  [[nodiscard]] std::size_t index_slots() const noexcept {
    return col_idx_.size() + chunk_ptr_.size() + len_.size() + perm_.size();
  }

  /// y := A*x, the span core (same contract as CsrMatrix::spmv: exact
  /// sizes, no aliasing).  Results are bitwise identical to CSR's spmv at
  /// the same scalar, at any thread count.
  void spmv(std::span<const S> x, std::span<S> y) const {
    if (x.size() != cols_) {
      throw std::invalid_argument("SellMatrix::spmv: x size mismatch");
    }
    if (y.size() != rows_) {
      throw std::invalid_argument("SellMatrix::spmv: y size mismatch");
    }
    with_chunk([&](auto c0) {
      sell_spmv_core<decltype(c0)::value, S, I>(
          rows_, n_chunks_, chunk_, chunk_ptr_.data(), len_.data(),
          perm_.data(), values_.data(), col_idx_.data(), x.data(), y.data());
    });
  }

  /// Raw SpMM core over column-major blocks (same contract as
  /// CsrMatrix::spmm); each output column is bitwise identical to a
  /// separate spmv of that column.
  void spmm(std::size_t ncols, const S* x, std::size_t ldx, S* y,
            std::size_t ldy) const {
    if (ncols == 0) return;
    with_chunk([&](auto c0) {
      sell_spmm_core<decltype(c0)::value, S, I>(
          rows_, n_chunks_, chunk_, chunk_ptr_.data(), len_.data(),
          perm_.data(), values_.data(), col_idx_.data(), ncols, x, ldx, y,
          ldy);
    });
  }

  /// Y := A*X over block views (the operator's fused apply_block path).
  void spmm(const la::BasisViewT<S>& x, la::BlockViewT<S> y) const {
    if (x.cols() == 0 && y.cols() == 0) return;
    if (x.rows() != cols_) {
      throw std::invalid_argument("SellMatrix::spmm: X row count mismatch");
    }
    if (y.rows() != rows_ || y.cols() != x.cols()) {
      throw std::invalid_argument("SellMatrix::spmm: Y shape mismatch");
    }
    spmm(x.cols(), x.data(), x.ld(), y.data(), y.ld());
  }

protected:
  SellStorage() = default;
  SellStorage(std::size_t rows, std::size_t cols, std::size_t nnz,
              std::size_t chunk)
      : rows_(rows), cols_(cols), nnz_(nnz), chunk_(chunk) {}
  /// Element-wise converting copy of another instantiation's arrays (the
  /// caller has checked that its shape fits I).
  template <typename S2, typename I2>
  explicit SellStorage(const SellStorage<S2, I2>& src)
      : rows_(src.rows()), cols_(src.cols()), nnz_(src.nnz()),
        chunk_(src.chunk()), n_chunks_(src.n_chunks()),
        chunk_ptr_(src.chunk_ptr().begin(), src.chunk_ptr().end()),
        len_(src.slot_lengths().begin(), src.slot_lengths().end()),
        perm_(src.perm().begin(), src.perm().end()),
        values_(src.values().begin(), src.values().end()),
        col_idx_(src.col_idx().begin(), src.col_idx().end()) {}

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t nnz_ = 0;
  std::size_t chunk_ = kSellDefaultChunk;
  std::size_t n_chunks_ = 0;
  std::vector<I> chunk_ptr_{0};
  std::vector<I> len_;
  std::vector<I> perm_;
  std::vector<S> values_;
  std::vector<I> col_idx_;

private:
  /// Run \p run with the chunk height as a compile-time constant for the
  /// common heights (0 selects the cores' runtime-chunk generic path).
  template <typename Run>
  void with_chunk(Run&& run) const {
    switch (chunk_) {
    case 4: run(std::integral_constant<std::size_t, 4>{}); break;
    case 8: run(std::integral_constant<std::size_t, 8>{}); break;
    case 16: run(std::integral_constant<std::size_t, 16>{}); break;
    case 32: run(std::integral_constant<std::size_t, 32>{}); break;
    default: run(std::integral_constant<std::size_t, 0>{}); break;
    }
  }
};

} // namespace detail

/// Immutable SELL-C-sigma matrix (double values, size_t indices) built
/// from a validated CsrMatrix.  See the file comment for the layout and
/// the padding-inertness argument.
class SellMatrix : public detail::SellStorage<double, std::size_t> {
public:
  static constexpr std::size_t kDefaultChunk = detail::kSellDefaultChunk;
  static constexpr std::size_t kDefaultSigmaChunks = 1;
  static constexpr std::size_t kMaxChunk = detail::kSellMaxChunk;

  SellMatrix() = default;

  /// Convert \p src.  \p chunk is the chunk height C (1..kMaxChunk);
  /// \p sigma_chunks is the sorting-window size in CHUNKS (>= 1), i.e.
  /// rows are length-sorted inside windows of sigma_chunks*chunk rows.
  /// Throws std::invalid_argument on out-of-range geometry.
  explicit SellMatrix(const CsrMatrix& src, std::size_t chunk = kDefaultChunk,
                      std::size_t sigma_chunks = kDefaultSigmaChunks);

  /// stored()/nnz(): the padding overhead factor (1.0 when empty).
  [[nodiscard]] double padding_ratio() const noexcept {
    return nnz_ == 0 ? 1.0
                     : static_cast<double>(stored()) /
                           static_cast<double>(nnz_);
  }

  [[nodiscard]] std::size_t sigma_chunks() const noexcept { return sigma_; }
  /// Padded width of chunk \p c (entries per slot).
  [[nodiscard]] std::size_t chunk_width(std::size_t c) const {
    return (chunk_ptr_.at(c + 1) - chunk_ptr_.at(c)) / chunk_;
  }
  /// inv_perm()[i]: slot holding original row i.
  [[nodiscard]] const std::vector<std::size_t>& inv_perm() const noexcept {
    return inv_perm_;
  }

private:
  std::size_t sigma_ = kDefaultSigmaChunks;
  std::vector<std::size_t> inv_perm_;
};

/// Narrowed SELL mirror with scalar type \p S and index type \p I: the
/// SELL counterpart of CsrMatrixT, built from an assembled SellMatrix so
/// the permutation, chunk geometry, and therefore the accumulation order
/// are IDENTICAL to the source's -- a (double, int32) mirror is bitwise
/// identical to the SellMatrix, and an (S, I) mirror is bitwise
/// identical per column to the same-S CsrMatrixT mirror.
template <typename S, typename I>
class SellMatrixT : public detail::SellStorage<S, I> {
public:
  static_assert(std::is_integral_v<I>, "index type must be integral");

  SellMatrixT() = default;

  /// Narrowing copy.  Throws std::overflow_error when rows, cols, or the
  /// padded entry count (which chunk_ptr entries reach) overflow \p I;
  /// slot lengths and permutation entries are bounded by cols and rows.
  explicit SellMatrixT(const SellMatrix& src)
      : detail::SellStorage<S, I>(fits(src)) {}

private:
  static const SellMatrix& fits(const SellMatrix& src) {
    const auto max_index =
        static_cast<std::size_t>(std::numeric_limits<I>::max());
    if (src.rows() > max_index || src.cols() > max_index ||
        src.stored() > max_index) {
      throw std::overflow_error(
          "SellMatrixT: matrix shape overflows the compressed index type");
    }
    return src;
  }
};

} // namespace sdcgmres::sparse
