#pragma once
/// \file oracle.hpp
/// \brief The correctness oracle behind the benchmark's failed count:
/// an independent double-precision residual for solves, bitwise
/// comparison for sweep points, byte comparison for service results.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "experiment/sweep.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// ||b - A x|| / ||b|| in double, serial sums (independent of the
/// solver's own residual).
inline double relative_residual(const sdcgmres::sparse::CsrMatrix& A,
                                std::span<const double> b,
                                std::span<const double> x,
                                std::vector<double>* r_out = nullptr) {
  std::vector<double> r(A.rows());
  A.spmv(x, std::span<double>(r));
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = b[i] - r[i];
    rr += r[i] * r[i];
    bb += b[i] * b[i];
  }
  if (r_out) *r_out = std::move(r);
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

/// A solve passes when it converged and the independent residual meets
/// the tolerance.
inline bool solve_ok(bool converged, double rel_residual, double tol) {
  return converged && std::isfinite(rel_residual) && rel_residual <= tol;
}

/// FNV-1a over the bit patterns of \p v.
inline std::uint64_t digest(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Sweep results agree bitwise: baseline fields and every point.
inline bool sweep_identical(const sdcgmres::experiment::SweepResult& a,
                            const sdcgmres::experiment::SweepResult& b) {
  return a.baseline_outer == b.baseline_outer &&
         a.baseline_total_inner == b.baseline_total_inner &&
         a.baseline_converged == b.baseline_converged &&
         a.baseline_global_syncs == b.baseline_global_syncs &&
         a.points == b.points;
}

/// A service result passes when its bytes equal the in-process document.
inline bool document_ok(const std::string& expected, const std::string& got) {
  return expected == got;
}

} // namespace perfbench
