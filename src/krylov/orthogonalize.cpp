#include "krylov/orthogonalize.hpp"

#include <stdexcept>
#include <vector>

#include "la/blas1.hpp"
#include "la/blas2.hpp"

namespace sdcgmres::krylov {

const char* to_string(Orthogonalization kind) noexcept {
  switch (kind) {
    case Orthogonalization::MGS: return "mgs";
    case Orthogonalization::CGS: return "cgs";
    case Orthogonalization::CGS2: return "cgs2";
  }
  return "unknown";
}

namespace {

void mgs_pass(std::span<const la::Vector> q, std::size_t k, la::Vector& v,
              std::span<double> h, ArnoldiHook* hook,
              const ArnoldiContext& ctx, bool fire_hook) {
  for (std::size_t i = 0; i < k; ++i) {
    double hij = la::dot(q[i], v);
    if (fire_hook && hook != nullptr) {
      hook->on_projection_coefficient(ctx, i, k, hij);
    }
    h[i] += hij;
    la::axpy(-hij, q[i], v);
  }
}

void cgs_pass(std::span<const la::Vector> q, std::size_t k, la::Vector& v,
              std::span<double> h, ArnoldiHook* hook,
              const ArnoldiContext& ctx, bool fire_hook) {
  std::vector<double> coeffs(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double hij = la::dot(q[i], v);
    if (fire_hook && hook != nullptr) {
      hook->on_projection_coefficient(ctx, i, k, hij);
    }
    coeffs[i] = hij;
  }
  for (std::size_t i = 0; i < k; ++i) {
    h[i] += coeffs[i];
    la::axpy(-coeffs[i], q[i], v);
  }
}

// --- Fused kernels over the contiguous basis -------------------------------
//
// One template over the plane's scalar S (double, or float for the
// mixed-precision inner plane), with all arithmetic in S.  The hook
// protocol is double-typed: each first-pass coefficient is widened for the
// hook and the (possibly mutated) value narrowed back before it is applied,
// which is the identity when S is double.

template <typename S>
void hook_coefficient(ArnoldiHook& hook, const ArnoldiContext& ctx,
                      std::size_t i, std::size_t k, S& coeff) {
  double wide = static_cast<double>(coeff);
  hook.on_projection_coefficient(ctx, i, k, wide);
  coeff = static_cast<S>(wide);
}

/// MGS over the arena: each column streams through the fused dot_axpy
/// kernel (one parallel region per column instead of two); the hook's
/// mutation point sits between the dot and the correction, exactly as in
/// the reference path.
template <typename S>
void mgs_pass_fused(const la::KrylovBasisT<S>& q, std::size_t k,
                    std::span<S> v, std::span<S> h, ArnoldiHook* hook,
                    const ArnoldiContext& ctx) {
  for (std::size_t i = 0; i < k; ++i) {
    S hij;
    if (hook != nullptr) {
      hij = la::dot_axpy(q.col(i), v, [&](S& c) {
        hook_coefficient(*hook, ctx, i, k, c);
      });
    } else {
      hij = la::dot_axpy(q.col(i), v);
    }
    h[i] += hij;
  }
}

/// One classical Gram-Schmidt pass over the arena: coefficients via a
/// single gemv_t over the basis block, correction via a single gemv.
template <typename S>
void cgs_pass_fused(const la::KrylovBasisT<S>& q, std::size_t k,
                    std::span<S> v, std::span<S> h, ArnoldiHook* hook,
                    const ArnoldiContext& ctx) {
  std::vector<S> coeffs(k, S(0));
  const la::BasisViewT<S> block = q.view(k);
  la::gemv_t(S(1), block, v, S(0), coeffs);
  if (hook != nullptr) {
    // All first-pass coefficients are dot products against the SAME
    // (untouched) v, so firing after the blocked projection preserves the
    // reference path's (i, mgs_steps) sequence.
    for (std::size_t i = 0; i < k; ++i) {
      hook_coefficient(*hook, ctx, i, k, coeffs[i]);
    }
  }
  for (std::size_t i = 0; i < k; ++i) h[i] += coeffs[i];
  la::gemv(S(-1), block, coeffs, S(1), v);
}

void validate_args(std::size_t basis_cols, std::size_t k,
                   std::size_t h_size) {
  if (basis_cols < k) {
    throw std::invalid_argument("orthogonalize: fewer basis vectors than k");
  }
  if (h_size < k) {
    throw std::invalid_argument("orthogonalize: coefficient span too small");
  }
}

template <typename S>
void orthogonalize_fused(Orthogonalization kind, const la::KrylovBasisT<S>& q,
                         std::size_t k, std::span<S> v, std::span<S> h,
                         ArnoldiHook* hook, const ArnoldiContext& ctx) {
  validate_args(q.cols(), k, h.size());
  if (v.size() != q.rows()) {
    throw std::invalid_argument("orthogonalize: v size must equal basis rows");
  }
  for (std::size_t i = 0; i < k; ++i) h[i] = S(0);
  switch (kind) {
    case Orthogonalization::MGS:
      mgs_pass_fused(q, k, v, h, hook, ctx);
      break;
    case Orthogonalization::CGS:
      cgs_pass_fused(q, k, v, h, hook, ctx);
      break;
    case Orthogonalization::CGS2:
      cgs_pass_fused(q, k, v, h, hook, ctx);
      cgs_pass_fused(q, k, v, h, /*hook=*/nullptr, ctx);
      break;
  }
}

} // namespace

void orthogonalize(Orthogonalization kind, std::span<const la::Vector> q,
                   std::size_t k, la::Vector& v, std::span<double> h,
                   ArnoldiHook* hook, const ArnoldiContext& ctx) {
  validate_args(q.size(), k, h.size());
  for (std::size_t i = 0; i < k; ++i) h[i] = 0.0;
  switch (kind) {
    case Orthogonalization::MGS:
      mgs_pass(q, k, v, h, hook, ctx, /*fire_hook=*/true);
      break;
    case Orthogonalization::CGS:
      cgs_pass(q, k, v, h, hook, ctx, /*fire_hook=*/true);
      break;
    case Orthogonalization::CGS2:
      cgs_pass(q, k, v, h, hook, ctx, /*fire_hook=*/true);
      cgs_pass(q, k, v, h, /*hook=*/nullptr, ctx, /*fire_hook=*/false);
      break;
  }
}

void orthogonalize(Orthogonalization kind, const la::KrylovBasis& q,
                   std::size_t k, std::span<double> v, std::span<double> h,
                   ArnoldiHook* hook, const ArnoldiContext& ctx) {
  orthogonalize_fused(kind, q, k, v, h, hook, ctx);
}

void orthogonalize(Orthogonalization kind, const la::KrylovBasisT<float>& q,
                   std::size_t k, std::span<float> v, std::span<float> h,
                   ArnoldiHook* hook, const ArnoldiContext& ctx) {
  orthogonalize_fused(kind, q, k, v, h, hook, ctx);
}

} // namespace sdcgmres::krylov
