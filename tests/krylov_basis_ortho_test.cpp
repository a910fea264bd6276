/// \file krylov_basis_ortho_test.cpp
/// \brief Equivalence and quality tests for the fused contiguous-basis
/// orthogonalization path against the per-vector reference path.
///
/// The SDC framework's injection/detection semantics hinge on the hook
/// observing exactly the same projection coefficients through either path,
/// so the first half of this file asserts bitwise equality of the hook
/// (i, mgs_steps, value) sequences.  The parity cases stay at n <= 4096,
/// where la::dot runs its plain sequential loop and every kind (MGS, CGS,
/// CGS2) matches exactly.  Above that, la::dot sums a fixed block
/// partition that depends only on n: the pipelined MGS kernel (la::mgs)
/// shares it, so MGS stays bitwise identical at every size and OpenMP
/// thread count (the Arnoldi case below runs n = 6400 at 4 threads), while
/// CGS's gemv_t sums each column sequentially and agrees with the
/// reference only to roundoff there.  The second half is the numerical
/// quality property: CGS2 on the contiguous basis must keep basis
/// orthogonality (||Q^T Q - I||_max) no worse than the reference path on
/// the paper's model problems.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "gen/convection_diffusion.hpp"
#include "gen/poisson.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/orthogonalize.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/krylov_basis.hpp"

namespace krylov = sdcgmres::krylov;
namespace gen = sdcgmres::gen;
namespace la = sdcgmres::la;

namespace {

/// Records every coefficient the hook sees; can also corrupt one of them.
class RecordingHook final : public krylov::ArnoldiHook {
public:
  struct Seen {
    std::size_t i;
    std::size_t mgs_steps;
    double value;
  };
  std::vector<Seen> seen;
  std::size_t corrupt_index = SIZE_MAX;
  double corrupt_factor = 1.0;

  void on_projection_coefficient(const krylov::ArnoldiContext&, std::size_t i,
                                 std::size_t mgs_steps, double& h) override {
    seen.push_back({i, mgs_steps, h});
    if (i == corrupt_index) h *= corrupt_factor;
  }
};

la::Vector generic_vector(std::size_t n, double phase) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + phase) +
           0.01 * static_cast<double>(i % 13);
  }
  return v;
}

/// A (k x n) not-necessarily-orthonormal set of directions, materialized
/// both as the per-vector representation and the contiguous arena.
struct TwinBases {
  std::vector<la::Vector> old_q;
  la::KrylovBasis new_q;
};

TwinBases twin_bases(std::size_t n, std::size_t k) {
  TwinBases out;
  out.new_q = la::KrylovBasis(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    la::Vector v = generic_vector(n, 0.3 + 0.9 * static_cast<double>(j));
    la::scal(1.0 / la::nrm2(v), v);
    out.old_q.push_back(v);
    out.new_q.append(v);
  }
  return out;
}

/// Gram-Schmidt-build an orthonormal basis of Krylov type (q_{j+1} from
/// A*q_j) with the REFERENCE orthogonalize path.
std::vector<la::Vector> build_basis_reference(
    const sdcgmres::sparse::CsrMatrix& A, std::size_t k,
    krylov::Orthogonalization kind) {
  const std::size_t n = A.rows();
  std::vector<la::Vector> q;
  la::Vector v0 = generic_vector(n, 0.3);
  la::scal(1.0 / la::nrm2(v0), v0);
  q.push_back(v0);
  std::vector<double> h(k + 1, 0.0);
  for (std::size_t j = 0; j + 1 < k; ++j) {
    la::Vector v(n);
    A.spmv(q[j], v);
    krylov::orthogonalize(kind, q, j + 1, v, h, nullptr, {});
    la::scal(1.0 / la::nrm2(v), v);
    q.push_back(std::move(v));
  }
  return q;
}

/// Same process on the contiguous arena with the fused path.
la::KrylovBasis build_basis_fused(const sdcgmres::sparse::CsrMatrix& A,
                                  std::size_t k,
                                  krylov::Orthogonalization kind) {
  const std::size_t n = A.rows();
  la::KrylovBasis q(n, k);
  la::Vector v0 = generic_vector(n, 0.3);
  la::scal(1.0 / la::nrm2(v0), v0);
  q.append(v0);
  std::vector<double> h(k + 1, 0.0);
  for (std::size_t j = 0; j + 1 < k; ++j) {
    la::Vector v(n);
    A.spmv(q.col(j), v);
    krylov::orthogonalize(kind, q, j + 1, v, h, nullptr, {});
    la::scal(1.0 / la::nrm2(v), v);
    q.append(v.span());
  }
  return q;
}

double defect_of(const std::vector<la::Vector>& q) {
  double worst = 0.0;
  for (std::size_t a = 0; a < q.size(); ++a) {
    for (std::size_t b = a; b < q.size(); ++b) {
      const double target = (a == b) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(la::dot(q[a], q[b]) - target));
    }
  }
  return worst;
}

} // namespace

// --- Coefficient / hook equivalence ----------------------------------------

class OrthoParity : public ::testing::TestWithParam<krylov::Orthogonalization> {
};

/// Both paths must produce bitwise-identical hook sequences and identical
/// total coefficients; the orthogonalized vector agrees to roundoff (the
/// fused correction combines columns in blocks).
TEST_P(OrthoParity, HookSequenceAndCoefficientsMatchReferencePath) {
  const krylov::Orthogonalization kind = GetParam();
  const std::size_t n = 777; // odd (block remainders), below omp threshold
  const std::size_t k = 6;
  const TwinBases tb = twin_bases(n, k);

  la::Vector v_old = generic_vector(n, 5.1);
  la::Vector v_new = v_old;
  std::vector<double> h_old(k, 0.0), h_new(k, 0.0);
  RecordingHook hook_old, hook_new;

  krylov::orthogonalize(kind, tb.old_q, k, v_old, h_old, &hook_old, {});
  krylov::orthogonalize(kind, tb.new_q, k, v_new, h_new, &hook_new, {});

  ASSERT_EQ(hook_old.seen.size(), hook_new.seen.size());
  for (std::size_t s = 0; s < hook_old.seen.size(); ++s) {
    EXPECT_EQ(hook_old.seen[s].i, hook_new.seen[s].i) << "event " << s;
    EXPECT_EQ(hook_old.seen[s].mgs_steps, hook_new.seen[s].mgs_steps)
        << "event " << s;
    EXPECT_EQ(hook_old.seen[s].value, hook_new.seen[s].value)
        << "event " << s << " (hook values must be bitwise identical)";
  }
  for (std::size_t i = 0; i < k; ++i) {
    // MGS totals are bitwise identical (same kernel sequence); CGS2 adds a
    // second-pass correction whose rounding may differ, so allow roundoff.
    EXPECT_NEAR(h_new[i], h_old[i], 1e-13 * (1.0 + std::abs(h_old[i])))
        << "h[" << i << "]";
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v_new[i], v_old[i], 1e-12) << "v[" << i << "]";
  }
}

/// Hook mutations must propagate identically (the paper's injection site:
/// a corrupted coefficient taints everything downstream the same way).
TEST_P(OrthoParity, HookMutationPropagatesIdentically) {
  const krylov::Orthogonalization kind = GetParam();
  const std::size_t n = 333;
  const std::size_t k = 5;
  const TwinBases tb = twin_bases(n, k);

  la::Vector v_old = generic_vector(n, 2.2);
  la::Vector v_new = v_old;
  std::vector<double> h_old(k, 0.0), h_new(k, 0.0);
  RecordingHook hook_old, hook_new;
  hook_old.corrupt_index = 1;
  hook_old.corrupt_factor = 100.0;
  hook_new.corrupt_index = 1;
  hook_new.corrupt_factor = 100.0;

  krylov::orthogonalize(kind, tb.old_q, k, v_old, h_old, &hook_old, {});
  krylov::orthogonalize(kind, tb.new_q, k, v_new, h_new, &hook_new, {});

  ASSERT_EQ(hook_old.seen.size(), hook_new.seen.size());
  for (std::size_t s = 0; s < hook_old.seen.size(); ++s) {
    EXPECT_EQ(hook_old.seen[s].value, hook_new.seen[s].value) << "event " << s;
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(h_new[i], h_old[i], 1e-12 * (1.0 + std::abs(h_old[i])))
        << "h[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OrthoParity,
                         ::testing::Values(krylov::Orthogonalization::MGS,
                                           krylov::Orthogonalization::CGS,
                                           krylov::Orthogonalization::CGS2),
                         [](const auto& info) {
                           return std::string(krylov::to_string(info.param));
                         });

// --- Arnoldi-level hook equivalence ----------------------------------------

/// krylov::arnoldi (now on the fused contiguous path) must drive the hook
/// through the same (i, mgs_steps, value) sequence as a hand-rolled Arnoldi
/// loop over the per-vector reference path: at a serial size, and at
/// n = 6400 (above la::dot's serial threshold) with 4 OpenMP threads.
TEST(ArnoldiHookEquivalence, FusedPathReproducesReferenceSequence) {
  struct Case {
    std::size_t grid;
    int threads; ///< 0 keeps the ambient OpenMP setting
  };
  for (const Case c : {Case{10, 0}, Case{80, 4}}) {
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    if (c.threads > 0) omp_set_num_threads(c.threads);
#endif
    const auto A = gen::poisson2d(c.grid);
    const krylov::CsrOperator op(A);
    const std::size_t m = 8;
    const la::Vector v0 = generic_vector(A.rows(), 0.3);

    RecordingHook hook_new;
    (void)krylov::arnoldi(op, v0, m, krylov::Orthogonalization::MGS,
                          &hook_new);

    // Reference Arnoldi on std::vector<la::Vector>, mirroring the solver
    // loop.
    RecordingHook hook_old;
    std::vector<la::Vector> q;
    la::Vector r = v0;
    la::scal(1.0 / la::nrm2(r), r);
    q.push_back(r);
    std::vector<double> hcol(m + 1, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      la::Vector v(A.rows());
      op.apply(q[j], v);
      const krylov::ArnoldiContext ctx{.solve_index = 0, .iteration = j};
      krylov::orthogonalize(krylov::Orthogonalization::MGS, q, j + 1, v, hcol,
                            &hook_old, ctx);
      const double hnext = la::nrm2(v);
      la::scal(1.0 / hnext, v);
      q.push_back(std::move(v));
    }
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif

    ASSERT_EQ(hook_new.seen.size(), hook_old.seen.size()) << "n=" << A.rows();
    ASSERT_EQ(hook_new.seen.size(), m * (m + 1) / 2);
    for (std::size_t s = 0; s < hook_new.seen.size(); ++s) {
      EXPECT_EQ(hook_new.seen[s].i, hook_old.seen[s].i)
          << "n=" << A.rows() << " event " << s;
      EXPECT_EQ(hook_new.seen[s].mgs_steps, hook_old.seen[s].mgs_steps)
          << "n=" << A.rows() << " event " << s;
      EXPECT_EQ(hook_new.seen[s].value, hook_old.seen[s].value)
          << "n=" << A.rows() << " event " << s;
    }
  }
}

// --- Numerical quality property --------------------------------------------

/// CGS2 on the contiguous basis must produce basis orthogonality no worse
/// than the per-vector path (up to a small slack for reordered correction
/// rounding) on the paper's model problems.
TEST(OrthoQuality, Cgs2OnArenaNoWorseThanReferenceOnModelProblems) {
  struct Case {
    const char* name;
    sdcgmres::sparse::CsrMatrix matrix;
  };
  Case cases[] = {
      {"poisson2d(12)", gen::poisson2d(12)},
      {"convection_diffusion2d(12, 20, 5)",
       gen::convection_diffusion2d(12, 20.0, 5.0)},
  };
  const std::size_t k = 20;
  for (const auto& c : cases) {
    const auto old_q =
        build_basis_reference(c.matrix, k, krylov::Orthogonalization::CGS2);
    const auto new_q =
        build_basis_fused(c.matrix, k, krylov::Orthogonalization::CGS2);
    const double old_defect = defect_of(old_q);
    const double new_defect = la::orthonormality_defect(new_q.view());
    EXPECT_LE(new_defect, old_defect * 4.0 + 1e-14)
        << c.name << ": fused defect " << new_defect << " vs reference "
        << old_defect;
    // Both must be at machine-precision quality for CGS2.
    EXPECT_LT(new_defect, 1e-13) << c.name;
  }
}

/// Same property for MGS (the paper's default), which shares every kernel
/// with the reference path and must match its quality exactly.
TEST(OrthoQuality, MgsOnArenaMatchesReferenceOnModelProblems) {
  const auto A = gen::poisson2d(12);
  const std::size_t k = 20;
  const auto old_q = build_basis_reference(A, k, krylov::Orthogonalization::MGS);
  const auto new_q = build_basis_fused(A, k, krylov::Orthogonalization::MGS);
  const double old_defect = defect_of(old_q);
  const double new_defect = la::orthonormality_defect(new_q.view());
  EXPECT_EQ(new_defect, old_defect)
      << "MGS shares the exact kernel sequence; defects must agree";
}
