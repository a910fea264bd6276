#pragma once
/// \file artifacts.hpp
/// \brief Typed builders over the ArtifactCache for the job-shaped
/// artifacts the scheduler reuses across tenants.
///
/// Keys are derived from the registry name plus its arguments -- exactly
/// the spec keys that feed the corresponding builder -- so two jobs that
/// would construct the same object share one cache entry, and two jobs
/// that differ in ANY input (n=40 vs n=41, seed=1 vs seed=2) never
/// collide.  Byte sizes are the artifacts' resident footprints, computed
/// from the CSR shape (values + col_idx + row_ptr at their stored
/// widths), so the cache's byte budget meaningfully bounds memory.

#include <memory>
#include <string>

#include "experiment/scenario.hpp"
#include "experiment/scenario_spec.hpp"
#include "krylov/backend.hpp"
#include "krylov/precond.hpp"
#include "service/cache.hpp"
#include "sparse/csr.hpp"

namespace sdcgmres::service {

/// Resident bytes of a double/size_t CSR matrix (values + col_idx +
/// row_ptr).
[[nodiscard]] std::size_t csr_bytes(const sparse::CsrMatrix& A);

/// Cache key of the problem a spec's matrix/rhs keys describe ("problem|"
/// plus every problem-shaping key=value present in \p spec).
[[nodiscard]] std::string problem_cache_key(
    const experiment::ScenarioSpec& spec);

/// Matrix + right-hand side (build_problem on a miss).
[[nodiscard]] std::shared_ptr<const experiment::ScenarioProblem>
cached_problem(ArtifactCache& cache, const experiment::ScenarioSpec& spec);

/// Detector-bound calibration input: ||A||_F of the spec's matrix (what
/// bound=auto seeds the Hessenberg-bound detector with).
[[nodiscard]] std::shared_ptr<const double> cached_calibration(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem);

/// The spec's preconditioner, factored once and shared (apply() is
/// const).  Returns nullptr for precond=none.
[[nodiscard]] std::shared_ptr<const krylov::Preconditioner>
cached_preconditioner(ArtifactCache& cache,
                      const experiment::ScenarioSpec& spec,
                      const experiment::ScenarioProblem& problem);

/// A^T of the spec's matrix (transpose-structure consumers, e.g. the
/// fused normal-equations calibration path).
[[nodiscard]] std::shared_ptr<const sparse::CsrMatrix> cached_transpose(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem);

/// The spec's execution backend (`backend=` key), assembled once per
/// matrix+backend and shared across jobs.  `csr` (the default) carries no
/// assembled state and is returned uncached; `sell`/`auto` cache the
/// sorted SELL structure at its resident footprint so the byte budget
/// sees it.  The result feeds ScenarioSeams::backend.
[[nodiscard]] std::shared_ptr<const krylov::MatrixBackend> cached_backend(
    ArtifactCache& cache, const experiment::ScenarioSpec& spec,
    const experiment::ScenarioProblem& problem);

} // namespace sdcgmres::service
