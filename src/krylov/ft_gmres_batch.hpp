#pragma once
/// \file ft_gmres_batch.hpp
/// \brief Multi-RHS FT-GMRES: B independent nested solves in lockstep.
///
/// The paper's headline experiment runs thousands of independent FT-GMRES
/// solves of the SAME matrix (one per injection site).  Run solo, every
/// operator product pays a full matrix stream; run B solves in lockstep,
/// the B products of each step fuse into ONE apply_block/SpMM that
/// streams the matrix once, cutting the matrix traffic to ~1/B (see
/// CsrMatrix::spmm).  Both nesting levels advance in lockstep:
///
///   * the OUTER iteration interleaves B krylov::FgmresEngine instances
///     (one fused product per outer iteration), and
///   * the INNER (unreliable) GMRES solves interleave B
///     krylov::GmresEngine instances, so each inner Arnoldi iteration --
///     and each inner cycle-start residual -- is one fused product too.
///     At the paper's 25 fixed inner iterations per outer step ~25/26 of
///     all products happen inside the inner solves, so this is where the
///     batching win actually lives.
///
/// This is the ONE FT-GMRES driver: krylov::ft_gmres() is a batch of
/// one, in which every one-column step applies directly with no staging.
///
/// Determinism contract: every instance advances through EXACTLY the
/// floating-point operation sequence of its batch-of-one run -- the fused
/// products' columns are bitwise equal to per-column apply(), and
/// instances share no mutable state.  Inner hook streams (fault
/// campaigns, detectors), Hessenberg/QR factorizations, and records stay
/// strictly per-instance.  An instance that terminates early -- at either
/// level: a detector-aborted or broken-down inner solve, a
/// converged/rank-deficient/spent outer -- simply drops out of its block;
/// the survivors' packed columns are unchanged values, so their iterate
/// streams are unperturbed.  This is what lets the injection sweep assert
/// batch=B results are bitwise identical to batch=1.

#include <cstddef>
#include <span>
#include <vector>

#include "krylov/ft_gmres.hpp"
#include "krylov/workspace.hpp"
#include "la/vector.hpp"

namespace sdcgmres::krylov {

/// Solve A x_i = b_i for every right-hand side in \p bs with FT-GMRES
/// from zero initial guesses (or from recorded boundaries, see \p starts),
/// advancing all instances in lockstep (one fused operator application
/// per outer iteration).  Results arrive in input order and are bitwise
/// identical to ft_gmres() run per rhs.
///
/// \param inner_hooks per-instance hooks observing/corrupting the
///        unreliable inner solves (the sweep engine passes one fault
///        campaign + detector chain per injection site); empty = no
///        hooks, otherwise must match \p bs in size (nullptr entries
///        allowed).
/// \param ws optional reusable workspace.
/// \param starts empty (every instance starts from zero) or one start per
///        instance: an instance with a trajectory resumes at its boundary
///        (its hook must already account for the skipped prefix, e.g. a
///        fault campaign seeded with FtGmresTrajectory::hook_iterations)
///        and returns the same result as its solve from zero.  Once its
///        `settled` predicate holds at a later outer boundary and its outer
///        state is bitwise that recorded boundary, it also stops there and
///        takes the rest of its result from the recording (see
///        FtGmresStart), again the result of its solve from zero.
[[nodiscard]] std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, std::span<const std::span<const double>> bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks = {},
    FtGmresWorkspace* ws = nullptr, std::span<const FtGmresStart> starts = {});

/// Convenience overload for owning right-hand sides.
[[nodiscard]] std::vector<FtGmresResult> ft_gmres_batch(
    const LinearOperator& A, const std::vector<la::Vector>& bs,
    const FtGmresOptions& opts, std::span<ArnoldiHook* const> inner_hooks = {},
    FtGmresWorkspace* ws = nullptr);

} // namespace sdcgmres::krylov
