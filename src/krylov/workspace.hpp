#pragma once
/// \file workspace.hpp
/// \brief Check-out-able solver workspaces for the Krylov layer.
///
/// A KrylovWorkspace bundles everything one GMRES/FGMRES instance reuses
/// across solves: the la-layer span arena (basis, directions, scratch,
/// Hessenberg column) and the projected-problem QR factorization.  After
/// the first solve of a given shape, every further solve through the same
/// workspace performs no heap allocation on the iteration path.
///
/// Templated on the scalar type like the la arenas underneath: the
/// reliable plane checks out the double instantiation (aliased
/// KrylovWorkspace), the mixed-precision inner engines check out
/// KrylovWorkspaceT<float>.
///
/// FT-GMRES nests two solvers -- the reliable outer FGMRES and the faulty
/// inner GMRES called once per outer iteration -- whose live ranges
/// overlap, so each FT-GMRES instance checks out one slot per nesting
/// level (plus a float inner arena for precision=float configurations).
/// An FtGmresWorkspace serves the one FT-GMRES driver, which runs a solo
/// solve as a lockstep batch of one: it holds one such slot per instance,
/// the staging blocks of the fused operator applications (reserved only
/// for batches of more than one instance), and a cached narrowed-operator
/// plane shared by every instance.  Everything but the instance slots
/// stays empty (and costs nothing) on a solo double/int64 solve.
///
/// Threading: workspaces are NOT shareable between threads.  The parallel
/// injection sweep (experiment::run_injection_sweep) checks out one
/// FtGmresWorkspace per worker thread.

#include <memory>
#include <vector>

#include "dense/hessenberg_qr.hpp"
#include "la/block.hpp"
#include "la/workspace.hpp"

namespace sdcgmres::krylov {

/// Type-erased cache slot for a narrowed-operator mirror (defined in
/// krylov/mixed_plane.hpp); forward-declared so the workspace header does not
/// pull in the mixed-precision plane.
class MixedPlaneBase;

/// Reusable state for one (F)GMRES solver instance.
template <typename S>
struct KrylovWorkspaceT {
  la::SolverWorkspaceT<S> arena; ///< V/Z arenas, scratch vectors, h column
  dense::HessenbergQrT<S> qr;    ///< projected least-squares factorization
};

using KrylovWorkspace = KrylovWorkspaceT<double>;

/// Reusable state for FT-GMRES: one solve or a lockstep batch of them.
/// A driver that solved a (shape, batch) once re-solves it with no heap
/// allocation on the iteration path.
struct FtGmresWorkspace {
  /// One instance's nested slots: outer FGMRES + inner GMRES.
  struct Instance {
    KrylovWorkspace outer;
    KrylovWorkspace inner;
    /// Float inner arena for precision=float configurations (unused and
    /// unallocated on the default double path).
    KrylovWorkspaceT<float> inner_f32;
  };
  std::vector<Instance> instances; ///< one per lockstep instance
  la::BlockWorkspace directions; ///< packed live operand columns (SpMM
                                 ///< operand; outer Z directions and inner
                                 ///< iterates/directions take turns -- the
                                 ///< two lockstep levels never overlap)
  la::BlockWorkspace products;   ///< A * directions (SpMM result)
  /// Float staging blocks of the inner lockstep phase for
  /// precision=float configurations (double paths share directions and
  /// products above).
  la::BlockWorkspaceT<float> directions_f32;
  la::BlockWorkspaceT<float> products_f32;
  /// Cached narrowed-operator mirror (scalar/index-compressed CSR or
  /// SELL copy + bytes-streamed counters) for non-default precision/index
  /// configurations, shared by every instance (read-only during applies,
  /// atomic counters); null on the default path.
  std::shared_ptr<MixedPlaneBase> plane;
};

} // namespace sdcgmres::krylov
