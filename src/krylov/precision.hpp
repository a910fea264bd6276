#pragma once
/// \file precision.hpp
/// \brief Scalar-precision and index-width selectors for the mixed plane.
///
/// FT-GMRES's selective-reliability split makes the inner solves the one
/// place reduced precision is admissible: the flexible outer iteration
/// treats an imprecise inner result as just another perturbed
/// preconditioner application (the same argument that lets the paper run
/// the inner solves on unreliable hardware).  These enums select, per
/// FT-GMRES configuration, the scalar type of the inner data plane and
/// the index width of the narrowed mirror (of the outer operator's CSR or
/// SELL matrix) the inner solves stream.

namespace sdcgmres::krylov {

/// Scalar precision of the inner-solve data plane.
enum class Precision {
  Double, ///< default: inner solves run in double (bitwise-identical path)
  Float,  ///< inner basis/Hessenberg/operator applies in float32
};

/// Index width of the inner-solve mirror.
enum class IndexWidth {
  I64, ///< default: 64-bit indices (with double precision the inner
       ///< solves stream the outer operator itself)
  I32, ///< int32-indexed mirror (validated at construction)
};

[[nodiscard]] constexpr const char* to_string(Precision p) noexcept {
  return p == Precision::Double ? "double" : "float";
}

[[nodiscard]] constexpr const char* to_string(IndexWidth w) noexcept {
  return w == IndexWidth::I64 ? "64" : "32";
}

} // namespace sdcgmres::krylov
