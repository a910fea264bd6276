#pragma once
/// \file matrix_market.hpp
/// \brief Reader/writer for the Matrix Market coordinate format.
///
/// Supports `matrix coordinate real {general|symmetric|skew-symmetric}` and
/// `matrix coordinate pattern ...` headers, which covers the UF Sparse
/// Matrix Collection files the paper uses (mult_dcop_03 is `real general`).
/// Symmetric storage is expanded to full storage on read.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace sdcgmres::sparse {

/// Parse a Matrix Market stream into CSR.  Throws std::runtime_error on
/// malformed input, including a size line declaring more than
/// kMaxDimension rows or columns.
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);

/// Read a Matrix Market file by path.
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Write \p A as `matrix coordinate real general` (1-based indices).
void write_matrix_market(std::ostream& out, const CsrMatrix& A);

/// Write to a file by path.
void write_matrix_market_file(const std::string& path, const CsrMatrix& A);

} // namespace sdcgmres::sparse
