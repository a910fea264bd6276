#pragma once
/// \file sell_operator.hpp
/// \brief SELL-C-sigma execution backend of the operator seam.
///
/// SellOperator is the counting operator over a sparse::SellMatrix -- the
/// `backend=sell` counterpart of CsrOperator and the same
/// MatrixOperator template (see operator.hpp for the byte accounting,
/// which counts SELL's padded value slots and its chunk_ptr, slot-length
/// and permutation arrays at their stored widths).  Results are bitwise
/// identical to CsrOperator over the source matrix, per column, at any
/// thread count (sell.hpp documents why).

#include "krylov/operator.hpp"
#include "sparse/sell.hpp"

namespace sdcgmres::krylov {

using SellOperator = MatrixOperator<sparse::SellMatrix>;

} // namespace sdcgmres::krylov
