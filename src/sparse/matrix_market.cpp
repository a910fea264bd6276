#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sdcgmres::sparse {

namespace {

/// All reader errors go through here, so messages share one prefix and
/// the file entry point below can splice the offending path in.
[[noreturn]] void mm_fail(const std::string& reason) {
  throw std::runtime_error("matrix_market: " + reason);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

struct Header {
  bool pattern = false;
  enum class Symmetry { General, Symmetric, SkewSymmetric } symmetry =
      Symmetry::General;
};

Header parse_header(const std::string& line) {
  std::istringstream ss(line);
  std::string banner, object, format, field, symmetry;
  ss >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    mm_fail("missing %%MatrixMarket banner (line 1)");
  }
  if (lower(object) != "matrix" || lower(format) != "coordinate") {
    mm_fail("only 'matrix coordinate' files are supported (line 1)");
  }
  Header h;
  const std::string f = lower(field);
  if (f == "real" || f == "integer") {
    h.pattern = false;
  } else if (f == "pattern") {
    h.pattern = true;
  } else {
    mm_fail("unsupported field '" + field +
            "' (complex matrices are out of scope; line 1)");
  }
  const std::string s = lower(symmetry);
  if (s == "general") {
    h.symmetry = Header::Symmetry::General;
  } else if (s == "symmetric") {
    h.symmetry = Header::Symmetry::Symmetric;
  } else if (s == "skew-symmetric") {
    h.symmetry = Header::Symmetry::SkewSymmetric;
  } else {
    mm_fail("unsupported symmetry '" + symmetry + "' (line 1)");
  }
  return h;
}

} // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line)) {
    mm_fail("empty stream (no %%MatrixMarket banner)");
  }
  ++line_no;
  const Header header = parse_header(line);

  // Skip comments and blank lines until the size line.
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::size_t rows = 0, cols = 0, nnz = 0;
  if (!(size_line >> rows >> cols >> nnz)) {
    mm_fail("malformed size line (line " + std::to_string(line_no) +
            "): expected 'rows cols nnz', got '" + line + "'");
  }

  // The declared dimensions are untrusted too: the CSR row pointers alone
  // take rows + 1 words, so a size line beyond what the narrowest index
  // plane addresses is refused before anything is allocated for it.
  if (rows > kMaxDimension || cols > kMaxDimension) {
    mm_fail("declared size " + std::to_string(rows) + " x " +
            std::to_string(cols) + " exceeds the largest dimension read, " +
            std::to_string(kMaxDimension) + " (size line, line " +
            std::to_string(line_no) + ")");
  }

  // The declared count is untrusted: reserve no more than a bounded number
  // of entries up front, so a header that over-declares fails with the
  // truncation error below instead of std::bad_alloc.  Larger files grow
  // the COO as their entries arrive.
  constexpr std::size_t kMaxReservedEntries = std::size_t{1} << 20;
  const std::size_t reserved = std::min(nnz, kMaxReservedEntries);
  CooMatrix coo(rows, cols);
  coo.reserve(header.symmetry == Header::Symmetry::General ? reserved
                                                           : 2 * reserved);
  std::size_t seen = 0;
  while (seen < nnz && std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    std::size_t i = 0, j = 0;
    double v = 1.0;
    if (!(entry >> i >> j)) {
      mm_fail("malformed entry line (line " + std::to_string(line_no) +
              "): '" + line + "'");
    }
    if (!header.pattern && !(entry >> v)) {
      mm_fail("entry missing its value (line " + std::to_string(line_no) +
              "): '" + line + "'");
    }
    if (i == 0 || j == 0 || i > rows || j > cols) {
      mm_fail("index (" + std::to_string(i) + ", " + std::to_string(j) +
              ") out of the declared " + std::to_string(rows) + " x " +
              std::to_string(cols) + " range (line " +
              std::to_string(line_no) + ")");
    }
    coo.add(i - 1, j - 1, v);
    if (i != j) {
      if (header.symmetry == Header::Symmetry::Symmetric) {
        coo.add(j - 1, i - 1, v);
      } else if (header.symmetry == Header::Symmetry::SkewSymmetric) {
        coo.add(j - 1, i - 1, -v);
      }
    }
    ++seen;
  }
  if (seen != nnz) {
    mm_fail("fewer entries than declared (" + std::to_string(seen) + " of " +
            std::to_string(nnz) + "; truncated file?)");
  }
  return CsrMatrix(std::move(coo));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    mm_fail("cannot open '" + path + "': " + std::strerror(errno));
  }
  try {
    return read_matrix_market(in);
  } catch (const std::runtime_error& e) {
    // Splice the path into the stream reader's message so a failing
    // scenario names the offending file, not just the line.
    std::string what = e.what();
    const std::string prefix = "matrix_market: ";
    if (what.rfind(prefix, 0) == 0) what.erase(0, prefix.size());
    mm_fail("'" + path + "': " + what);
  }
}

void write_matrix_market(std::ostream& out, const CsrMatrix& A) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by sdcgmres\n";
  out << A.rows() << ' ' << A.cols() << ' ' << A.nnz() << '\n';
  out << std::setprecision(17);
  for (std::size_t i = 0; i < A.rows(); ++i) {
    const auto cols = A.row_cols(i);
    const auto vals = A.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << (i + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& A) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("matrix_market: cannot open '" + path +
                             "' for writing");
  }
  write_matrix_market(out, A);
}

} // namespace sdcgmres::sparse
