#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sparse/matrix_market.hpp"

namespace sparse = sdcgmres::sparse;

TEST(MatrixMarket, ReadsGeneralRealMatrix) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 2 3\n"
      "1 1 1.0\n"
      "1 2 2.0\n"
      "2 2 3.0\n");
  const auto A = sparse::read_matrix_market(in);
  EXPECT_EQ(A.rows(), 2u);
  EXPECT_EQ(A.cols(), 2u);
  EXPECT_EQ(A.nnz(), 3u);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 2.0);
}

TEST(MatrixMarket, ExpandsSymmetricStorage) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 4.0\n"
      "2 1 -1.0\n");
  const auto A = sparse::read_matrix_market(in);
  EXPECT_EQ(A.nnz(), 3u); // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(A.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), -1.0);
}

TEST(MatrixMarket, ExpandsSkewSymmetricWithSignFlip) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 5.0\n");
  const auto A = sparse::read_matrix_market(in);
  EXPECT_DOUBLE_EQ(A.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(A.at(0, 1), -5.0);
}

TEST(MatrixMarket, PatternEntriesDefaultToOne) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const auto A = sparse::read_matrix_market(in);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("not a banner\n1 1 0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsComplexField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 1\n"
      "1 1 1.0 0.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW((void)sparse::read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, OverDeclaredCountIsATruncationErrorNotBadAlloc) {
  // The header's nnz is untrusted: a file declaring ten billion entries
  // and holding one must fail with the reader's own message, not by
  // reserving the declared count.
  for (const char* symmetry : {"general", "symmetric"}) {
    std::istringstream in(std::string("%%MatrixMarket matrix coordinate real ") +
                          symmetry + "\n"
                          "3 3 10000000000\n"
                          "1 1 1.0\n");
    try {
      (void)sparse::read_matrix_market(in);
      FAIL() << "expected a truncation error (" << symmetry << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "fewer entries than declared (1 of 10000000000; "
                    "truncated file?)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MatrixMarket, OverDeclaredDimensionsAreAReaderErrorNotBadAlloc) {
  // The size line's rows and columns are untrusted: ten billion of each
  // would size the CSR row pointers at 80 GB.  The reader refuses them,
  // naming the size line, before allocating anything.
  std::istringstream in("%%MatrixMarket matrix coordinate real general\n"
                        "10000000000 10000000000 1\n"
                        "1 1 1.0\n");
  try {
    (void)sparse::read_matrix_market(in);
    FAIL() << "expected a size-line error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("declared size 10000000000 x 10000000000"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("(size line, line 2)"), std::string::npos) << what;
  }

  // One column past the cap is refused as well.
  std::istringstream wide("%%MatrixMarket matrix coordinate real general\n"
                          "1 2147483648 1\n"
                          "1 1 1.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(wide), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW((void)sparse::read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  sparse::CooMatrix coo(3, 2);
  coo.add(0, 0, 1.25);
  coo.add(2, 1, -7.5e-3);
  const sparse::CsrMatrix A{std::move(coo)};
  std::stringstream buffer;
  sparse::write_matrix_market(buffer, A);
  const auto B = sparse::read_matrix_market(buffer);
  EXPECT_EQ(B.rows(), A.rows());
  EXPECT_EQ(B.cols(), A.cols());
  EXPECT_EQ(B.nnz(), A.nnz());
  EXPECT_DOUBLE_EQ(B.at(0, 0), 1.25);
  EXPECT_DOUBLE_EQ(B.at(2, 1), -7.5e-3);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)sparse::read_matrix_market_file("/nonexistent/path.mtx"),
               std::runtime_error);
}

TEST(MatrixMarket, ErrorsCarryTheLineNumber) {
  // A malformed entry reports the 1-based line it sits on (comments and
  // blank lines count), plus the offending text.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "not an entry\n");
  try {
    (void)sparse::read_matrix_market(in);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("not an entry"), std::string::npos) << what;
  }
}

TEST(MatrixMarket, OutOfRangeIndexNamesTheLine) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  try {
    (void)sparse::read_matrix_market(in);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("(3, 1)"), std::string::npos) << what;
  }
}

TEST(MatrixMarket, MissingFileNamesPathAndReason) {
  try {
    (void)sparse::read_matrix_market_file("/nonexistent/path.mtx");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent/path.mtx"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
  }
}

TEST(MatrixMarket, FileParseErrorsNameThePath) {
  const std::string path = "registry_test_bad.mtx";
  std::ofstream(path) << "%%MatrixMarket matrix coordinate real general\n"
                         "garbage size line\n";
  try {
    (void)sparse::read_matrix_market_file(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("malformed size line"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}
