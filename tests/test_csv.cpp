/// Tests for the CSV writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace bd::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "bd_csv_test.csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter csv(path_);
    csv.header({"a", "b"});
    csv.cell(1).cell(2.5);
    csv.end_row();
    csv.cell("x").cell(std::int64_t{-7});
    csv.end_row();
    csv.close();
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2.5\nx,-7\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.cell("has,comma").cell("has\"quote").cell("plain");
    csv.end_row();
    csv.close();
  }
  EXPECT_EQ(read_file(path_), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST_F(CsvTest, DoubleRoundTripPrecision) {
  {
    CsvWriter csv(path_);
    csv.cell(0.1234567890123456789).end_row();
    csv.close();
  }
  const std::string body = read_file(path_);
  EXPECT_NEAR(std::stod(body), 0.1234567890123456789, 1e-16);
}

TEST_F(CsvTest, HeaderAfterRowThrows) {
  CsvWriter csv(path_);
  csv.cell(1).end_row();
  EXPECT_THROW(csv.header({"late"}), CheckError);
}

TEST_F(CsvTest, EmptyRowThrows) {
  CsvWriter csv(path_);
  EXPECT_THROW(csv.end_row(), CheckError);
}

TEST_F(CsvTest, CloseWithPendingCellsThrows) {
  CsvWriter csv(path_);
  csv.cell(1);
  EXPECT_THROW(csv.close(), CheckError);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), CheckError);
}

}  // namespace
}  // namespace bd::util
