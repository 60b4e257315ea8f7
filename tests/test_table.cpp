/// Tests for the console table renderer.

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/table.hpp"

namespace bd::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  ConsoleTable table({"name", "value"});
  table.cell("x").cell(1.5, 1);
  table.end_row();
  table.cell("longer-name").cell(std::int64_t{22});
  table.end_row();
  const std::string out = table.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name "), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  // Every line has the same width.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    const std::size_t len = eol - pos;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    pos = eol + 1;
  }
}

TEST(Table, RowArityChecked) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
  table.cell("1");
  EXPECT_THROW(table.end_row(), CheckError);
}

TEST(Table, EmptyHeadingsRejected) {
  EXPECT_THROW(ConsoleTable({}), CheckError);
}

TEST(Table, CountsRowsAndColumns) {
  ConsoleTable table({"a", "b", "c"});
  EXPECT_THROW(table.add_row({"1", "2"}), CheckError);  // 3 columns
  table.add_row({"1", "2", "3"});
  table.add_row({"4", "5", "6"});
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 0), "-0");  // printf semantics
  EXPECT_EQ(format_double(2.0, 3), "2.000");
}

}  // namespace
}  // namespace bd::util
