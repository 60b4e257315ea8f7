#pragma once
/// \file table.hpp
/// Console table renderer. Benchmark binaries use this to print the same
/// rows the paper's tables report.

#include <string>
#include <vector>

namespace bd::util {

/// Builds a fixed-column text table and renders it with aligned columns.
class ConsoleTable {
 public:
  /// Construct with column headings.
  explicit ConsoleTable(std::vector<std::string> headings);

  /// Append a full row; must match the number of headings.
  void add_row(std::vector<std::string> cells);

  /// Convenience: start a row cell-by-cell.
  ConsoleTable& cell(const std::string& value);
  ConsoleTable& cell(double value, int precision = 3);
  ConsoleTable& cell(std::int64_t value);
  ConsoleTable& cell(int value) { return cell(static_cast<std::int64_t>(value)); }
  ConsoleTable& cell(std::size_t value) {
    return cell(static_cast<std::int64_t>(value));
  }
  void end_row();

  /// Render to a string (also used by tests).
  std::string str() const;

  /// Render to stdout.
  void print() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headings_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

/// Format a double with fixed precision (helper shared with benches).
std::string format_double(double value, int precision);

}  // namespace bd::util
