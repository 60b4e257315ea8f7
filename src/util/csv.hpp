#pragma once
/// \file csv.hpp
/// CSV writer used by benchmark harnesses to dump the series behind each
/// reproduced table/figure, so results can be re-plotted externally.

#include <fstream>
#include <string>
#include <vector>

namespace bd::util {

/// Streams rows of mixed string/number cells to a CSV file.
/// Quotes cells containing separators; numbers are written with
/// round-trippable precision.
class CsvWriter {
 public:
  /// Opens (truncates) `path`. Throws bd::CheckError if the file cannot open.
  explicit CsvWriter(const std::string& path);

  /// Write the header row. Must be the first row written, at most once.
  void header(const std::vector<std::string>& names);

  /// Begin accumulating a new row.
  CsvWriter& cell(const std::string& value);
  CsvWriter& cell(const char* value) { return cell(std::string(value)); }
  CsvWriter& cell(double value);
  CsvWriter& cell(std::int64_t value);
  CsvWriter& cell(std::uint64_t value);
  CsvWriter& cell(int value) { return cell(static_cast<std::int64_t>(value)); }

  /// Finish the current row (writes it out).
  void end_row();

  /// Flush and close; further writes are invalid.
  void close();

 private:
  void write_row(const std::vector<std::string>& cells);
  static std::string escape(const std::string& raw);

  std::ofstream out_;
  std::vector<std::string> pending_;
  std::size_t rows_ = 0;
  bool header_written_ = false;
};

}  // namespace bd::util
