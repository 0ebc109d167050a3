// Console table rendering used by the benchmark harness to print the
// paper's tables and figure series in a uniform, diffable format.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace helios::util {

/// Column-aligned text table. Build with headers, add stringly-typed rows
/// (helpers format doubles), then print to a stream.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; pads / truncates to the header width.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const { return rows_.size(); }

  /// Pretty, column-aligned rendering.
  void print(std::ostream& os) const;

  /// Fixed-precision formatting helper for numeric cells.
  static std::string num(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner for a figure/table reproduction.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace helios::util
