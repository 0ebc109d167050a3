#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace helios::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string Table::num(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << std::string(72, '=') << '\n'
     << title << '\n'
     << std::string(72, '=') << '\n';
}

}  // namespace helios::util
