#include <gtest/gtest.h>

#include <sstream>

#include "util/table.h"

namespace helios::util {
namespace {

TEST(Table, PrintsHeadersAndRows) {
  Table t({"method", "acc"});
  t.add_row({"Helios", "0.95"});
  t.add_row({"Syn. FL", "0.91"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("Helios"), std::string::npos);
  EXPECT_NE(out.find("0.91"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);  // must not crash; row padded to 3 cells
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(Table, BannerContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Fig. 5 reproduction");
  EXPECT_NE(os.str().find("Fig. 5 reproduction"), std::string::npos);
}

}  // namespace
}  // namespace helios::util
