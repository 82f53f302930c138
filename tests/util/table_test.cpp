#include "util/table.h"

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

namespace specnoc {
namespace {

TEST(TableTest, PrintAlignsColumns) {
  Table t({"Scheme", "GF/s"});
  t.add_row({"Baseline", "1.26"});
  t.add_row({"OptHybridSpeculative", "1.60"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Scheme"), std::string::npos);
  EXPECT_NE(out.find("OptHybridSpeculative"), std::string::npos);
  EXPECT_NE(out.find("1.60"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(TableTest, RowArityAccessors) {
  Table t({"a", "b", "c"});
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.row(0)[2], "3");
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(cell(1.2649, 2), "1.26");
  EXPECT_EQ(cell(12.55, 1), "12.6");
  EXPECT_EQ(cell(static_cast<long long>(42)), "42");
}

TEST(TableTest, PercentCell) {
  EXPECT_EQ(percent_cell(0.178), "+17.8%");
  EXPECT_EQ(percent_cell(-0.391), "-39.1%");
}

TEST(TableTest, PercentCellOfNonFiniteRatioIsNotApplicable) {
  // A claim built on a failed run divides by NaN or zero.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(percent_cell(nan), "n/a");
  EXPECT_EQ(percent_cell(1.26 / 0.0 - 1.0), "n/a");
  EXPECT_EQ(percent_cell(-inf), "n/a");
  EXPECT_EQ(percent_cell(0.0), "+0.0%");
}

}  // namespace
}  // namespace specnoc
