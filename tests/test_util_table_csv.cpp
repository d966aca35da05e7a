/**
 * @file
 * Unit tests for the table renderer and CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ppep/util/csv.hpp"
#include "ppep/util/table.hpp"

#include "temp_path.hpp"

namespace {

using ppep::util::CsvWriter;
using ppep::util::Table;

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.14159, 0), "3");
    EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Table, PctFormatting)
{
    EXPECT_EQ(Table::pct(0.046, 1), "4.6%");
    EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Table, ColumnsAligned)
{
    Table t;
    t.setHeader({"a", "bbbb"});
    t.addRow({"xxxxx", "y"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    // Every data line must have the same width.
    std::istringstream lines(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(lines, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << out;
    }
}

TEST(Table, CaptionPrinted)
{
    Table t("My caption");
    t.addRow({"x"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find("My caption"), std::string::npos);
}

TEST(Table, RowCount)
{
    Table t;
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"a"});
    t.addRow({"b"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CellContentsPreserved)
{
    Table t;
    t.setHeader({"col1", "col2"});
    t.addRow({"hello", "world"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_NE(oss.str().find("hello"), std::string::npos);
    EXPECT_NE(oss.str().find("world"), std::string::npos);
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string path_ = ppep::test::tempPath("table.csv");

    std::string
    readBack()
    {
        std::ifstream in(path_);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }
};

TEST_F(CsvTest, WritesStringRows)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"a", "b", "c"});
    }
    EXPECT_EQ(readBack(), "a,b,c\n");
}

TEST_F(CsvTest, QuotesSpecialCells)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"x,y", "he said \"hi\""});
    }
    EXPECT_EQ(readBack(), "\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, WritesNumericRows)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<double>{1.5, -2.0});
    }
    EXPECT_EQ(readBack(), "1.5,-2\n");
}

TEST_F(CsvTest, MultipleRows)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"h1", "h2"});
        w.writeRow(std::vector<double>{1.0, 2.0});
        w.writeRow(std::vector<double>{3.0, 4.0});
    }
    EXPECT_EQ(readBack(), "h1,h2\n1,2\n3,4\n");
}

} // namespace
