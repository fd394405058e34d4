/**
 * @file
 * Tests for the table builder and its three renderers.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "stats/table.hh"

namespace vcp {
namespace {

TEST(TableTest, BuildsAndIndexes)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(static_cast<std::int64_t>(42));
    t.row().cell("beta").cell(2.5, 1);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numColumns(), 2u);
    EXPECT_EQ(t.at(0, 0), "alpha");
    EXPECT_EQ(t.at(0, 1), "42");
    EXPECT_EQ(t.at(1, 1), "2.5");
}

TEST(TableTest, EmptyColumnListPanics)
{
    EXPECT_THROW(Table({}), PanicError);
}

TEST(TableTest, TooManyCellsPanics)
{
    Table t({"only"});
    t.row().cell("a");
    EXPECT_THROW(t.cell("b"), PanicError);
}

TEST(TableTest, CellBeforeRowPanics)
{
    Table t({"c"});
    EXPECT_THROW(t.cell("x"), PanicError);
}

TEST(TableTest, IncompleteRowDetectedOnRender)
{
    Table t({"a", "b"});
    t.row().cell("only-one");
    EXPECT_THROW(t.toText(), PanicError);
}

TEST(TableTest, IncompleteRowDetectedOnNextRow)
{
    Table t({"a", "b"});
    t.row().cell("x");
    EXPECT_THROW(t.row(), PanicError);
}

TEST(TableTest, OutOfRangeAtPanics)
{
    Table t({"a"});
    t.row().cell("v");
    EXPECT_THROW(t.at(1, 0), PanicError);
    EXPECT_THROW(t.at(0, 1), PanicError);
}

TEST(TableTest, TextAlignsColumns)
{
    Table t({"id", "name"});
    t.row().cell(static_cast<std::int64_t>(1)).cell("long-name");
    t.row().cell(static_cast<std::int64_t>(100)).cell("x");
    std::string text = t.toText();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials)
{
    Table t({"text"});
    t.row().cell("has,comma");
    t.row().cell("has\"quote");
    std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, NumericFormatting)
{
    Table t({"v"});
    t.row().cell(3.14159, 2);
    t.row().cell(static_cast<std::uint64_t>(18446744073709551615ull));
    EXPECT_EQ(t.at(0, 0), "3.14");
    EXPECT_EQ(t.at(1, 0), "18446744073709551615");
}

} // namespace
} // namespace vcp
