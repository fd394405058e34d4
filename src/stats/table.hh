/**
 * @file
 * Table builder used by the benchmark harness to print paper-style
 * tables and figure series in aligned-text or CSV form.
 */

#ifndef VCP_STATS_TABLE_HH
#define VCP_STATS_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vcp {

/** Rectangular table of strings with typed cell helpers. */
class Table
{
  public:
    /** @param column_names header row. */
    explicit Table(std::vector<std::string> column_names);

    /** Start a new (empty) row; subsequent cell() calls fill it. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &v);
    Table &cell(const char *v) { return cell(std::string(v)); }

    /** Append a formatted numeric cell. */
    Table &cell(double v, int precision = 3);
    Table &cell(std::int64_t v);
    Table &cell(std::uint64_t v);
    Table &cell(int v) { return cell(static_cast<std::int64_t>(v)); }

    std::size_t numRows() const { return rows.size(); }
    std::size_t numColumns() const { return header.size(); }

    /** Cell text at (row, col). */
    const std::string &at(std::size_t r, std::size_t c) const;

    /** Render with aligned columns for terminal output. */
    std::string toText() const;

    /** Render as CSV. */
    std::string toCsv() const;

  private:
    void checkComplete() const;

    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace vcp

#endif // VCP_STATS_TABLE_HH
