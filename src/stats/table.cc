#include "stats/table.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace vcp {

Table::Table(std::vector<std::string> column_names)
    : header(std::move(column_names))
{
    if (header.empty())
        panic("Table: need at least one column");
}

Table &
Table::row()
{
    if (!rows.empty() && rows.back().size() != header.size())
        panic("Table::row: previous row has %zu of %zu cells",
              rows.back().size(), header.size());
    rows.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &v)
{
    if (rows.empty())
        panic("Table::cell before row()");
    if (rows.back().size() >= header.size())
        panic("Table::cell: row already has %zu cells", header.size());
    rows.back().push_back(v);
    return *this;
}

Table &
Table::cell(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return cell(std::string(buf));
}

Table &
Table::cell(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return cell(std::string(buf));
}

Table &
Table::cell(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return cell(std::string(buf));
}

const std::string &
Table::at(std::size_t r, std::size_t c) const
{
    if (r >= rows.size() || c >= rows[r].size())
        panic("Table::at(%zu, %zu) out of range", r, c);
    return rows[r][c];
}

void
Table::checkComplete() const
{
    if (!rows.empty() && rows.back().size() != header.size())
        panic("Table: last row incomplete (%zu of %zu cells)",
              rows.back().size(), header.size());
}

std::string
Table::toText() const
{
    checkComplete();
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &r : rows)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());

    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            std::string padded = cells[c];
            padded.resize(widths[c], ' ');
            line += padded;
            if (c + 1 < cells.size())
                line += "  ";
        }
        // Trim trailing spaces.
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(header);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c], '-');
        if (c + 1 < widths.size())
            rule += "  ";
    }
    out += rule + "\n";
    for (const auto &r : rows)
        out += render_row(r);
    return out;
}

std::string
Table::toCsv() const
{
    checkComplete();
    auto escape = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string quoted = "\"";
        for (char ch : s) {
            if (ch == '"')
                quoted += "\"\"";
            else
                quoted += ch;
        }
        return quoted + "\"";
    };
    auto render_row = [&](const std::vector<std::string> &cells) {
        std::string line;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line += escape(cells[c]);
            if (c + 1 < cells.size())
                line += ",";
        }
        return line + "\n";
    };
    std::string out = render_row(header);
    for (const auto &r : rows)
        out += render_row(r);
    return out;
}

} // namespace vcp
