/**
 * @file
 * ASCII table / CSV writer implementation.
 */

#include "util/table.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/log.h"

namespace dramscope {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    fatalIf(headers_.empty(), "Table: needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

std::string
Table::num(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string
Table::num(int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return buf;
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto line = [&](char fill, char sep) {
        std::string s;
        s.push_back(sep);
        for (size_t c = 0; c < widths.size(); ++c) {
            s.append(widths[c] + 2, fill);
            s.push_back(sep);
        }
        s.push_back('\n');
        return s;
    };
    auto rowText = [&](const std::vector<std::string> &cells) {
        std::string s = "|";
        for (size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            s += " " + cell + std::string(widths[c] - cell.size(), ' ') +
                 " |";
        }
        s.push_back('\n');
        return s;
    };

    std::string out = line('-', '+');
    out += rowText(headers_);
    out += line('=', '+');
    for (const auto &row : rows_)
        out += rowText(row);
    out += line('-', '+');
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

void
Table::writeCsv(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("Table::writeCsv: cannot open " + path);
    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            if (c)
                os << ',';
            // Quote cells that contain separators.
            if (cells[c].find_first_of(",\"\n") != std::string::npos) {
                os << '"';
                for (char ch : cells[c]) {
                    if (ch == '"')
                        os << '"';
                    os << ch;
                }
                os << '"';
            } else {
                os << cells[c];
            }
        }
        os << '\n';
    };
    emitRow(headers_);
    for (const auto &row : rows_)
        emitRow(row);
}

void
printBanner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace dramscope
