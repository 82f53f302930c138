#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/contract.h"

namespace specnoc {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  SPECNOC_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  SPECNOC_EXPECTS(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c == 0) {
        os << row[c] << std::string(widths[c] - row[c].size(), ' ');
      } else {
        os << "  " << std::string(widths[c] - row[c].size(), ' ') << row[c];
      }
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      const auto& cell_text = row[c];
      if (cell_text.find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (char ch : cell_text) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << cell_text;
      }
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) {
    emit(row);
  }
}

std::string cell(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string cell(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", value);
  return buf;
}

std::string percent_cell(double ratio_minus_one) {
  if (!std::isfinite(ratio_minus_one)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", ratio_minus_one * 100.0);
  return buf;
}

}  // namespace specnoc
