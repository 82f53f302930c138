// Fixed-width console tables and CSV export for experiment reports.
//
// The bench harnesses print paper-style rows (schemes x benchmarks); this
// keeps the formatting in one place so every table looks the same.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace specnoc {

/// A simple rectangular table: a header row plus data rows of strings.
/// Cells are formatted by the caller (see cell() overloads).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with aligned columns (first column left, rest right).
  void print(std::ostream& os) const;

  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed decimals (the paper uses 2 for GF/s, 1 for mW).
std::string cell(double value, int decimals);

/// Formats an integer.
std::string cell(long long value);

/// Formats a percentage delta, e.g. "+17.8%"; "n/a" for a non-finite
/// ratio (a claim built on a failed run).
std::string percent_cell(double ratio_minus_one);

}  // namespace specnoc
