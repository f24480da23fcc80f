// Console table and CSV rendering for bench binaries.
//
// Every bench prints (a) a human-readable aligned table mirroring the
// paper's table/figure and (b) optionally a CSV file for replotting.
#pragma once

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/file.h"

namespace vc2m::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  /// Row builder: accepts strings and arithmetic values (formatted with
  /// `precision` decimal places).
  template <typename... Ts>
  void add_row(const Ts&... cells) {
    std::vector<std::string> row;
    row.reserve(sizeof...(cells));
    (row.push_back(format(cells)), ...);
    VC2M_CHECK_MSG(row.size() == header_.size(),
                   "row width " << row.size() << " != header width "
                                << header_.size());
    rows_.push_back(std::move(row));
  }

  /// Row builder from pre-formatted cells.
  void add_row_vec(std::vector<std::string> row) {
    VC2M_CHECK_MSG(row.size() == header_.size(),
                   "row width " << row.size() << " != header width "
                                << header_.size());
    rows_.push_back(std::move(row));
  }

  void set_precision(int p) { precision_ = p; }

  void print(std::ostream& os, const std::string& title = "") const {
    if (!title.empty()) os << "## " << title << "\n";
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size(); ++c)
        widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c)
        os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c]))
           << row[c];
      os << '\n';
    };
    print_row(header_);
    std::string rule;
    for (std::size_t c = 0; c < widths.size(); ++c)
      rule += std::string(widths[c], '-') + (c + 1 < widths.size() ? "  " : "");
    os << rule << '\n';
    for (const auto& row : rows_) print_row(row);
  }

  void write_csv(const std::string& path) const {
    std::ofstream f = open_output_file(path, "table CSV");
    auto write_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c)
        f << (c == 0 ? "" : ",") << row[c];
      f << '\n';
    };
    write_row(header_);
    for (const auto& row : rows_) write_row(row);
    close_output_file(f, path, "table CSV");
  }

 private:
  std::string format(const std::string& s) const { return s; }
  std::string format(const char* s) const { return s; }
  template <typename T>
  std::string format(const T& v) const {
    std::ostringstream os;
    if constexpr (std::is_integral_v<T>) {
      os << v;
    } else {
      os << std::fixed << std::setprecision(precision_) << v;
    }
    return os.str();
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  int precision_ = 3;
};

}  // namespace vc2m::util
