// ASCII/CSV table writer used by every benchmark harness so reproduced tables
// print in a uniform, diffable format.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace adriatic {

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& header_row() const {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data() const {
    return rows_;
  }

  /// Pretty-print with aligned columns and box rules.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace adriatic
