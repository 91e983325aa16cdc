#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace adriatic {

Table& Table::header(std::vector<std::string> cols) {
  header_ = std::move(cols);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  auto widen = [&](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], cells[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      os << ' ' << c << std::string(widths[i] - c.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    line(header_);
    rule();
  }
  for (const auto& r : rows_) line(r);
  rule();
}

}  // namespace adriatic
