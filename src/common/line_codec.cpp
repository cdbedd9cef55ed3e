#include "common/line_codec.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace aedbmls::codec {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::optional<std::uint64_t> parse_unsigned(std::string_view token,
                                            int base) {
  // from_chars takes no sign for unsigned types and no base prefix, and
  // reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value, base);
  if (token.empty() || error != std::errc{} || stop != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

std::string hex_u64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::vector<std::string_view> tokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > begin) out.push_back(line.substr(begin, i - begin));
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  return parse_unsigned(token, 10);
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view token) {
  return parse_unsigned(token, 16);
}

std::optional<double> parse_double(std::string_view token) {
  if (token.empty() || is_space(token.front())) return std::nullopt;
  // strtod needs a terminated string; tokens are views into larger text.
  const std::string owned(token);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  return value;
}

bool LineReader::next() {
  if (offset_ >= text_.size()) return false;
  std::size_t stop = text_.find('\n', offset_);
  if (stop == std::string_view::npos) stop = text_.size();
  line_ = text_.substr(offset_, stop - offset_);
  offset_ = stop + 1;
  ++line_number_;
  return true;
}

}  // namespace aedbmls::codec
