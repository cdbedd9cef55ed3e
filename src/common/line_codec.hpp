#pragma once

/// The line codec — the one set of text primitives every campaign artifact
/// is written and read with: telemetry lines, cell blocks, campaign and
/// shard journals, the indicator-CSV cache and fault plans.
///
/// Writing: doubles print as `%.17g`, which round-trips IEEE-754 binary64
/// exactly (negative zero and subnormals included) — the property every
/// byte-equality gate rests on.  Fingerprints print as lowercase hex.
///
/// Reading: every parser consumes the *whole* token or rejects it.  The
/// unsigned parsers accept ASCII digits only, so `-1` (which `std::stoull`
/// wraps to 2^64-1) and `12abc` (which it reads as 12) are errors, as is
/// any value beyond 2^64-1.  Parsers return nullopt on rejection; callers
/// own the error message, since only they know what the token meant.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aedbmls::codec {

/// Appends `value` formatted as `%.17g`.
void append_double(std::string& out, double value);

/// `value` as lowercase hex with no prefix (`%llx`).
[[nodiscard]] std::string hex_u64(std::uint64_t value);

/// The whitespace-separated tokens of `line` (views into it).
[[nodiscard]] std::vector<std::string_view> tokens(std::string_view line);

/// Decimal u64: one or more ASCII digits, nothing else, no overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view token);

/// Hex u64: one or more hex digits (either case), no `0x`, no overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_hex_u64(
    std::string_view token);

/// A `strtod` number spanning the whole token (no leading whitespace).
/// Accepts everything `%.17g` prints, including `inf` and `nan`.
[[nodiscard]] std::optional<double> parse_double(std::string_view token);

/// Splits text into lines with `std::getline` semantics (a final line
/// without '\n' still counts; a trailing '\n' adds no empty line) and
/// counts them, so decoders can name the line they reject.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Advances to the next line; false at end of text.
  bool next();

  /// The current line, without its '\n'.
  [[nodiscard]] std::string_view line() const noexcept { return line_; }

  /// 1-based number of the current line (0 before the first `next`).
  [[nodiscard]] std::size_t line_number() const noexcept {
    return line_number_;
  }

 private:
  std::string_view text_;
  std::size_t offset_ = 0;
  std::string_view line_;
  std::size_t line_number_ = 0;
};

}  // namespace aedbmls::codec
