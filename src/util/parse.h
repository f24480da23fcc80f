// Strict scalar parsing shared by every reader and flag parser.
//
// A value must use the whole token: no leading or trailing whitespace, no
// sign on an unsigned value, no '+', no hex prefix, no overflow of the
// target type, and no NaN or Inf. Each function returns std::nullopt
// instead of throwing, so the caller words the error with its own context
// (a flag name and exit 2, a CSV file:line, a record's field name).
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

namespace vc2m::util {

/// An integer of type T in `base`; out-of-range values fail, they never
/// wrap or saturate.
template <std::integral T>
std::optional<T> parse_int(std::string_view s, int base = 10) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v, base);
  if (s.empty() || ec != std::errc{} || p != end) return std::nullopt;
  return v;
}

inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_int<std::uint64_t>(s);
}

inline std::optional<std::int64_t> parse_i64(std::string_view s) {
  return parse_int<std::int64_t>(s);
}

/// A finite double in decimal or exponent notation ("0.5", "1e-3").
inline std::optional<double> parse_double(std::string_view s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || p != end || !std::isfinite(v))
    return std::nullopt;
  return v;
}

/// parse_int<T> or parse_double, by T.
template <class T>
std::optional<T> parse_number(std::string_view s) {
  if constexpr (std::is_floating_point_v<T>)
    return parse_double(s);
  else
    return parse_int<T>(s);
}

/// Prints "<flag>: bad value '<s>'" on stderr and exits 2, the usage exit
/// code of every command-line front end.
[[noreturn]] void bad_flag_value(std::string_view flag, std::string_view s);

/// A command-line flag's numeric value, or bad_flag_value().
template <class T>
T flag_value(std::string_view flag, std::string_view s) {
  const std::optional<T> v = parse_number<T>(s);
  if (!v) bad_flag_value(flag, s);
  return *v;
}

}  // namespace vc2m::util
