// Strict CSV field parsing shared by the taskset / surface readers.
//
// Fields go through util/parse.h, so trailing garbage ("5x"), non-finite
// values ("nan", "inf"), a sign on an unsigned field ("-1") and values
// past the field's type fail. Every failure throws util::Error with the
// source name, 1-based line number, and offending line, so a user can fix
// a hand-edited file without bisecting it.
#pragma once

#include <cstddef>
#include <string>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::workload::detail {

/// Carries "where are we" through a CSV parse; fail() formats
/// `<source>:<line>: <what>: <line text>`.
struct ParseContext {
  std::string source;
  std::size_t lineno = 0;
  std::string line;

  [[noreturn]] void fail(const std::string& what) const {
    throw util::Error(source + ":" + std::to_string(lineno) + ": " + what +
                      ": '" + line + "'");
  }
};

/// One numeric field of type T (an integer type or double).
template <class T>
T parse_field(const ParseContext& ctx, const std::string& s,
              const char* field) {
  const auto v = util::parse_number<T>(s);
  if (!v) ctx.fail(std::string("bad ") + field + " field '" + s + "'");
  return *v;
}

}  // namespace vc2m::workload::detail
