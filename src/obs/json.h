// Minimal JSON layer shared by the obs report readers and writers.
//
// vc2m writes two JSON artifact families — vc2m-bench-report/1 and
// vc2m-explain-report/1 — and reads both back (perfdiff, explain
// round-trip). The reader is a small recursive-descent parser with no
// third-party dependency; it accepts exactly the documents the writers
// produce plus ordinary whitespace variation, and it is deliberately
// strict where lenience would hide corruption:
//
//  - duplicate object keys are rejected with the byte offset of the second
//    occurrence (a truncated-then-rewritten report would otherwise have one
//    of its values silently shadowed);
//  - non-finite numbers (NaN / Infinity / values overflowing a double) are
//    rejected with their byte offset — they are not valid JSON, and a NaN
//    that slipped into a gate comparison would poison every verdict;
//  - raw control characters inside strings are rejected (RFC 8259 requires
//    them escaped), so a writer that forgets escape() is caught on
//    read-back. \u escapes are accepted for ASCII, which covers the
//    \u00XX form escape() emits for control characters.
//
// Errors throw util::Error with "<what> JSON: ... at offset N" messages,
// where <what> names the artifact being parsed.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace vc2m::obs::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;
  /// Byte offset of this value's first character in the parsed document,
  /// so semantic validators (unknown key, wrong type) can point at the
  /// exact position the way the parser's own errors do.
  std::size_t offset = 0;
  /// For an object member's value: byte offset of its key's opening quote.
  std::size_t key_offset = 0;

  /// Object member lookup (kObject only); nullptr when absent. Keys are
  /// unique — parse() rejects duplicates.
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse one complete JSON document. `what` names the artifact in error
/// messages (e.g. "bench report"). Throws util::Error on malformed input,
/// trailing garbage, duplicate object keys, or non-finite numbers.
Value parse(const std::string& text, const std::string& what);

/// Escape a string for embedding between double quotes.
std::string escape(const std::string& s);

/// Serialize a finite double ("%.9g"); non-finite values write "0", keeping
/// every emitted artifact parseable by the strict reader above.
std::string number(double v);

}  // namespace vc2m::obs::json
