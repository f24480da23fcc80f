// Minimal JSON layer shared by every JSON reader and writer.
//
// vc2m writes four JSON report families — bench, explain, serve and
// scenario reports — and reads them back (perfdiff, explain round-trip,
// --recover, scenario merge), as well as scenario files. The reader is a
// small recursive-descent parser with no third-party dependency; it
// accepts exactly the documents the writers produce plus ordinary
// whitespace variation, and it is deliberately strict where lenience
// would hide corruption:
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
//
// ObjectReader is the one semantic layer over a parsed object, shared by
// the scenario loader and the bench, explain, serve and scenario report
// readers: typed member access, integer range checks made on the parsed
// double before any cast, and a byte offset on every error.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
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

/// Strict reader over one JSON object. Every accessor claims its member;
/// finish() then deals with the members nobody claimed. Errors read
/// "<source>: <what> ... at offset N", where `source` names the document
/// and `what` this object ("scenario", "'totals'").
class ObjectReader {
 public:
  using Kind = Value::Kind;

  /// Throws unless `v` is an object.
  ObjectReader(const Value& v, std::string source, std::string what);

  /// A reader for `v` (an object nested in this one) in the same document.
  ObjectReader child(const Value& v, std::string what) const {
    return ObjectReader(v, source_, std::move(what));
  }

  /// The member `key` checked to be of `kind`; nullptr when absent.
  const Value* claim(const std::string& key, Kind kind);
  /// As claim(), but a missing member is an error.
  const Value& require(const std::string& key, Kind kind);
  bool has(const std::string& key) const { return v_.find(key) != nullptr; }

  std::string require_string(const std::string& key) {
    return require(key, Kind::kString).str;
  }
  std::string get_string(const std::string& key, const std::string& dflt) {
    const Value* m = claim(key, Kind::kString);
    return m ? m->str : dflt;
  }
  double require_number(const std::string& key) {
    return require(key, Kind::kNumber).number;
  }
  bool require_bool(const std::string& key) {
    return require(key, Kind::kBool).boolean;
  }
  bool get_bool(const std::string& key, bool dflt) {
    const Value* m = claim(key, Kind::kBool);
    return m ? m->boolean : dflt;
  }
  /// An array member whose items must all be strings.
  std::vector<std::string> require_strings(const std::string& key);
  ObjectReader require_object(const std::string& key) {
    return child(require(key, Kind::kObject), "'" + key + "'");
  }

  /// An integer in [lo, hi]. The range check runs on the parsed double
  /// before the cast, so -1, 0.5, 1e30 or a value past T fail here
  /// instead of wrapping.
  template <std::integral T>
  T require_int(const std::string& key,
                T lo = std::numeric_limits<T>::min(),
                T hi = std::numeric_limits<T>::max()) {
    return checked_int(key, require(key, Kind::kNumber), lo, hi);
  }
  template <std::integral T>
  T get_int(const std::string& key, T dflt,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) {
    const Value* m = claim(key, Kind::kNumber);
    return m ? checked_int(key, *m, lo, hi) : dflt;
  }

  /// Rejects the first unclaimed member (strict formats).
  void finish() const;
  /// Appends one note per unclaimed member (forward-compatible formats: a
  /// newer writer may add fields); a null `notes` ignores them.
  void finish(std::vector<std::string>* notes) const;

  const Value& raw() const { return v_; }
  [[noreturn]] void fail(const std::string& msg, std::size_t offset) const;
  /// fail() at member `key`'s value (at this object when `key` is absent).
  [[noreturn]] void fail_at(const std::string& key,
                            const std::string& msg) const {
    const Value* m = v_.find(key);
    fail(msg, m ? m->offset : v_.offset);
  }

 private:
  template <std::integral T>
  T checked_int(const std::string& key, const Value& m, T lo, T hi) const {
    // 2^digits is the first integer past T's range and exact as a double;
    // the `d < top` test catches a `hi` that rounds up to it.
    const double d = m.number;
    const double top = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(d == std::floor(d) && d >= static_cast<double>(lo) &&
          d <= static_cast<double>(hi) && d < top))
      fail(what_ + " key '" + key + "' must be an integer in " +
               std::to_string(lo) + ".." + std::to_string(hi),
           m.offset);
    return static_cast<T>(d);
  }

  const Value& v_;
  std::string source_;
  std::string what_;
  std::vector<bool> claimed_;
};

}  // namespace vc2m::obs::json
