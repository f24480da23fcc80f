// Ordered reader for the pipe records: "key=value|key=value|...".
//
// The journal records, the metrics-timeline samples, the request spans,
// the frame headers and the service snapshot (one field per line) all
// use this shape. A record is read field by field in its fixed order:
// next("key") checks that the next field is "key=..." and returns the
// value, next_int<T>("key") parses it strictly through util/parse.h
// (T's range included), and finish() rejects fields left over. Every
// failure throws util::Error prefixed with `what`.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::util {

class RecordReader {
 public:
  /// `kv` separates a field's key from its value ("key=value" by default;
  /// ':' reads JSON-style "\"key\":value" fields).
  RecordReader(std::string_view text, char sep, std::string what,
               char kv = '=')
      : what_(std::move(what)), kv_(kv) {
    std::size_t start = 0;
    while (true) {
      const auto p = text.find(sep, start);
      parts_.push_back(text.substr(start, p - start));
      if (p == std::string_view::npos) break;
      start = p + 1;
    }
  }

  /// The next field as it stands (a schema tag, a free-form line).
  std::string_view next_raw() {
    if (next_ == parts_.size())
      fail("ends after " + std::to_string(parts_.size()) + " fields");
    return parts_[next_++];
  }

  /// The value of the next field, which must be "<key>=<value>" (with the
  /// constructor's key/value separator).
  std::string_view next(std::string_view key) {
    if (next_ == parts_.size())
      fail("ends after " + std::to_string(parts_.size()) +
           " fields, before '" + std::string(key) + "'");
    const std::string_view f = parts_[next_];
    if (f.size() <= key.size() || f.substr(0, key.size()) != key ||
        f[key.size()] != kv_)
      fail("field " + std::to_string(next_) + " is not '" +
           std::string(key) + kv_ + "'");
    ++next_;
    return f.substr(key.size() + 1);
  }

  template <std::integral T>
  T next_int(std::string_view key) {
    const std::string_view v = next(key);
    const auto parsed = parse_int<T>(v);
    if (!parsed)
      fail("bad " + std::string(key) + " '" + std::string(v) + "'");
    return *parsed;
  }

  /// Rejects a record with fields past the last one read.
  void finish() const {
    if (next_ != parts_.size())
      fail("expected " + std::to_string(next_) + " fields, got " +
           std::to_string(parts_.size()));
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(what_ + ": " + msg);
  }

 private:
  std::vector<std::string_view> parts_;
  std::size_t next_ = 0;
  std::string what_;
  char kv_;
};

}  // namespace vc2m::util
