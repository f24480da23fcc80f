// Shared checks for the strict artifact readers: integer range checks on
// the JSON reports and the truncate / byte-flip robustness contract.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace vc2m::codec_test {

/// One integer field of a written JSON report: the first `"key": N`
/// after `anchor`.
struct IntField {
  const char* anchor;
  const char* key;
  /// The first value past a narrowed type ("2147483648" for int32).
  const char* past_range = nullptr;
  /// -1 is a legal value (signed fields).
  bool signed_field = false;
};

/// Replaces each field's number with -1, 0.5, 1e30 and its past-range
/// value in turn; `read` must throw a util::Error naming the value's byte
/// offset for every one.
inline void expect_int_fields_checked(
    const std::string& doc, std::initializer_list<IntField> fields,
    const std::function<void(const std::string&)>& read) {
  for (const IntField& f : fields) {
    const std::size_t anchor = doc.find(f.anchor);
    ASSERT_NE(anchor, std::string::npos) << f.anchor;
    const std::string tag = std::string("\"") + f.key + "\": ";
    const std::size_t at = doc.find(tag, anchor);
    ASSERT_NE(at, std::string::npos) << f.key;
    const std::size_t pos = at + tag.size();
    const std::size_t end = doc.find_first_not_of("-+.0123456789eE", pos);
    std::vector<std::string> bad = {"0.5", "1e30"};
    if (!f.signed_field) bad.push_back("-1");
    if (f.past_range) bad.push_back(f.past_range);
    for (const std::string& v : bad) {
      const std::string text = doc.substr(0, pos) + v + doc.substr(end);
      try {
        read(text);
        ADD_FAILURE() << f.key << " = " << v << " accepted";
      } catch (const util::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("offset " + std::to_string(pos)),
                  std::string::npos)
            << f.key << " = " << v << ": " << what;
      }
    }
  }
}

/// The robustness contract: every truncation of `valid` at `cuts` evenly
/// spread lengths and `flips` random 1–3 byte corruptions either parse or
/// throw util::Error. Any other exception fails the test; a crash or a
/// sanitizer report fails the binary.
inline void expect_mutants_parse_or_throw(
    const std::string& valid, std::uint64_t seed,
    const std::function<void(const std::string&)>& read, int cuts = 64,
    int flips = 300) {
  const auto probe = [&](const std::string& text, const std::string& label) {
    try {
      read(text);
    } catch (const util::Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": non-util::Error exception: " << e.what();
    }
  };
  for (int i = 0; i <= cuts; ++i) {
    const std::size_t n = valid.size() * static_cast<std::size_t>(i) /
                          static_cast<std::size_t>(cuts);
    probe(valid.substr(0, n), "truncated to " + std::to_string(n));
  }
  util::Rng rng(seed);
  for (int i = 0; i < flips; ++i) {
    std::string mutated = valid;
    const int bytes = 1 + static_cast<int>(rng.index(3));
    for (int b = 0; b < bytes; ++b)
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.uniform_int(1, 255));
    probe(mutated, "flip " + std::to_string(i));
  }
}

}  // namespace vc2m::codec_test
