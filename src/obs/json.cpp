#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::obs::json {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what)
      : s_(text), what_(what) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage at offset", pos_);
    return v;
  }

 private:
  /// A malformed document is the input's fault, so the error carries the
  /// message and the byte offset, not a source location.
  [[noreturn]] void fail(const std::string& msg) const {
    throw util::Error(what_ + " JSON: " + msg);
  }
  [[noreturn]] void fail(const std::string& msg, std::size_t offset) const {
    fail(msg + " " + std::to_string(offset));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_) + ", got '" + s_[pos_] + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value value() {
    const char c = peek();  // also positions pos_ at the value start
    const std::size_t at = pos_;
    Value v = value_body(c);
    v.offset = at;
    return v;
  }

  Value value_body(char head) {
    switch (head) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.str = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': {
        literal("null");
        return {};
      }
      // NaN / Infinity / -Infinity are not JSON. Name them explicitly: the
      // generic "expected a value" message would hide what went wrong.
      case 'N':
      case 'I': fail("non-finite number at offset", pos_);
      default: return number_value();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p)
        fail("bad literal at offset", pos_);
      ++pos_;
    }
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (s_[pos_] == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number_value() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+') &&
        pos_ + 1 < s_.size() && (s_[pos_ + 1] == 'I' || s_[pos_ + 1] == 'N'))
      fail("non-finite number at offset", start);
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value at offset", start);
    const std::string_view tok(s_.data() + start, pos_ - start);
    const std::string quoted = "'" + std::string(tok) + "' at offset";
    if (!json_number_syntax(tok)) fail("bad number " + quoted, start);
    // A well-formed number parse_double refuses lies outside the double
    // range: past its largest value (1e999, read as infinity elsewhere) or,
    // with a negative exponent, below its least subnormal (1e-400).
    const std::optional<double> d = util::parse_double(tok);
    if (!d) {
      const bool tiny =
          tok.find("e-") != tok.npos || tok.find("E-") != tok.npos;
      fail(std::string(tiny ? "number underflows the double range "
                            : "non-finite number ") +
               quoted,
           start);
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = *d;
    return v;
  }

  /// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  /// — no '+' sign, no leading zeros, no bare '.' or exponent.
  static bool json_number_syntax(std::string_view t) {
    std::size_t i = 0;
    const auto digits = [&] {
      const std::size_t from = i;
      while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i])))
        ++i;
      return i > from;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i < t.size() && t[i] == '0')
      ++i;
    else if (!digits())
      return false;
    if (i < t.size() && t[i] == '.' && (++i, !digits())) return false;
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  /// The character of a \uXXXX escape, pos_ just past the 'u'. Only
  /// ASCII code points are accepted: escape() emits \u00XX for control
  /// characters and writes every other byte as itself.
  char ascii_escape() {
    const std::size_t at = pos_;
    const std::string hex = s_.substr(pos_, 4);
    if (hex.size() != 4 ||
        !std::all_of(hex.begin(), hex.end(), [](unsigned char h) {
          return std::isxdigit(h) != 0;
        }))
      fail("bad \\u escape at offset", at);
    const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
    if (cp >= 0x80) fail("unsupported non-ASCII \\u escape at offset", at);
    pos_ += 4;
    return static_cast<char>(cp);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': out.push_back(ascii_escape()); break;
          default: fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        if (static_cast<unsigned char>(c) < 0x20)
          fail("raw control character in string at offset", pos_ - 1);
        out.push_back(c);
      }
    }
    return out;
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      const std::size_t key_at = pos_;
      std::string key = string();
      if (v.find(key) != nullptr)
        fail("duplicate key '" + key + "' at offset", key_at);
      expect(':');
      Value member = value();
      member.key_offset = key_at;
      v.object.emplace_back(std::move(key), std::move(member));
      if (consume('}')) return v;
      expect(',');
    }
  }

  const std::string& s_;
  const std::string& what_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Parser(text, what).parse();
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "boolean";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "value";
}

}  // namespace

ObjectReader::ObjectReader(const Value& v, std::string source,
                           std::string what)
    : v_(v), source_(std::move(source)), what_(std::move(what)) {
  if (v.kind != Kind::kObject)
    fail(what_ + " must be an object, got " + kind_name(v.kind), v.offset);
  claimed_.assign(v.object.size(), false);
}

const Value* ObjectReader::claim(const std::string& key, Kind kind) {
  for (std::size_t i = 0; i < v_.object.size(); ++i) {
    const auto& [k, m] = v_.object[i];
    if (k != key) continue;
    claimed_[i] = true;
    if (m.kind != kind)
      fail(what_ + " key '" + key + "' must be a " + kind_name(kind) +
               ", got " + kind_name(m.kind),
           m.offset);
    return &m;
  }
  return nullptr;
}

const Value& ObjectReader::require(const std::string& key, Kind kind) {
  const Value* m = claim(key, kind);
  if (!m)
    fail(what_ + " is missing required " + kind_name(kind) + " key '" +
             key + "'",
         v_.offset);
  return *m;
}

std::vector<std::string> ObjectReader::require_strings(
    const std::string& key) {
  std::vector<std::string> out;
  for (const Value& item : require(key, Kind::kArray).array) {
    if (item.kind != Kind::kString)
      fail(what_ + " key '" + key + "' must hold strings", item.offset);
    out.push_back(item.str);
  }
  return out;
}

void ObjectReader::finish() const {
  for (std::size_t i = 0; i < v_.object.size(); ++i)
    if (!claimed_[i])
      fail(what_ + " has unknown key '" + v_.object[i].first + "'",
           v_.object[i].second.key_offset);
}

void ObjectReader::finish(std::vector<std::string>* notes) const {
  if (!notes) return;
  for (std::size_t i = 0; i < v_.object.size(); ++i)
    if (!claimed_[i])
      notes->push_back(source_ + ": unknown field '" + v_.object[i].first +
                       "' (written by a newer vc2m?) — ignored");
}

void ObjectReader::fail(const std::string& msg, std::size_t offset) const {
  throw util::Error(source_ + ": " + msg + " at offset " +
                    std::to_string(offset));
}

}  // namespace vc2m::obs::json
