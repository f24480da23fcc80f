#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace vc2m::obs::json {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what)
      : s_(text), what_(what) {}

  Value parse() {
    Value v = value();
    skip_ws();
    VC2M_CHECK_MSG(pos_ == s_.size(),
                   what_ << " JSON: trailing garbage at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    VC2M_CHECK_MSG(peek() == c, what_ << " JSON: expected '" << c
                                      << "' at offset " << pos_ << ", got '"
                                      << s_[pos_] << "'");
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
      case 'I':
        VC2M_CHECK_MSG(false, what_ << " JSON: non-finite number at offset "
                                    << pos_);
        std::abort();  // unreachable
      default: return number_value();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      VC2M_CHECK_MSG(pos_ < s_.size() && s_[pos_] == *p,
                     what_ << " JSON: bad literal at offset " << pos_);
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
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      VC2M_CHECK_MSG(pos_ + 1 >= s_.size() ||
                         (s_[pos_ + 1] != 'I' && s_[pos_ + 1] != 'N'),
                     what_ << " JSON: non-finite number at offset " << start);
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    VC2M_CHECK_MSG(pos_ > start,
                   what_ << " JSON: expected a value at offset " << start);
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    VC2M_CHECK_MSG(end && *end == '\0', what_ << " JSON: bad number '" << tok
                                              << "' at offset " << start);
    VC2M_CHECK_MSG(std::isfinite(d),
                   what_ << " JSON: non-finite number '" << tok
                         << "' at offset " << start);
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = d;
    return v;
  }

  /// The character of a \uXXXX escape, pos_ just past the 'u'. Only
  /// ASCII code points are accepted: escape() emits \u00XX for control
  /// characters and writes every other byte as itself.
  char ascii_escape() {
    const std::size_t at = pos_;
    const std::string hex = s_.substr(pos_, 4);
    VC2M_CHECK_MSG(hex.size() == 4 &&
                       std::all_of(hex.begin(), hex.end(),
                                   [](unsigned char h) {
                                     return std::isxdigit(h) != 0;
                                   }),
                   what_ << " JSON: bad \\u escape at offset " << at);
    const unsigned long cp = std::strtoul(hex.c_str(), nullptr, 16);
    VC2M_CHECK_MSG(cp < 0x80, what_ << " JSON: unsupported non-ASCII \\u "
                                       "escape at offset "
                                    << at);
    pos_ += 4;
    return static_cast<char>(cp);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        VC2M_CHECK_MSG(pos_ < s_.size(), what_ << " JSON: dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': out.push_back(ascii_escape()); break;
          default:
            VC2M_CHECK_MSG(false, what_ << " JSON: unsupported escape '\\"
                                        << e << "'");
        }
      } else {
        VC2M_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                       what_ << " JSON: raw control character in string at "
                                "offset "
                             << pos_ - 1);
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
      VC2M_CHECK_MSG(v.find(key) == nullptr,
                     what_ << " JSON: duplicate key '" << key
                           << "' at offset " << key_at);
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
