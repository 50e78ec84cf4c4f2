#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace pels {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::invalid_argument("JSON parse error at offset " + std::to_string(offset) +
                              ": " + what);
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail(pos, "unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(pos, std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail(pos, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail(pos, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail(pos, "bad literal");
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail(pos, "unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail(pos, "truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail(pos, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos - 1, "bad \\u digit");
          }
          // Our writers only emit \u00XX for control bytes; decode the BMP
          // point as UTF-8 so round-trips are lossless for those.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail(pos - 1, "bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail(pos, "expected a value");
    const std::string tok = text.substr(start, pos - start);
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue(static_cast<std::int64_t>(v));
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail(start, "bad number '" + tok + "'");
    return JsonValue(d);
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return JsonValue::array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos;
        continue;
      }
      if (c == ']') {
        ++pos;
        return JsonValue::array(std::move(items));
      }
      fail(pos, "expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return JsonValue::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos;
        continue;
      }
      if (c == '}') {
        ++pos;
        return JsonValue::object(std::move(members));
      }
      fail(pos, "expected ',' or '}'");
    }
  }
};

[[noreturn]] void kind_error(const char* wanted) {
  throw std::invalid_argument(std::string("JsonValue: not a ") + wanted);
}

}  // namespace

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

JsonValue JsonValue::parse(const std::string& text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) fail(p.pos, "trailing garbage");
  return v;
}

std::int64_t JsonValue::as_int64() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble && std::nearbyint(double_) == double_) {
    return static_cast<std::int64_t>(double_);
  }
  kind_error("integer");
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  kind_error("number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("object");
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::invalid_argument("JsonValue: missing key '" + key + "'");
  return *v;
}

void JsonValue::write(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      return;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      return;
    case Kind::kInt:
      os << int_;
      return;
    case Kind::kDouble: {
      // Fixed conversion, same policy as the telemetry exports: byte-stable
      // output across platforms beats minimal-digit round-tripping here.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      os << buf;
      return;
    }
    case Kind::kString:
      write_json_string(os, string_);
      return;
    case Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) os << ',';
        items_[i].write(os);
      }
      os << ']';
      return;
    }
    case Kind::kObject: {
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) os << ',';
        write_json_string(os, members_[i].first);
        os << ':';
        members_[i].second.write(os);
      }
      os << '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace pels
