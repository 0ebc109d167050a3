#include "util/json.h"

#include <cctype>
#include <cstdlib>

namespace helios::util {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : def;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string(def);
}

bool JsonValue::bool_or(std::string_view key, bool def) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : def;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return nested(&Parser::object);
      case '[': return nested(&Parser::array);
      case '"': return JsonValue::make_string(string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return number();
    }
  }

  /// One array/object level: the recursion stays bounded on any input.
  JsonValue nested(JsonValue (Parser::*parse)()) {
    if (++depth_ > JsonValue::kMaxDepth) fail("nesting too deep");
    JsonValue v = (this->*parse)();
    --depth_;
    return v;
  }

  JsonValue object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Surrogate pairs are not expected in Helios artifacts; map them
          // to the replacement character rather than mis-decoding.
          if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    return JsonValue::make_number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace helios::util
