// Minimal JSON reader for Helios's own machine-readable artifacts (the run
// journal's JSONL lines, the exported metrics and dashboard dumps). Parses
// the full JSON grammar into an owning value tree; objects preserve
// insertion order so diffs stay stable.
//
// It reads files Helios itself writes, but a journal may come from
// anywhere: the parser is recursive but caps nesting at kMaxDepth
// levels, and every error (malformed text, trailing garbage, nesting past
// the cap) throws std::runtime_error with a byte offset. The design favors
// a tiny API over streaming speed.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace helios::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Deepest array/object nesting parse() accepts (the deepest document
  /// Helios writes, the exported metrics, nests 4 levels).
  static constexpr int kMaxDepth = 64;

  /// Parses one complete JSON document; throws std::runtime_error (with a
  /// byte offset in the message) on malformed input, nesting deeper than
  /// kMaxDepth, or trailing garbage.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Convenience accessors with defaults (absent / wrong-typed -> default).
  double number_or(std::string_view key, double def) const;
  std::string string_or(std::string_view key, std::string_view def) const;
  bool bool_or(std::string_view key, bool def) const;

  // Construction (used by the parser; handy for tests).
  JsonValue() = default;
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace helios::util
