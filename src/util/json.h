// Minimal JSON reading/writing for machine artifacts.
//
// The repo writes several machine-readable artifacts (bench JSON, telemetry
// exports) with hand-formatted printf output, which is fine for write-only
// data. The chaos harness additionally needs to *read* JSON back: minimized
// fault-plan repros are re-loaded for replay (fault/chaos.h). JsonValue is
// the smallest parser that covers that producer: objects, arrays, strings with the
// standard escapes, bools, null, and numbers — with int64 preserved exactly
// (SimTime nanoseconds do not survive a round-trip through double).
//
// This is not a general-purpose JSON library: no streaming, no comments, no
// surrogate-pair decoding beyond pass-through, inputs are trusted repo
// artifacts. parse() throws std::invalid_argument with an offset on
// malformed input instead of guessing.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pels {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Object members keep source order (parse) / insertion order (build), so
  /// re-serialization is deterministic.
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  explicit JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<Member> members);

  /// Parses one JSON document (leading/trailing whitespace allowed). Throws
  /// std::invalid_argument naming the byte offset on malformed input.
  static JsonValue parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors throw std::invalid_argument on a kind mismatch (numbers
  /// interconvert: as_int64 accepts an integral double and vice versa).
  std::int64_t as_int64() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;    // array
  const std::vector<Member>& members() const;     // object

  /// Object member by key; find() returns nullptr when absent, at() throws.
  const JsonValue* find(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;

  /// Serializes compactly (no whitespace) with deterministic member order.
  void write(std::ostream& os) const;
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Writes `s` as a quoted JSON string with the mandatory escapes. Shared by
/// every hand-formatted JSON producer that embeds free-form text.
void write_json_string(std::ostream& os, const std::string& s);

}  // namespace pels
