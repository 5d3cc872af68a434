#ifndef RPG_COMMON_JSON_WRITER_H_
#define RPG_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rpg {

/// Streaming JSON emitter (objects/arrays/scalars) used to export reading
/// paths and dataset records. Produces compact, valid JSON; no DOM.
/// Every value is written straight into the one output buffer: strings
/// are escaped in place, integers and doubles formatted with
/// std::to_chars.
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits `"key":` inside an object; must be followed by a value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  /// printf's %.10g; NaN and infinities become null.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Splices a pre-serialized JSON value in value position (comma
  /// handling applies; the caller guarantees `json` is valid JSON).
  /// Lets composed documents embed sub-documents — e.g. /api/stats
  /// embedding serve::MetricsRegistry::ToJson().
  JsonWriter& Raw(std::string_view json);

  /// Splices pre-serialized object members (`"k":v,...`, no braces)
  /// into the current object (comma handling applies; the caller
  /// guarantees the members are valid). Lets a reply embed members that
  /// were rendered once and stored — serve/path_json.h.
  JsonWriter& RawMembers(std::string_view members);

  const std::string& str() const { return out_; }

  /// Moves the output out, leaving the writer's buffer empty.
  std::string Release() { return std::move(out_); }

  /// JSON string escaping (quotes, backslash, control characters).
  static std::string Escape(std::string_view s);

 private:
  void MaybeComma();
  /// Appends `s` JSON-escaped (without quotes) to `out`.
  static void AppendEscaped(std::string_view s, std::string* out);

  std::string out_;
  // Tracks whether a value was already emitted at each nesting level so
  // commas are inserted correctly.
  std::vector<bool> need_comma_{false};
  bool after_key_ = false;
};

}  // namespace rpg

#endif  // RPG_COMMON_JSON_WRITER_H_
