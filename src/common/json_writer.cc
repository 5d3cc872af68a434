#include "common/json_writer.h"

#include <charconv>
#include <cmath>

namespace rpg {

void JsonWriter::AppendEscaped(std::string_view s, std::string* out) {
  // Bytes that need no escape are appended a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escaped = nullptr;
    switch (c) {
      case '"':
        escaped = "\\\"";
        break;
      case '\\':
        escaped = "\\\\";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\r':
        escaped = "\\r";
        break;
      case '\t':
        escaped = "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (escaped != nullptr) {
      out->append(escaped);
    } else {
      // Any other control character: \u00XX, lowercase hex.
      constexpr char kHex[] = "0123456789abcdef";
      const char code[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                           kHex[c & 0xf]};
      out->append(code, sizeof(code));
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(s, &out);
  return out;
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  need_comma_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  need_comma_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
  out_.push_back('"');
  AppendEscaped(key, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_.push_back('"');
  AppendEscaped(value, &out_);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  MaybeComma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (std::isnan(value) || std::isinf(value)) {
    out_ += "null";
    return *this;
  }
  // The standard defines to_chars with a format and a precision as
  // printf's conversion: this is exactly %.10g, without the locale and
  // varargs machinery.
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 10)
                       .ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::RawMembers(std::string_view members) {
  if (members.empty()) return *this;
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
  out_ += members;
  return *this;
}

}  // namespace rpg
