#include "common/json_writer.h"

#include <cmath>
#include <cstdio>

namespace rpg {

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
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

JsonWriter& JsonWriter::Key(const std::string& key) {
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
  out_.push_back('"');
  out_ += Escape(key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  MaybeComma();
  out_.push_back('"');
  out_ += Escape(value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  if (std::isnan(value) || std::isinf(value)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out_ += buf;
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

JsonWriter& JsonWriter::Raw(const std::string& json) {
  MaybeComma();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::RawMembers(const std::string& members) {
  if (members.empty()) return *this;
  if (need_comma_.back()) out_.push_back(',');
  need_comma_.back() = true;
  out_ += members;
  return *this;
}

}  // namespace rpg
