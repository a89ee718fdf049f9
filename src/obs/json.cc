#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace snapq::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

namespace {

/// Recursive-descent syntax check over the full JSON grammar. `depth`
/// guards against stack exhaustion on adversarial input. Each Check*
/// helper advances `i` past what it accepted and returns false on
/// malformed input.
bool CheckValue(std::string_view text, size_t& i, int depth);

bool CheckSpace(std::string_view text, size_t& i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '\r')) {
    ++i;
  }
  return true;
}

bool CheckLiteral(std::string_view text, size_t& i, std::string_view lit) {
  if (text.substr(i, lit.size()) != lit) return false;
  i += lit.size();
  return true;
}

int HexDigit(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

/// A string literal, decoded into `out` when non-null. Our writers only
/// \u-escape control characters, so a code point past ASCII decodes to '?'.
bool CheckString(std::string_view text, size_t& i,
                 std::string* out = nullptr) {
  if (i >= text.size() || text[i] != '"') return false;
  ++i;
  if (out != nullptr) out->clear();
  while (i < text.size()) {
    char c = text[i++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c == '\\') {
      if (i >= text.size()) return false;
      const char esc = text[i++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          c = esc;
          break;
        case 'b':
          c = '\b';
          break;
        case 'f':
          c = '\f';
          break;
        case 'n':
          c = '\n';
          break;
        case 'r':
          c = '\r';
          break;
        case 't':
          c = '\t';
          break;
        case 'u': {
          if (text.size() - i < 4) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const int digit = HexDigit(text[i++]);
            if (digit < 0) return false;
            code = (code << 4) | static_cast<unsigned>(digit);
          }
          c = code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    if (out != nullptr) *out += c;
  }
  return false;  // unterminated
}

/// A number literal, its value stored in `out` when non-null.
bool CheckNumber(std::string_view text, size_t& i, double* out = nullptr) {
  const size_t start = i;
  if (i < text.size() && text[i] == '-') ++i;
  size_t digits = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    ++i;
    ++digits;
  }
  if (digits == 0) return false;
  if (digits > 1 && text[start + (text[start] == '-' ? 1u : 0u)] == '0') {
    return false;  // leading zero
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    size_t frac = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
      ++frac;
    }
    if (frac == 0) return false;
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    size_t exp = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      ++i;
      ++exp;
    }
    if (exp == 0) return false;
  }
  if (out != nullptr) {
    const std::string literal(text.substr(start, i - start));
    *out = std::strtod(literal.c_str(), nullptr);
  }
  return true;
}

bool CheckObject(std::string_view text, size_t& i, int depth) {
  ++i;  // consume '{'
  CheckSpace(text, i);
  if (i < text.size() && text[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    CheckSpace(text, i);
    if (!CheckString(text, i)) return false;
    CheckSpace(text, i);
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    if (!CheckValue(text, i, depth)) return false;
    CheckSpace(text, i);
    if (i >= text.size()) return false;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] == '}') {
      ++i;
      return true;
    }
    return false;
  }
}

bool CheckArray(std::string_view text, size_t& i, int depth) {
  ++i;  // consume '['
  CheckSpace(text, i);
  if (i < text.size() && text[i] == ']') {
    ++i;
    return true;
  }
  while (true) {
    if (!CheckValue(text, i, depth)) return false;
    CheckSpace(text, i);
    if (i >= text.size()) return false;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] == ']') {
      ++i;
      return true;
    }
    return false;
  }
}

bool CheckValue(std::string_view text, size_t& i, int depth) {
  if (depth > 64) return false;
  CheckSpace(text, i);
  if (i >= text.size()) return false;
  switch (text[i]) {
    case '{':
      return CheckObject(text, i, depth + 1);
    case '[':
      return CheckArray(text, i, depth + 1);
    case '"':
      return CheckString(text, i);
    case 't':
      return CheckLiteral(text, i, "true");
    case 'f':
      return CheckLiteral(text, i, "false");
    case 'n':
      return CheckLiteral(text, i, "null");
    default:
      return CheckNumber(text, i);
  }
}

}  // namespace

std::optional<std::map<std::string, JsonValue>> ParseFlatJsonObject(
    std::string_view text) {
  size_t i = 0;
  CheckSpace(text, i);
  if (i >= text.size() || text[i] != '{') return std::nullopt;
  ++i;
  std::map<std::string, JsonValue> out;
  CheckSpace(text, i);
  bool more = i >= text.size() || text[i] != '}';
  if (!more) ++i;
  while (more) {
    CheckSpace(text, i);
    std::string key;
    if (!CheckString(text, i, &key)) return std::nullopt;
    CheckSpace(text, i);
    if (i >= text.size() || text[i] != ':') return std::nullopt;
    ++i;
    CheckSpace(text, i);
    if (i >= text.size()) return std::nullopt;
    JsonValue value;
    bool ok = false;
    switch (text[i]) {
      case '"':
        value.kind = JsonValue::Kind::kString;
        ok = CheckString(text, i, &value.string);
        break;
      case 't':
      case 'f':
        value.kind = JsonValue::Kind::kBool;
        value.boolean = text[i] == 't';
        ok = CheckLiteral(text, i, value.boolean ? "true" : "false");
        break;
      case 'n':
        ok = CheckLiteral(text, i, "null");
        break;
      case '{':
      case '[':
        break;  // nested containers: not a flat object
      default:
        value.kind = JsonValue::Kind::kNumber;
        ok = CheckNumber(text, i, &value.number);
    }
    if (!ok) return std::nullopt;
    out[std::move(key)] = std::move(value);
    CheckSpace(text, i);
    if (i >= text.size() || (text[i] != ',' && text[i] != '}')) {
      return std::nullopt;
    }
    more = text[i++] == ',';
  }
  CheckSpace(text, i);
  if (i != text.size()) return std::nullopt;
  return out;
}

bool ValidateJson(std::string_view text) {
  size_t i = 0;
  if (!CheckValue(text, i, 0)) return false;
  CheckSpace(text, i);
  return i == text.size();
}

}  // namespace snapq::obs
