#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/strings.h"

namespace nsc::common {

std::int64_t Json::getInt(const std::string& key, std::int64_t fallback) const {
  if (!has(key) || !at(key).isNumber()) return fallback;
  return at(key).asInt();
}

double Json::getDouble(const std::string& key, double fallback) const {
  if (!has(key) || !at(key).isNumber()) return fallback;
  return at(key).asDouble();
}

std::string Json::getString(const std::string& key, std::string fallback) const {
  if (!has(key) || !at(key).isString()) return fallback;
  return at(key).asString();
}

bool Json::getBool(const std::string& key, bool fallback) const {
  if (!has(key) || !at(key).isBool()) return fallback;
  return at(key).asBool();
}

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // printf's "nan"/"inf" text is not JSON — a dump containing it would
    // not parse back, which is exactly the silent round-trip break the
    // wire protocol cannot afford.  Emit explicit NaN / Infinity /
    // -Infinity tokens instead (the parser accepts them; NaN payload bits
    // are canonicalized to the quiet NaN — transports that need the exact
    // bit pattern use the 16-hex word encoding, not JSON numbers).
    if (std::isnan(v)) {
      out += "NaN";
    } else {
      out += v < 0 ? "-Infinity" : "Infinity";
    }
    return;
  }
  // Integers print as "%lld" would, everything else as "%.17g" would;
  // std::to_chars writes exactly that text without a format string or an
  // allocation per number.  Negative zero takes the "%.17g" path, which
  // keeps its sign ("-0").
  char buf[32];
  const std::to_chars_result r =
      std::floor(v) == v && std::abs(v) < 1e15 && !(v == 0 && std::signbit(v))
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

// Appends code point `cp` (at most U+10FFFF) as UTF-8.
void appendUtf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    skipWs();
    auto v = parseValue();
    if (!v) return v;
    skipWs();
    if (pos_ != text_.size()) {
      return Result<Json>::error(errAt("trailing characters"));
    }
    return v;
  }

 private:
  std::string errAt(const std::string& what) {
    return strFormat("JSON parse error at offset %zu: %s", pos_, what.c_str());
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> parseValue() {
    if (pos_ >= text_.size()) return Result<Json>::error(errAt("unexpected end"));
    const char c = text_[pos_];
    switch (c) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': {
        auto s = parseString();
        if (!s) return Result<Json>::error(s.message());
        return Json(std::move(s).value());
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") { pos_ += 4; return Json(true); }
        return Result<Json>::error(errAt("bad literal"));
      case 'f':
        if (text_.substr(pos_, 5) == "false") { pos_ += 5; return Json(false); }
        return Result<Json>::error(errAt("bad literal"));
      case 'n':
        if (text_.substr(pos_, 4) == "null") { pos_ += 4; return Json(nullptr); }
        return Result<Json>::error(errAt("bad literal"));
      case 'N':
        if (text_.substr(pos_, 3) == "NaN") {
          pos_ += 3;
          return Json(std::numeric_limits<double>::quiet_NaN());
        }
        return Result<Json>::error(errAt("bad literal"));
      default: return parseNumber();
    }
  }

  Result<Json> parseNumber() {
    const std::size_t start = pos_;
    bool negative = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      negative = text_[pos_] == '-';
      ++pos_;
    }
    // The explicit non-finite tokens appendNumber emits ("Infinity",
    // "-Infinity"; bare "NaN" is handled in parseValue).
    if (text_.substr(pos_, 8) == "Infinity") {
      pos_ += 8;
      const double inf = std::numeric_limits<double>::infinity();
      return Json(negative ? -inf : inf);
    }
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') { ++pos_; digits(); }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      digits();
    }
    if (!any) return Result<Json>::error(errAt("bad number"));
    // std::from_chars reads the token in place; it takes no leading '+'.
    // A token strtod would convert no part of (".e5") reads as 0, and one
    // out of range defers to strtod, which rounds to 0 or Infinity.
    const char* first = text_.data() + start + (text_[start] == '+' ? 1 : 0);
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, value);
    if (r.ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      value = std::strtod(token.c_str(), nullptr);
    } else if (r.ec != std::errc()) {
      value = 0.0;
    }
    return Json(value);
  }

  // Four hex digits at pos_, as a code unit; nullopt if any is not hex.
  std::optional<std::uint32_t> hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    std::uint32_t code = 0;
    const char* first = text_.data() + pos_;
    const std::from_chars_result r = std::from_chars(first, first + 4, code, 16);
    if (r.ec != std::errc() || r.ptr != first + 4) return std::nullopt;
    pos_ += 4;
    return code;
  }

  Result<std::string> parseString() {
    if (!consume('"')) return Result<std::string>::error(errAt("expected string"));
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            std::optional<std::uint32_t> code = hex4();
            if (!code) return Result<std::string>::error(errAt("bad \\u"));
            // A high surrogate must pair with a following low one; the
            // pair encodes one code point beyond U+FFFF.
            if (*code >= 0xD800 && *code <= 0xDBFF) {
              std::optional<std::uint32_t> low;
              if (consume('\\') && consume('u')) low = hex4();
              if (!low || *low < 0xDC00 || *low > 0xDFFF) {
                return Result<std::string>::error(errAt("lone surrogate"));
              }
              code = 0x10000 + ((*code - 0xD800) << 10) + (*low - 0xDC00);
            } else if (*code >= 0xDC00 && *code <= 0xDFFF) {
              return Result<std::string>::error(errAt("lone surrogate"));
            }
            appendUtf8(out, *code);
            break;
          }
          default: return Result<std::string>::error(errAt("bad escape"));
        }
      } else {
        out.push_back(c);
      }
    }
    return Result<std::string>::error(errAt("unterminated string"));
  }

  Result<Json> parseArray() {
    consume('[');
    JsonArray arr;
    skipWs();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      skipWs();
      auto v = parseValue();
      if (!v) return v;
      arr.push_back(std::move(v).value());
      skipWs();
      if (consume(']')) return Json(std::move(arr));
      if (!consume(',')) return Result<Json>::error(errAt("expected , or ]"));
    }
  }

  Result<Json> parseObject() {
    consume('{');
    JsonObject obj;
    skipWs();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skipWs();
      auto key = parseString();
      if (!key) return Result<Json>::error(key.message());
      skipWs();
      if (!consume(':')) return Result<Json>::error(errAt("expected :"));
      skipWs();
      auto v = parseValue();
      if (!v) return v;
      obj[std::move(key).value()] = std::move(v).value();
      skipWs();
      if (consume('}')) return Json(std::move(obj));
      if (!consume(',')) return Result<Json>::error(errAt("expected , or }"));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (pretty) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isNumber()) {
    appendNumber(out, asDouble());
  } else if (isString()) {
    appendEscaped(out, asString());
  } else if (isArray()) {
    const auto& arr = asArray();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out.push_back(',');
      newline(depth + 1);
      arr[i].dumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const auto& obj = asObject();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      appendEscaped(out, k);
      out.push_back(':');
      if (pretty) out.push_back(' ');
      v.dumpTo(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dumpTo(out, 0, 0);
  return out;
}

std::string Json::dumpPretty(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

Result<Json> Json::parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace nsc::common
