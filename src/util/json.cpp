#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ipfsmon::util::json {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

void skip_ws(std::string_view text, std::size_t* pos) {
  while (*pos < text.size() && is_ws(text[*pos])) ++*pos;
}

void append_utf8(std::string* out, unsigned code) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

/// Parses a JSON string starting at the opening quote and advances past the
/// closing quote. `out`, when given, receives the unescaped text. Raw
/// control characters are rejected, as RFC 8259 requires.
bool parse_string(std::string_view text, std::size_t* pos, std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  ++*pos;
  if (out != nullptr) out->clear();
  while (true) {
    std::size_t end = *pos;
    while (end < text.size() && text[end] != '"' && text[end] != '\\' &&
           static_cast<unsigned char>(text[end]) >= 0x20) {
      ++end;
    }
    if (out != nullptr) out->append(text.data() + *pos, end - *pos);
    *pos = end;
    if (end >= text.size()) return false;  // unterminated
    if (text[end] == '"') {
      ++*pos;
      return true;
    }
    if (text[end] != '\\' || end + 1 >= text.size()) return false;
    const char esc = text[end + 1];
    *pos += 2;
    char decoded = 0;
    switch (esc) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        if (*pos + 4 > text.size()) return false;
        unsigned code = 0;
        const auto parsed = std::from_chars(text.data() + *pos,
                                            text.data() + *pos + 4, code, 16);
        if (parsed.ec != std::errc() || parsed.ptr != text.data() + *pos + 4) {
          return false;
        }
        *pos += 4;
        if (out != nullptr) append_utf8(out, code);
        continue;
      }
      default:
        return false;
    }
    if (out != nullptr) out->push_back(decoded);
  }
}

/// A bare token: a JSON number, true, false or null. Anything else
/// (unquoted words, "tru", "01", "1.") is rejected.
bool parse_literal(std::string_view text, std::size_t* pos) {
  const std::string_view rest = text.substr(*pos);
  for (const std::string_view word : {"true", "false", "null"}) {
    if (rest.substr(0, word.size()) == word) {
      *pos += word.size();
      return true;
    }
  }
  std::size_t i = *pos;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i > start;
  };
  if (i < text.size() && text[i] == '-') ++i;
  if (i < text.size() && text[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    if (!digits()) return false;
  }
  *pos = i;
  return true;
}

/// Parses `"key" :` with surrounding whitespace, leaving `*pos` at the
/// member's value.
bool parse_key(std::string_view text, std::size_t* pos, std::string* key) {
  skip_ws(text, pos);
  if (!parse_string(text, pos, key)) return false;
  skip_ws(text, pos);
  if (*pos >= text.size() || text[*pos] != ':') return false;
  ++*pos;
  skip_ws(text, pos);
  return true;
}

/// A nested object that is exactly a dag-json link ({"/": "Qm..."}) yields
/// the link string. Anything else leaves `*pos` unchanged and returns false.
bool parse_link(std::string_view text, std::size_t* pos, std::string* out) {
  std::size_t at = *pos + 1;  // past '{'
  std::string key;
  if (!parse_key(text, &at, &key) || key != "/" ||
      !parse_string(text, &at, out)) {
    return false;
  }
  skip_ws(text, &at);
  if (at >= text.size() || text[at] != '}') return false;
  *pos = at + 1;
  return true;
}

/// Validates one JSON value of any type and advances past it. With
/// `fields`, the value must be an object whose scalar members and dag-json
/// links are reported; its other members are validated and skipped.
/// Nesting is tracked on an explicit stack of expected closing brackets,
/// never by recursion, so hostile depth costs memory proportional to the
/// input and nothing else.
bool parse_value(std::string_view text, std::size_t* pos,
                 std::vector<Field>* fields) {
  std::string closers;
  Field field;
  // Members of the outermost object are the reported ones.
  const auto key_out = [&]() {
    return fields != nullptr && closers.size() == 1 ? &field.key : nullptr;
  };
  skip_ws(text, pos);
  if (fields != nullptr && (*pos >= text.size() || text[*pos] != '{')) {
    return false;
  }
  while (true) {
    skip_ws(text, pos);
    if (*pos >= text.size()) return false;
    const char c = text[*pos];
    const std::size_t start = *pos;
    const bool report = key_out() != nullptr;
    if (report && c == '{' && parse_link(text, pos, &field.value)) {
      field.is_string = true;
      fields->push_back(std::move(field));
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++*pos;
      skip_ws(text, pos);
      if (*pos < text.size() && text[*pos] == close) {
        ++*pos;  // an empty container is a finished value
      } else {
        closers.push_back(close);
        if (close == '}' && !parse_key(text, pos, key_out())) return false;
        continue;
      }
    } else if (c == '"') {
      if (!parse_string(text, pos, report ? &field.value : nullptr)) {
        return false;
      }
      field.is_string = true;
      if (report) fields->push_back(std::move(field));
    } else {
      if (!parse_literal(text, pos)) return false;
      if (report) {
        field.value.assign(text.substr(start, *pos - start));
        field.is_string = false;
        fields->push_back(std::move(field));
      }
    }
    // A value finished: close containers until one takes another member.
    while (true) {
      if (closers.empty()) return true;
      skip_ws(text, pos);
      if (*pos >= text.size()) return false;
      if (text[*pos] == ',') {
        ++*pos;
        if (closers.back() == '}' && !parse_key(text, pos, key_out())) {
          return false;
        }
        break;
      }
      if (text[*pos] != closers.back()) return false;
      ++*pos;
      closers.pop_back();
    }
  }
}

}  // namespace

Writer& Writer::token(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

Writer& Writer::open(char bracket) {
  token(std::string_view(&bracket, 1));
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  string(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::string(std::string_view s) {
  token("\"");
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::i64(std::int64_t v) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Writer& Writer::u64(std::uint64_t v) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Writer& Writer::fixed(double v, int decimals) {
  if (!std::isfinite(v)) return null();
  char buf[512];  // %.6f of the largest double needs ~320 bytes
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return token(buf);
}

Writer& Writer::number(double v) {
  return std::isfinite(v) ? token(format_number(v)) : null();
}

std::string format_number(double v) {
  // Range first: converting NaN, ±Inf or |v| >= 2^63 to an integer is
  // undefined behaviour.
  if (v > -1e15 && v < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool scan_object(std::string_view text, std::vector<Field>* fields) {
  fields->clear();
  std::size_t pos = 0;
  if (!parse_value(text, &pos, fields)) return false;
  skip_ws(text, &pos);
  return pos == text.size();
}

bool valid(std::string_view text) {
  std::size_t pos = 0;
  if (!parse_value(text, &pos, nullptr)) return false;
  skip_ws(text, &pos);
  return pos == text.size();
}

}  // namespace ipfsmon::util::json
