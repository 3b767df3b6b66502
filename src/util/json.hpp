// The one JSON codec. Every JSON document the tree emits (query bodies,
// span exports, metrics sidecars, capture lines, BENCH artifacts) is
// written by Writer, and every JSON text read back (capture lines, smoke
// floors) goes through the strict reader below. The codec does no file
// I/O; rendered documents are written with util::write_file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ipfsmon::util::json {

/// Append-only JSON writer: compact output, strings always escaped, commas
/// placed automatically. Callers nest begin/end calls correctly and put a
/// key() before every value inside an object.
class Writer {
 public:
  /// Appends to `out`, which must outlive the writer.
  explicit Writer(std::string& out) : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);

  /// Escapes quotes, backslashes and every control character below 0x20.
  Writer& string(std::string_view s);
  Writer& i64(std::int64_t v);
  Writer& u64(std::uint64_t v);
  Writer& boolean(bool v) { return token(v ? "true" : "false"); }
  Writer& null() { return token("null"); }
  /// printf("%.<decimals>f"); null when `v` is not finite.
  Writer& fixed(double v, int decimals);
  /// format_number(v); null when `v` is not finite.
  Writer& number(double v);

 private:
  /// Appends one value token, preceded by a comma when one is due.
  Writer& token(std::string_view text);
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string& out_;
  bool need_comma_ = false;
};

/// Integer-valued doubles below 1e15 in magnitude print as integers,
/// other finite values as printf("%.6g"). `v` must be finite.
std::string format_number(double v);

/// A scalar member of a JSON object.
struct Field {
  std::string key;
  std::string value;  // unescaped for strings, raw text otherwise
  bool is_string = false;
};

/// Strict scan of one JSON object (surrounding whitespace allowed). String
/// values are unescaped; numbers, true, false and null are kept as raw
/// text; a nested object holding only a dag-json link ({"/": "..."})
/// yields that link string; any other nested value is validated and
/// skipped (the key is not reported). Returns false on anything that is
/// not well-formed JSON.
bool scan_object(std::string_view text, std::vector<Field>* fields);

/// True when `text` is exactly one well-formed JSON value, optionally
/// surrounded by whitespace.
bool valid(std::string_view text);

}  // namespace ipfsmon::util::json
