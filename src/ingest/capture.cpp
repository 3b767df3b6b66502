#include "ingest/capture.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace ipfsmon::ingest {

namespace {

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

/// Parses a JSON string starting at the opening quote; advances past the
/// closing quote.
bool parse_json_string(std::string_view text, std::size_t* pos,
                       std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  ++*pos;
  out->clear();
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (c == '"') {
      ++*pos;
      return true;
    }
    if (c == '\\') {
      if (*pos + 1 >= text.size()) return false;
      const char esc = text[*pos + 1];
      *pos += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (*pos + 4 > text.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[*pos + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          *pos += 4;
          append_utf8(out, code);
          break;
        }
        default:
          return false;
      }
      continue;
    }
    out->push_back(c);
    ++*pos;
  }
  return false;  // unterminated
}

/// A bare JSON token: number, true, false, or null.
bool parse_json_literal(std::string_view text, std::size_t* pos,
                        std::string* out) {
  const std::size_t start = *pos;
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (is_ws(c) || c == ',' || c == '}' || c == ']') break;
    ++*pos;
  }
  if (*pos == start) return false;
  *out = std::string(text.substr(start, *pos - start));
  return true;
}

/// Skips a balanced object/array (strings handled, so braces inside
/// strings don't count).
bool skip_json_compound(std::string_view text, std::size_t* pos) {
  int depth = 0;
  std::string scratch;
  while (*pos < text.size()) {
    const char c = text[*pos];
    if (c == '"') {
      if (!parse_json_string(text, pos, &scratch)) return false;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ++*pos;
    if (depth == 0) return true;
  }
  return false;
}

/// A nested object that is exactly a dag-json link ({"/": "Qm..."}) yields
/// the link string; anything else reports handled=false and is skipped.
bool parse_json_link(std::string_view text, std::size_t* pos,
                     std::string* out, bool* handled) {
  const std::size_t start = *pos;
  ++*pos;  // '{'
  skip_ws(text, pos);
  std::string key;
  if (*pos < text.size() && text[*pos] == '"' &&
      parse_json_string(text, pos, &key) && key == "/") {
    skip_ws(text, pos);
    if (*pos < text.size() && text[*pos] == ':') {
      ++*pos;
      skip_ws(text, pos);
      if (*pos < text.size() && text[*pos] == '"' &&
          parse_json_string(text, pos, out)) {
        skip_ws(text, pos);
        if (*pos < text.size() && text[*pos] == '}') {
          ++*pos;
          *handled = true;
          return true;
        }
      }
    }
  }
  *pos = start;
  *handled = false;
  return skip_json_compound(text, pos);
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// Field-name aliases, normalized to the canonical capture field.
enum class Field { kTimestamp, kPeer, kAddress, kType, kCancel, kCid,
                   kVantage, kOther };

Field field_for(std::string_view key) {
  const std::string k = lower(key);
  if (k == "timestamp" || k == "ts" || k == "time" || k == "timestamp_ns") {
    return Field::kTimestamp;
  }
  if (k == "peer" || k == "peer_id" || k == "peerid") return Field::kPeer;
  if (k == "address" || k == "addr" || k == "multiaddr") {
    return Field::kAddress;
  }
  if (k == "type" || k == "entry_type" || k == "want_type") {
    return Field::kType;
  }
  if (k == "cancel") return Field::kCancel;
  if (k == "cid") return Field::kCid;
  if (k == "monitor" || k == "vantage") return Field::kVantage;
  return Field::kOther;
}

bool parse_bool(std::string_view text, bool* out) {
  if (text == "true" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  return false;
}

/// Assembles a CaptureRecord from (field, text) pairs shared by the NDJSON
/// and CSV parsers. Empty CSV cells arrive as empty strings and count as
/// absent for the optional fields.
struct RecordBuilder {
  std::string timestamp, peer, address, type, cancel, cid, vantage;

  bool set(Field field, std::string value) {
    switch (field) {
      case Field::kTimestamp: timestamp = std::move(value); return true;
      case Field::kPeer: peer = std::move(value); return true;
      case Field::kAddress: address = std::move(value); return true;
      case Field::kType: type = std::move(value); return true;
      case Field::kCancel: cancel = std::move(value); return true;
      case Field::kCid: cid = std::move(value); return true;
      case Field::kVantage: vantage = std::move(value); return true;
      case Field::kOther: return false;
    }
    return false;
  }

  bool build(CaptureRecord* out, std::string* error) const {
    if (timestamp.empty()) {
      *error = "missing timestamp";
      return false;
    }
    const auto wall = util::parse_wall_time(timestamp);
    if (!wall) {
      *error = "bad timestamp '" + timestamp + "'";
      return false;
    }
    if (peer.empty()) {
      *error = "missing peer";
      return false;
    }
    const auto peer_id = crypto::PeerId::from_base58(peer);
    if (!peer_id) {
      *error = "bad peer id '" + peer + "'";
      return false;
    }
    if (cid.empty()) {
      *error = "missing cid";
      return false;
    }
    const auto parsed_cid = cid::Cid::from_string(cid);
    if (!parsed_cid) {
      *error = "bad cid '" + cid + "'";
      return false;
    }
    bool cancel_flag = false;
    if (!cancel.empty() && !parse_bool(cancel, &cancel_flag)) {
      *error = "bad cancel flag '" + cancel + "'";
      return false;
    }
    if (type.empty()) {
      *error = "missing type";
      return false;
    }
    const auto want = parse_want_type(type, cancel_flag);
    if (!want) {
      *error = "bad want type '" + type + "'";
      return false;
    }
    out->wall_ns = *wall;
    out->peer = *peer_id;
    out->type = *want;
    out->cid = *parsed_cid;
    // Vantage labels end up as STOREMETA lines and JSON strings; a control
    // character in one could forge the former.
    for (const char c : vantage) {
      if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
        *error = "control character in vantage label";
        return false;
      }
    }
    out->vantage = vantage;
    out->address = net::Address{};
    if (!address.empty()) {
      const auto addr = net::Address::from_string(address);
      if (!addr) {
        *error = "bad address '" + address + "'";
        return false;
      }
      out->address = *addr;
    }
    return true;
  }
};

}  // namespace

std::string_view capture_format_name(CaptureFormat format) {
  switch (format) {
    case CaptureFormat::kAuto: return "auto";
    case CaptureFormat::kNdjson: return "ndjson";
    case CaptureFormat::kCsv: return "csv";
  }
  return "?";
}

bool scan_json_object(std::string_view line, std::vector<JsonField>* fields) {
  fields->clear();
  std::size_t pos = 0;
  skip_ws(line, &pos);
  if (pos >= line.size() || line[pos] != '{') return false;
  ++pos;
  skip_ws(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
    skip_ws(line, &pos);
    return pos == line.size();
  }
  while (true) {
    skip_ws(line, &pos);
    JsonField field;
    if (!parse_json_string(line, &pos, &field.key)) return false;
    skip_ws(line, &pos);
    if (pos >= line.size() || line[pos] != ':') return false;
    ++pos;
    skip_ws(line, &pos);
    if (pos >= line.size()) return false;
    bool keep = true;
    if (line[pos] == '"') {
      if (!parse_json_string(line, &pos, &field.value)) return false;
      field.is_string = true;
    } else if (line[pos] == '{') {
      bool handled = false;
      if (!parse_json_link(line, &pos, &field.value, &handled)) return false;
      field.is_string = true;
      keep = handled;
    } else if (line[pos] == '[') {
      if (!skip_json_compound(line, &pos)) return false;
      keep = false;
    } else {
      if (!parse_json_literal(line, &pos, &field.value)) return false;
    }
    if (keep) fields->push_back(std::move(field));
    skip_ws(line, &pos);
    if (pos >= line.size()) return false;
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] == '}') {
      ++pos;
      skip_ws(line, &pos);
      return pos == line.size();
    }
    return false;
  }
}

std::optional<bitswap::WantType> parse_want_type(std::string_view text,
                                                 bool cancel) {
  if (cancel) return bitswap::WantType::Cancel;
  std::string k = lower(text);
  for (char& c : k) {
    if (c == '-') c = '_';
  }
  if (k == "want_have" || k == "have") return bitswap::WantType::WantHave;
  if (k == "want_block" || k == "block") return bitswap::WantType::WantBlock;
  if (k == "cancel") return bitswap::WantType::Cancel;
  // metric-exporter numeric convention: 0 = WANT_BLOCK, 1 = WANT_HAVE.
  if (k == "0") return bitswap::WantType::WantBlock;
  if (k == "1") return bitswap::WantType::WantHave;
  return std::nullopt;
}

bool parse_ndjson_record(std::string_view line, CaptureRecord* out,
                         std::string* error) {
  std::vector<JsonField> fields;
  if (!scan_json_object(line, &fields)) {
    *error = "malformed json";
    return false;
  }
  RecordBuilder builder;
  for (auto& field : fields) {
    builder.set(field_for(field.key), std::move(field.value));
  }
  return builder.build(out, error);
}

std::optional<CsvLayout> CsvLayout::from_header(std::string_view header,
                                                std::string* error) {
  CsvLayout layout;
  const auto columns = util::split(header, ',');
  layout.columns_ = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const int index = static_cast<int>(i);
    switch (field_for(columns[i])) {
      case Field::kTimestamp: layout.timestamp_ = index; break;
      case Field::kPeer: layout.peer_ = index; break;
      case Field::kAddress: layout.address_ = index; break;
      case Field::kType: layout.type_ = index; break;
      case Field::kCancel: layout.cancel_ = index; break;
      case Field::kCid: layout.cid_ = index; break;
      case Field::kVantage: layout.vantage_ = index; break;
      case Field::kOther: break;
    }
  }
  if (layout.timestamp_ < 0 || layout.peer_ < 0 || layout.type_ < 0 ||
      layout.cid_ < 0) {
    if (error != nullptr) {
      *error = "csv header missing a required column "
               "(timestamp, peer, type, cid): '" + std::string(header) + "'";
    }
    return std::nullopt;
  }
  return layout;
}

bool CsvLayout::parse(std::string_view line, CaptureRecord* out,
                      std::string* error) const {
  const auto cells = util::split(line, ',');
  if (cells.size() != columns_) {
    *error = util::format("expected %zu csv columns, got %zu", columns_,
                          cells.size());
    return false;
  }
  RecordBuilder builder;
  const auto take = [&](int index, Field field) {
    if (index >= 0) builder.set(field, cells[static_cast<std::size_t>(index)]);
  };
  take(timestamp_, Field::kTimestamp);
  take(peer_, Field::kPeer);
  take(address_, Field::kAddress);
  take(type_, Field::kType);
  take(cancel_, Field::kCancel);
  take(cid_, Field::kCid);
  take(vantage_, Field::kVantage);
  return builder.build(out, error);
}

std::string format_ndjson_record(const CaptureRecord& record) {
  std::string out = "{\"timestamp\":\"";
  out += util::format_wall_time(record.wall_ns);
  out += "\",\"peer\":\"";
  out += record.peer.to_base58();
  out += "\",\"address\":\"";
  out += record.address.to_string();
  out += "\",\"type\":\"";
  out += bitswap::want_type_name(record.type);
  out += "\",\"cid\":\"";
  out += record.cid.to_string();
  out += '"';
  if (!record.vantage.empty()) {
    // The vantage label is the one free-text field a capture carries.
    out += ",\"monitor\":\"";
    util::append_json_escaped(out, record.vantage);
    out += '"';
  }
  out += '}';
  return out;
}

std::string csv_capture_header() {
  return "timestamp,peer,address,type,cid,monitor";
}

std::string format_csv_record(const CaptureRecord& record) {
  std::string out = util::format_wall_time(record.wall_ns);
  out += ',';
  out += record.peer.to_base58();
  out += ',';
  out += record.address.to_string();
  out += ',';
  out += bitswap::want_type_name(record.type);
  out += ',';
  out += record.cid.to_string();
  out += ',';
  out += record.vantage;
  return out;
}

}  // namespace ipfsmon::ingest
