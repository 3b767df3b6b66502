#include "ingest/capture.hpp"

#include <cctype>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace ipfsmon::ingest {

namespace {

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
  std::vector<util::json::Field> fields;
  if (!util::json::scan_object(line, &fields)) {
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
  std::string out;
  util::json::Writer json(out);
  json.begin_object()
      .key("timestamp").string(util::format_wall_time(record.wall_ns))
      .key("peer").string(record.peer.to_base58())
      .key("address").string(record.address.to_string())
      .key("type").string(bitswap::want_type_name(record.type))
      .key("cid").string(record.cid.to_string());
  if (!record.vantage.empty()) json.key("monitor").string(record.vantage);
  json.end_object();
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
