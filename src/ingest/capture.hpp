// Capture formats: the external Bitswap wantlist logs real deployments
// produce (ipfs-metric-exporter-style newline-delimited JSON, or CSV) and
// the streaming parsers that turn one line into one CaptureRecord. This is
// the only layer that knows wall-clock time and vantage names; everything
// past ingest::ingest_capture speaks SimTime and MonitorId.
//
// NDJSON grammar (one strict-JSON object per line, read with
// util::json::scan_object; see DESIGN.md Sec. 11):
//   {"timestamp": <wall time>, "peer": "Qm...", "address": "/ip4/...",
//    "type": "WANT_HAVE" | "want_block" | ..., "cid": "Qm...|b...",
//    "monitor": "<vantage>"}
// Field aliases: ts/time for timestamp, peer_id for peer, addr/multiaddr
// for address, entry_type/want_type for type, vantage for monitor. The
// metric-exporter numeric convention is accepted too: want_type 0 =
// WANT_BLOCK, 1 = WANT_HAVE, with a separate boolean "cancel". CIDs may be
// dag-json links ({"/": "Qm..."}). address and monitor are optional.
//
// CSV: a header line naming the columns (same names/aliases as above,
// any order, extra columns ignored), then one record per line.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bitswap/message.hpp"
#include "cid/cid.hpp"
#include "crypto/keys.hpp"
#include "net/address.hpp"
#include "util/walltime.hpp"

namespace ipfsmon::ingest {

enum class CaptureFormat {
  kAuto,    // sniff from the first non-blank line ('{' => ndjson)
  kNdjson,
  kCsv,
};

std::string_view capture_format_name(CaptureFormat format);

/// One parsed capture line, still on the wall-clock axis.
struct CaptureRecord {
  util::WallNanos wall_ns = 0;
  crypto::PeerId peer;
  net::Address address;  // default-constructed when the capture omits it
  bitswap::WantType type = bitswap::WantType::WantHave;
  cid::Cid cid;
  std::string vantage;   // empty when the capture omits it
};

/// Parses a Bitswap want type from any accepted spelling: the CSV names
/// ("WANT_HAVE"), lowercase/dashed variants ("want-have"), short forms
/// ("have", "block", "cancel"), or the metric-exporter numeric convention
/// (0 = block, 1 = have) combined with `cancel`.
std::optional<bitswap::WantType> parse_want_type(std::string_view text,
                                                 bool cancel);

/// Parses one NDJSON capture line. On failure returns false and sets
/// `error` to a short reason ("bad cid", "missing timestamp", ...).
bool parse_ndjson_record(std::string_view line, CaptureRecord* out,
                         std::string* error);

/// Column plan built from a CSV header line.
class CsvLayout {
 public:
  /// Maps header column names (with aliases) to record fields. Fails when
  /// a required column (timestamp, peer, type, cid) is missing.
  static std::optional<CsvLayout> from_header(std::string_view header,
                                              std::string* error);

  bool parse(std::string_view line, CaptureRecord* out,
             std::string* error) const;

 private:
  int timestamp_ = -1;
  int peer_ = -1;
  int address_ = -1;
  int type_ = -1;
  int cancel_ = -1;
  int cid_ = -1;
  int vantage_ = -1;
  std::size_t columns_ = 0;
};

/// Renders a record back into one NDJSON capture line (no trailing
/// newline) — the inverse of parse_ndjson_record, used by capture export
/// and the round-trip tests.
std::string format_ndjson_record(const CaptureRecord& record);

/// Same for the CSV form; `csv_capture_header()` is the matching header.
std::string csv_capture_header();
std::string format_csv_record(const CaptureRecord& record);

}  // namespace ipfsmon::ingest
