#include "federation/coordinator.hpp"

#include <algorithm>
#include <filesystem>

#include "obs/exporters.hpp"
#include "query/socket.hpp"
#include "tracestore/rollup.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::federation {

namespace {

constexpr char kFederationHeader[] = "ipfsmon-federation v1";

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// The monitor's store subdirectory name ("m-<id>").
std::string monitor_dir_name(std::uint32_t id) {
  return util::format("m-%u", id);
}

/// Parses "m-<id>"; false for anything else.
bool parse_monitor_dir_name(const std::string& name, std::uint32_t* id) {
  if (!name.starts_with("m-")) return false;
  const auto value =
      util::parse_u64(std::string_view(name).substr(2), UINT32_MAX);
  if (!value) return false;
  *id = static_cast<std::uint32_t>(*value);
  return true;
}

}  // namespace

Coordinator::Coordinator(std::string root, CoordinatorOptions options)
    : root_(std::move(root)),
      options_(std::move(options)),
      connections_([this](int fd, std::int64_t) { handle_connection(fd); }) {
  options_.store.shared_validation = &validated_;
  tracer_.configure(options_.tracing);
}

std::unique_ptr<Coordinator> Coordinator::start(const std::string& root,
                                                CoordinatorOptions options,
                                                std::string* error) {
  std::unique_ptr<Coordinator> coordinator(
      new Coordinator(root, std::move(options)));
  if (!coordinator->init(error)) return nullptr;
  return coordinator;
}

Coordinator::~Coordinator() { stop(); }

bool Coordinator::init(std::string* error) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    fail(error, "cannot create " + root_ + ": " + ec.message());
    return false;
  }
  if (!recover_monitors(error)) return false;
  return connections_.start(options_.bind_address, options_.port,
                            query::kDefaultMaxConnections, error);
}

bool Coordinator::recover_monitors(std::string* error) {
  // The FEDERATION manifest carries what the segment files cannot:
  // vantage labels and ship watermarks. Segment state itself is rebuilt
  // from disk via recover_store_dir — the files are authoritative.
  struct ManifestRow {
    std::string vantage;
    std::int64_t last_ship_wall_us = 0;
  };
  std::unordered_map<std::uint32_t, ManifestRow> rows;
  std::string text;
  util::read_file((fs::path(root_) / "FEDERATION").string(), &text);
  const auto lines = util::split(text, '\n');
  if (lines.front() == kFederationHeader) {
    for (std::size_t i = 1; i < lines.size(); ++i) {
      // "monitor <id> <vantage> <dir> <segments> <entries> <last_ship_us>"
      const auto fields = util::split(lines[i], ' ');
      if (fields.size() != 7 || fields[0] != "monitor") continue;
      const auto id = util::parse_u64(fields[1], UINT32_MAX);
      const auto last_ship = util::parse_i64(fields[6]);
      if (id && util::parse_u64(fields[4]) && util::parse_u64(fields[5]) &&
          last_ship) {
        rows[static_cast<std::uint32_t>(*id)] =
            ManifestRow{fields[2], *last_ship};
      }
    }
  }

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    std::uint32_t id = 0;
    if (!entry.is_directory() ||
        !parse_monitor_dir_name(entry.path().filename().string(), &id) ||
        id == 0) {
      continue;
    }
    const std::string dir = entry.path().string();
    // A crash mid-land leaves at worst a temp file the rename never
    // published; recovery deletes it and the shipper re-ships.
    auto report = tracestore::recover_store_dir(dir, options_.store, error);
    if (!report) return false;
    for (const auto& note : report->notes) {
      recovery_notes_.push_back(monitor_dir_name(id) + ": " + note);
    }

    auto state = std::make_unique<MonitorState>();
    state->id = id;
    state->dir = dir;
    state->segments = report->segments;
    std::sort(state->segments.begin(), state->segments.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [file, footer] : state->segments) {
      state->landed[file] = footer.body_checksum;
      state->entries += footer.entry_count;
      if (const auto sig =
              util::file_signature((fs::path(dir) / file).string())) {
        state->bytes += sig->size;
      }
    }
    if (const auto it = rows.find(id); it != rows.end()) {
      state->vantage = it->second.vantage;
      state->last_ship_wall_us = it->second.last_ship_wall_us;
    } else {
      state->vantage = "unknown";
    }
    monitors_[id] = std::move(state);
  }
  return write_federation_manifest(error);
}

void Coordinator::handle_connection(int fd) {
  query::set_socket_options(fd, options_.io_timeout_ms);
  // Persistent shippers idle between segments: no idle limit.
  MonitorState* monitor = nullptr;
  if (connections_.wait_readable(fd, 0)) {
    const auto frame = read_frame(fd);
    if (frame && frame->type == FrameType::kHello) {
      if (const auto hello = decode_hello(frame->payload)) {
        HelloAckMsg ack;
        monitor = handle_hello(*hello, &ack);
        if (monitor != nullptr &&
            !write_frame(fd, FrameType::kHelloAck, encode(ack))) {
          monitor = nullptr;
        }
      }
    }
  }
  // An invalid hello (bad id/vantage, unusable directory) just drops the
  // connection — the protocol has no error frame, and the shipper's
  // backoff treats it like any other failed dial.
  // After stop(), the frame in hand is answered and the connection closes.
  while (monitor != nullptr && !connections_.stopping()) {
    if (!connections_.wait_readable(fd, 0)) break;
    const auto frame = read_frame(fd);
    if (!frame || frame->type != FrameType::kSegment) break;
    auto msg = decode_segment(frame->payload);
    if (!msg) break;
    SegmentAckMsg ack;
    ack.segment = SegmentIdentity{msg->file, msg->body_checksum};
    ack.status = land_segment(*monitor, std::move(*msg));
    if (!write_frame(fd, FrameType::kSegmentAck, encode(ack))) break;
  }
}

Coordinator::MonitorState* Coordinator::handle_hello(const HelloMsg& msg,
                                                     HelloAckMsg* ack) {
  if (msg.monitor_id == 0 || !valid_vantage(msg.vantage)) return nullptr;
  MonitorState* monitor = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = monitors_[msg.monitor_id];
    if (slot == nullptr) {
      auto state = std::make_unique<MonitorState>();
      state->id = msg.monitor_id;
      state->dir = (fs::path(root_) / monitor_dir_name(msg.monitor_id))
                       .string();
      std::error_code ec;
      fs::create_directories(state->dir, ec);
      if (ec) {
        monitors_.erase(msg.monitor_id);
        return nullptr;
      }
      slot = std::move(state);
    }
    monitor = slot.get();
  }
  {
    std::lock_guard<std::mutex> lock(monitor->mu);
    monitor->vantage = msg.vantage;
    ack->landed.clear();
    ack->landed.reserve(monitor->segments.size());
    for (const auto& [file, footer] : monitor->segments) {
      ack->landed.push_back(SegmentIdentity{file, footer.body_checksum});
    }
  }
  registry_
      .counter("ipfsmon_federation_connects_total",
               "shipper handshakes accepted")
      .inc();
  // New monitor or relabeled vantage: publish it before any segment lands.
  // A failed publish refuses the hello; the shipper's backoff redials.
  if (!write_federation_manifest()) return nullptr;
  return monitor;
}

AckStatus Coordinator::land_segment(MonitorState& monitor, SegmentMsg&& msg) {
  const std::int64_t started_us = unix_micros_now();
  obs::Span span = tracer_.start_trace("federation.land");
  if (span.active()) {
    span.set_attr("monitor", static_cast<std::uint64_t>(monitor.id));
    span.set_attr("file", msg.file);
    span.set_attr("bytes",
                  static_cast<std::uint64_t>(msg.segment_bytes.size()));
  }

  AckStatus status = AckStatus::kRejected;
  bool manifest_ok = true;
  std::int64_t lag_us = -1;
  std::uint64_t landed_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(monitor.mu);
    status = [&]() -> AckStatus {
      if (!valid_segment_name(msg.file)) return AckStatus::kRejected;
      if (const auto it = monitor.landed.find(msg.file);
          it != monitor.landed.end()) {
        // Same checksum: at-least-once redelivery, nothing to do. A
        // different checksum under the same name is a divergent monitor —
        // refuse rather than silently overwrite history.
        return it->second == msg.body_checksum ? AckStatus::kDuplicate
                                               : AckStatus::kRejected;
      }
      const std::string path =
          (fs::path(monitor.dir) / msg.file).string();
      // Verify-then-publish: the wire frame was already checksummed, but
      // the segment's own FNV checksums are re-verified here against the
      // bytes that actually reached disk before the rename makes them
      // part of the store.
      tracestore::SegmentFooter footer;
      const auto verify_segment = [&](const std::string& temp) {
        auto reader = tracestore::SegmentReader::open(temp);
        if (!reader || reader->footer().body_checksum != msg.body_checksum ||
            reader->footer().entry_count != msg.entry_count) {
          return false;
        }
        footer = reader->footer();
        return true;
      };
      if (!util::publish(path, {msg.segment_bytes}, nullptr,
                         verify_segment)) {
        return AckStatus::kRejected;
      }
      const auto sig = util::file_signature(path);
      if (sig) {
        // The body hash was just verified against these exact bytes; let
        // the serving stores (opened with shared_validation = this cache)
        // skip their re-validation pass.
        validated_.remember(path, *sig);
      }

      if (!msg.rollup_bytes.empty()) {
        // Rollups are derived data: a sidecar that fails validation or
        // disagrees with the landed segment is dropped, never fatal.
        util::publish(tracestore::rollup_path_for(path), {msg.rollup_bytes},
                      nullptr, [&](const std::string& temp) {
                        const auto rollup = tracestore::read_rollup_file(temp);
                        return rollup &&
                               rollup->entry_count == footer.entry_count;
                      });
      }

      const auto row = std::make_pair(msg.file, footer);
      monitor.segments.insert(
          std::upper_bound(monitor.segments.begin(), monitor.segments.end(),
                           row,
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           }),
          row);
      manifest_ok = tracestore::write_manifest(monitor.dir, monitor.segments);
      monitor.landed[msg.file] = msg.body_checksum;
      monitor.entries += footer.entry_count;
      monitor.bytes += sig ? sig->size : 0;
      const std::int64_t now_us = unix_micros_now();
      monitor.last_ship_wall_us = now_us;
      if (msg.sealed_wall_us > 0) {
        lag_us = std::max<std::int64_t>(0, now_us - msg.sealed_wall_us);
        monitor.last_lag_us = lag_us;
      }
      landed_bytes = msg.segment_bytes.size() + msg.rollup_bytes.size();
      return AckStatus::kLanded;
    }();
  }

  const std::string label = util::format("monitor=\"%u\"", monitor.id);
  switch (status) {
    case AckStatus::kLanded:
      registry_
          .counter("ipfsmon_federation_segments_landed_total",
                   "segments verified and persisted, per monitor", label)
          .inc();
      registry_
          .counter("ipfsmon_federation_bytes_replicated_total",
                   "segment + rollup payload bytes landed")
          .inc(landed_bytes);
      if (lag_us >= 0) {
        registry_
            .histogram("ipfsmon_federation_replication_lag_micros",
                       obs::exponential_buckets(1000.0, 2.0, 20),
                       "segment seal (file mtime) to landed ack, µs")
            .observe(static_cast<double>(lag_us));
        registry_
            .gauge("ipfsmon_federation_lag_watermark_micros",
                   "replication lag of the latest landed segment, µs",
                   label)
            .set(static_cast<double>(lag_us));
      }
      break;
    case AckStatus::kDuplicate:
      registry_
          .counter("ipfsmon_federation_duplicate_segments_total",
                   "redelivered segments acked without landing")
          .inc();
      break;
    case AckStatus::kRejected:
      registry_
          .counter("ipfsmon_federation_rejected_segments_total",
                   "segments failing verification or diverging from history")
          .inc();
      break;
  }
  registry_
      .histogram("ipfsmon_federation_land_micros",
                 obs::exponential_buckets(50.0, 2.0, 16),
                 "receive-to-ack handling time per segment, µs")
      .observe(static_cast<double>(unix_micros_now() - started_us));
  if (span.active()) {
    span.set_attr("status", std::string(to_string(status)));
  }
  if (status == AckStatus::kLanded) {
    manifest_ok = write_federation_manifest() && manifest_ok;
  }
  if (!manifest_ok) {
    // The segment is on disk either way; restart recovery rebuilds both
    // manifests from the files.
    registry_
        .counter("ipfsmon_federation_manifest_failures_total",
                 "MANIFEST or FEDERATION publishes that failed after a landing")
        .inc();
  }
  return status;
}

bool Coordinator::write_federation_manifest(std::string* error) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string text(kFederationHeader);
  text += '\n';
  for (const auto& [id, monitor] : monitors_) {
    std::lock_guard<std::mutex> state_lock(monitor->mu);
    text += util::format(
        "monitor %u %s %s %zu %llu %lld\n", id,
        monitor->vantage.empty() ? "unknown" : monitor->vantage.c_str(),
        monitor_dir_name(id).c_str(), monitor->segments.size(),
        static_cast<unsigned long long>(monitor->entries),
        static_cast<long long>(monitor->last_ship_wall_us));
  }
  return util::publish((fs::path(root_) / "FEDERATION").string(), {text},
                       error);
}

std::vector<MonitorInfo> Coordinator::monitors() const {
  std::vector<MonitorInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(monitors_.size());
  for (const auto& [id, monitor] : monitors_) {
    std::lock_guard<std::mutex> state_lock(monitor->mu);
    MonitorInfo info;
    info.id = id;
    info.vantage = monitor->vantage;
    info.dir = monitor->dir;
    info.segments = monitor->segments.size();
    info.entries = monitor->entries;
    info.bytes = monitor->bytes;
    info.last_ship_wall_us = monitor->last_ship_wall_us;
    info.last_lag_us = monitor->last_lag_us;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<LandedSegment> Coordinator::landed_segments() const {
  std::vector<LandedSegment> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, monitor] : monitors_) {
    std::lock_guard<std::mutex> state_lock(monitor->mu);
    for (const auto& [file, footer] : monitor->segments) {
      LandedSegment row;
      row.monitor_id = id;
      row.vantage = monitor->vantage;
      row.file = file;
      row.footer = footer;
      out.push_back(std::move(row));
    }
  }
  return out;
}

std::string Coordinator::metrics_text() const {
  obs::Counter& validation_hits = registry_.counter(
      "ipfsmon_federation_validation_cache_hits_total",
      "landed-segment re-validation passes skipped via the shared "
      "validation cache");
  // The validation cache keeps its own count; fold its growth in by delta,
  // each range of hits claimed by exactly one of any racing renders.
  const std::uint64_t hits = validated_.hits();
  std::uint64_t last = mirrored_validation_hits_.load();
  while (last < hits &&
         !mirrored_validation_hits_.compare_exchange_weak(last, hits)) {
  }
  if (last < hits) validation_hits.inc(hits - last);
  {
    std::lock_guard<std::mutex> monitors_lock(mu_);
    registry_
        .gauge("ipfsmon_federation_monitors", "monitors known to the "
                                              "coordinator")
        .set(static_cast<double>(monitors_.size()));
  }
  return obs::to_prometheus(registry_);
}

}  // namespace ipfsmon::federation
