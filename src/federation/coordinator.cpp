#include "federation/coordinator.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/exporters.hpp"
#include "query/socket.hpp"
#include "tracestore/rollup.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::federation {

namespace {

constexpr char kFederationHeader[] = "ipfsmon-federation v1";
constexpr int kPollTickMs = 200;

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// File mtime in nanoseconds exactly as SegmentMapping keys the
/// validation cache (stat st_mtim), so remember() here hits on the
/// serving store's next mmap open.
bool stat_signature(const std::string& path, std::int64_t* mtime_ns,
                    std::uint64_t* size) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
#if defined(__APPLE__)
  *mtime_ns = static_cast<std::int64_t>(st.st_mtimespec.tv_sec) * 1000000000 +
              st.st_mtimespec.tv_nsec;
#else
  *mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec;
#endif
  *size = static_cast<std::uint64_t>(st.st_size);
  return true;
}

bool write_file(const std::string& path, util::BytesView bytes,
                std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    fail(error, "cannot create " + path);
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    fail(error, "short write to " + path);
    return false;
  }
  return true;
}

/// The monitor's store subdirectory name ("m-<id>").
std::string monitor_dir_name(std::uint32_t id) {
  return util::format("m-%u", id);
}

/// Parses "m-<id>"; false for anything else.
bool parse_monitor_dir_name(const std::string& name, std::uint32_t* id) {
  if (name.size() < 3 || name.compare(0, 2, "m-") != 0) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
    if (value > 0xffffffffull) return false;
  }
  *id = static_cast<std::uint32_t>(value);
  return true;
}

}  // namespace

Coordinator::Coordinator(std::string root, CoordinatorOptions options)
    : root_(std::move(root)), options_(std::move(options)) {
  // Recovery and verification must not write into a foreign registry from
  // connection threads; the coordinator's own metrics live in registry_.
  options_.store.obs = nullptr;
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
  if (!listen_socket(error)) return false;
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
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
  {
    std::ifstream in((fs::path(root_) / "FEDERATION").string());
    std::string line;
    if (in && std::getline(in, line) && line == kFederationHeader) {
      while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag, vantage, dir;
        std::uint64_t id = 0, segments = 0, entries = 0;
        std::int64_t last_ship = 0;
        if (fields >> tag >> id >> vantage >> dir >> segments >> entries >>
                last_ship &&
            tag == "monitor" && id <= 0xffffffffull) {
          rows[static_cast<std::uint32_t>(id)] =
              ManifestRow{vantage, last_ship};
        }
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
    // A coordinator crash mid-land leaves at worst a *.tmp the rename
    // never published; recovery deletes it and the shipper re-ships.
    for (const auto& file : fs::directory_iterator(dir, ec)) {
      if (file.path().extension() == ".tmp") {
        fs::remove(file.path(), ec);
        recovery_notes_.push_back("removed in-flight " +
                                  file.path().filename().string() + " in " +
                                  monitor_dir_name(id));
      }
    }
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
      std::int64_t mtime_ns = 0;
      std::uint64_t size = 0;
      if (stat_signature((fs::path(dir) / file).string(), &mtime_ns, &size)) {
        state->bytes += size;
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
  write_federation_manifest();
  return true;
}

bool Coordinator::listen_socket(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    fail(error, std::string("socket: ") + std::strerror(errno));
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    fail(error, "bad bind address " + options_.host);
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail(error, std::string("bind: ") + std::strerror(errno));
    return false;
  }
  if (::listen(listen_fd_, options_.accept_backlog) != 0) {
    fail(error, std::string("listen: ") + std::strerror(errno));
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    fail(error, std::string("getsockname: ") + std::strerror(errno));
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

void Coordinator::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<ConnThread> workers;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    workers.swap(conn_threads_);
  }
  for (auto& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Coordinator::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    query::set_socket_options(fd, options_.io_timeout_ms);
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Join connections that already ended (every ship_pending pass closes
    // its socket), so finished threads do not pile up until stop().
    conn_threads_.remove_if([](ConnThread& conn) {
      if (!conn.done.load()) return false;
      conn.thread.join();
      return true;
    });
    ConnThread& conn = conn_threads_.emplace_back();
    conn.thread = std::thread([this, fd, &conn] {
      handle_connection(fd);
      conn.done.store(true);
    });
  }
}

std::size_t Coordinator::connection_threads() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return conn_threads_.size();
}

namespace {

/// Waits for `fd` to become readable in short ticks so an idle persistent
/// connection never trips the per-operation SO_RCVTIMEO, and shutdown
/// stays prompt. False on stop, hangup without data, or poll error.
bool wait_readable(int fd, const std::atomic<bool>& stopping) {
  while (!stopping.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    if ((pfd.revents & POLLIN) != 0) return true;
    return false;  // POLLHUP/POLLERR with nothing to read
  }
  return false;
}

}  // namespace

void Coordinator::handle_connection(int fd) {
  MonitorState* monitor = nullptr;
  if (wait_readable(fd, stopping_)) {
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
  while (monitor != nullptr && !stopping_.load()) {
    if (!wait_readable(fd, stopping_)) break;
    const auto frame = read_frame(fd);
    if (!frame || frame->type != FrameType::kSegment) break;
    auto msg = decode_segment(frame->payload);
    if (!msg) break;
    SegmentAckMsg ack;
    ack.segment = SegmentIdentity{msg->file, msg->body_checksum};
    ack.status = land_segment(*monitor, std::move(*msg));
    if (!write_frame(fd, FrameType::kSegmentAck, encode(ack))) break;
  }
  ::close(fd);
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
  bool vantage_changed = false;
  {
    std::lock_guard<std::mutex> lock(monitor->mu);
    if (monitor->vantage != msg.vantage) {
      vantage_changed = !monitor->vantage.empty();
      monitor->vantage = msg.vantage;
    }
    ack->landed.clear();
    ack->landed.reserve(monitor->segments.size());
    for (const auto& [file, footer] : monitor->segments) {
      ack->landed.push_back(SegmentIdentity{file, footer.body_checksum});
    }
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    counter("ipfsmon_federation_connects_total",
            "shipper handshakes accepted")
        .inc();
  }
  // New monitor or relabeled vantage: publish it before any segment lands.
  write_federation_manifest();
  (void)vantage_changed;
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
      const std::string tmp = path + ".tmp";
      std::error_code ec;
      // Verify-then-publish: the wire frame was already checksummed, but
      // the segment's own FNV checksums are re-verified here against the
      // bytes that actually reached disk before the rename makes them
      // part of the store.
      if (!write_file(tmp,
                      util::BytesView(msg.segment_bytes.data(),
                                      msg.segment_bytes.size()),
                      nullptr)) {
        fs::remove(tmp, ec);
        return AckStatus::kRejected;
      }
      tracestore::SegmentOpenOptions verify;
      verify.backend = options_.store.io_backend;
      auto reader = tracestore::SegmentReader::open(tmp, verify);
      if (!reader || reader->footer().body_checksum != msg.body_checksum ||
          reader->footer().entry_count != msg.entry_count) {
        fs::remove(tmp, ec);
        return AckStatus::kRejected;
      }
      const tracestore::SegmentFooter footer = reader->footer();
      fs::rename(tmp, path, ec);
      if (ec) {
        fs::remove(tmp, ec);
        return AckStatus::kRejected;
      }
      std::int64_t mtime_ns = 0;
      std::uint64_t size = 0;
      if (stat_signature(path, &mtime_ns, &size)) {
        // The body hash was just verified against these exact bytes; let
        // the serving stores (opened with shared_validation = this cache)
        // skip their re-validation pass.
        validated_.remember(path, mtime_ns, size);
      }

      if (!msg.rollup_bytes.empty()) {
        const std::string rollup_path = tracestore::rollup_path_for(path);
        const std::string rollup_tmp = rollup_path + ".tmp";
        bool rollup_ok =
            write_file(rollup_tmp,
                       util::BytesView(msg.rollup_bytes.data(),
                                       msg.rollup_bytes.size()),
                       nullptr);
        if (rollup_ok) {
          // Rollups are derived data: a sidecar that fails validation or
          // disagrees with the landed segment is dropped, never fatal.
          const auto rollup = tracestore::read_rollup_file(rollup_tmp);
          rollup_ok = rollup && rollup->entry_count == footer.entry_count;
        }
        if (rollup_ok) {
          fs::rename(rollup_tmp, rollup_path, ec);
          rollup_ok = !ec;
        }
        if (!rollup_ok) fs::remove(rollup_tmp, ec);
      }

      const auto row = std::make_pair(msg.file, footer);
      monitor.segments.insert(
          std::upper_bound(monitor.segments.begin(), monitor.segments.end(),
                           row,
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           }),
          row);
      tracestore::write_manifest(monitor.dir, monitor.segments);
      monitor.landed[msg.file] = msg.body_checksum;
      monitor.entries += footer.entry_count;
      monitor.bytes += size;
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

  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    const std::string label = util::format("monitor=\"%u\"", monitor.id);
    switch (status) {
      case AckStatus::kLanded:
        counter("ipfsmon_federation_segments_landed_total",
                "segments verified and persisted, per monitor", label)
            .inc();
        counter("ipfsmon_federation_bytes_replicated_total",
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
        counter("ipfsmon_federation_duplicate_segments_total",
                "redelivered segments acked without landing")
            .inc();
        break;
      case AckStatus::kRejected:
        counter("ipfsmon_federation_rejected_segments_total",
                "segments failing verification or diverging from history")
            .inc();
        break;
    }
    registry_
        .histogram("ipfsmon_federation_land_micros",
                   obs::exponential_buckets(50.0, 2.0, 16),
                   "receive-to-ack handling time per segment, µs")
        .observe(static_cast<double>(unix_micros_now() - started_us));
  }
  if (span.active()) {
    span.set_attr("status", std::string(to_string(status)));
  }
  if (status == AckStatus::kLanded) {
    generation_.fetch_add(1, std::memory_order_release);
    write_federation_manifest();
  }
  return status;
}

void Coordinator::write_federation_manifest() const {
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
  const std::string path = (fs::path(root_) / "FEDERATION").string();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) return;
  out.close();
  std::error_code ec;
  fs::rename(tmp, path, ec);
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

std::vector<std::string> Coordinator::store_dirs() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(monitors_.size());
  for (const auto& [id, monitor] : monitors_) {
    out.push_back(monitor->dir);  // std::map: already ordered by id
  }
  return out;
}

std::string Coordinator::metrics_text() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const std::uint64_t hits = validated_.hits();
  registry_
      .counter("ipfsmon_federation_validation_cache_hits_total",
               "landed-segment re-validation passes skipped via the "
               "shared validation cache")
      .inc(hits - mirrored_validation_hits_);
  mirrored_validation_hits_ = hits;
  {
    std::lock_guard<std::mutex> monitors_lock(mu_);
    registry_
        .gauge("ipfsmon_federation_monitors", "monitors known to the "
                                              "coordinator")
        .set(static_cast<double>(monitors_.size()));
  }
  return obs::to_prometheus(registry_);
}

obs::Counter& Coordinator::counter(std::string_view name,
                                   std::string_view help,
                                   std::string_view labels) {
  return registry_.counter(name, help, labels);
}

}  // namespace ipfsmon::federation
