#include "federation/shipper.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "query/socket.hpp"
#include "tracestore/rollup.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::federation {

namespace {

/// Reads a whole file into `out`; false when absent or unreadable.
bool slurp(const std::string& path, util::Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return false;
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  return static_cast<bool>(in);
}

}  // namespace

Shipper::Shipper(std::string store_dir, ShipperOptions options)
    : store_dir_(std::move(store_dir)), options_(std::move(options)) {}

Shipper::~Shipper() { stop(); }

std::vector<SegmentIdentity> Shipper::scan_sealed() const {
  std::vector<SegmentIdentity> sealed;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(store_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (!valid_segment_name(name)) continue;
    std::string error;
    // A footer that validates marks the segment as sealed; the torn tail
    // of a crashed writer (or a file mid-rename) simply fails here and is
    // picked up on a later scan once recovery or the writer settles it.
    const auto footer =
        tracestore::read_segment_footer(entry.path().string(), &error);
    if (!footer) continue;
    sealed.push_back({name, footer->body_checksum});
  }
  std::sort(sealed.begin(), sealed.end(),
            [](const SegmentIdentity& a, const SegmentIdentity& b) {
              return a.file < b.file;
            });
  return sealed;
}

int Shipper::connect_once(std::vector<SegmentIdentity>* landed,
                          std::string* error) {
  const int fd = query::tcp_connect(options_.host, options_.port,
                                    options_.io_timeout_ms, error);
  if (fd < 0) return -1;
  HelloMsg hello;
  hello.monitor_id = options_.monitor_id;
  hello.vantage = options_.vantage;
  if (!write_frame(fd, FrameType::kHello, encode(hello), error)) {
    ::close(fd);
    return -1;
  }
  const auto frame = read_frame(fd, error);
  if (!frame || frame->type != FrameType::kHelloAck) {
    if (error != nullptr && frame) *error = "unexpected frame, wanted ack";
    ::close(fd);
    return -1;
  }
  auto ack = decode_hello_ack(frame->payload);
  if (!ack) {
    if (error != nullptr) *error = "malformed hello ack";
    ::close(fd);
    return -1;
  }
  *landed = std::move(ack->landed);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.connects;
  for (const auto& segment : *landed) {
    acked_[segment.file] = segment.checksum;
  }
  return fd;
}

bool Shipper::ship_segment(int fd, const SegmentIdentity& segment,
                           std::string* error) {
  const std::string path = (fs::path(store_dir_) / segment.file).string();
  SegmentMsg msg;
  msg.file = segment.file;
  msg.sealed_wall_us = file_mtime_unix_us(path);
  if (!slurp(path, &msg.segment_bytes)) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::string footer_error;
  const auto footer = tracestore::read_segment_footer(path, &footer_error);
  if (!footer) {
    // Sealed at scan time but unreadable now — treat as connection-level
    // noise; the next scan re-decides.
    if (error != nullptr) *error = path + ": " + footer_error;
    return false;
  }
  msg.body_checksum = footer->body_checksum;
  msg.entry_count = footer->entry_count;
  msg.min_time = footer->min_time;
  msg.max_time = footer->max_time;
  // The rollup sidecar is derived data: ship it when present so the
  // coordinator serves rollup-first, but its absence is not an error.
  slurp(tracestore::rollup_path_for(path), &msg.rollup_bytes);

  const std::uint64_t payload_bytes =
      msg.segment_bytes.size() + msg.rollup_bytes.size();
  if (!write_frame(fd, FrameType::kSegment, encode(msg), error)) return false;
  const auto frame = read_frame(fd, error);
  if (!frame || frame->type != FrameType::kSegmentAck) return false;
  const auto ack = decode_segment_ack(frame->payload);
  if (!ack || ack->segment.file != segment.file) {
    if (error != nullptr) *error = "malformed segment ack";
    return false;
  }

  const std::int64_t now_us = unix_micros_now();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.segments_shipped;
  stats_.bytes_shipped += payload_bytes;
  stats_.last_ack_wall_us = now_us;
  switch (ack->status) {
    case AckStatus::kLanded:
      ++stats_.segments_landed;
      if (msg.sealed_wall_us > 0) {
        lag_samples_.push_back(now_us - msg.sealed_wall_us);
      }
      break;
    case AckStatus::kDuplicate: ++stats_.duplicates; break;
    case AckStatus::kRejected: ++stats_.rejected; break;
  }
  // Rejected segments are remembered too: the coordinator will never take
  // them, so re-shipping every poll would only burn bandwidth.
  acked_[segment.file] = segment.checksum;
  return true;
}

bool Shipper::ship_pending(std::string* error) {
  std::vector<SegmentIdentity> landed;
  int fd = -1;
  int delay_ms = options_.reconnect.initial_delay_ms;
  const std::size_t attempts = std::max<std::size_t>(
      std::size_t{1}, options_.reconnect.max_attempts);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (!sleep_ms(delay_ms)) return false;
      delay_ms = std::min(
          options_.reconnect.max_delay_ms,
          static_cast<int>(delay_ms * options_.reconnect.multiplier));
    }
    fd = connect_once(&landed, error);
    if (fd >= 0) break;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.connect_failures;
  }
  if (fd < 0) return false;

  bool ok = true;
  for (const auto& segment : scan_sealed()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = acked_.find(segment.file);
      if (it != acked_.end() && it->second == segment.checksum) continue;
    }
    if (!ship_segment(fd, segment, error)) {
      ok = false;
      break;
    }
  }
  ::close(fd);
  return ok;
}

void Shipper::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  loop_ = std::thread([this] { run_loop(); });
}

void Shipper::stop() {
  if (!running_.load() && !loop_.joinable()) return;
  stopping_.store(true);
  wake_.notify_all();
  if (loop_.joinable()) loop_.join();
  running_.store(false);
}

void Shipper::run_loop() {
  int fd = -1;
  int delay_ms = options_.reconnect.initial_delay_ms;
  while (!stopping_.load()) {
    if (fd < 0) {
      std::vector<SegmentIdentity> landed;
      std::string error;
      fd = connect_once(&landed, &error);
      if (fd < 0) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.connect_failures;
        }
        if (!sleep_ms(delay_ms)) break;
        delay_ms = std::min(
            options_.reconnect.max_delay_ms,
            static_cast<int>(delay_ms * options_.reconnect.multiplier));
        continue;
      }
      delay_ms = options_.reconnect.initial_delay_ms;
    }
    bool failed = false;
    for (const auto& segment : scan_sealed()) {
      if (stopping_.load()) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = acked_.find(segment.file);
        if (it != acked_.end() && it->second == segment.checksum) continue;
      }
      std::string error;
      if (!ship_segment(fd, segment, &error)) {
        failed = true;
        break;
      }
    }
    if (failed) {
      ::close(fd);
      fd = -1;
      continue;  // reconnect (with fresh watermarks) right away
    }
    if (!sleep_ms(options_.poll_interval_ms)) break;
  }
  if (fd >= 0) ::close(fd);
}

bool Shipper::sleep_ms(int ms) {
  std::unique_lock<std::mutex> lock(wake_mu_);
  wake_.wait_for(lock, std::chrono::milliseconds(ms),
                 [this] { return stopping_.load(); });
  return !stopping_.load();
}

ShipperStats Shipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::int64_t> Shipper::drain_lag_samples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> out;
  out.swap(lag_samples_);
  return out;
}

}  // namespace ipfsmon::federation
