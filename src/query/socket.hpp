// Blocking TCP plumbing shared by the query daemon, its client, and the
// federation shipper/coordinator: connect with a real timeout, per-socket
// I/O timeouts, and whole-buffer send/recv loops that survive EINTR.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ipfsmon::query {

/// Bounds every subsequent read/write with SO_RCVTIMEO/SO_SNDTIMEO (when
/// timeout_ms > 0) and turns on TCP_NODELAY.
void set_socket_options(int fd, int timeout_ms);

/// Connects to IPv4 `host`:`port`. The connect itself is bounded by
/// `timeout_ms` (non-blocking connect + poll: SO_SNDTIMEO does not bound
/// connect(), so a peer dropping SYNs would otherwise block for the
/// kernel's retry schedule); timeout_ms <= 0 waits indefinitely. The
/// returned fd is blocking and carries set_socket_options. Returns -1 and
/// sets `error` on failure.
int tcp_connect(const std::string& host, std::uint16_t port, int timeout_ms,
                std::string* error = nullptr);

/// Sends the whole buffer; false on error, timeout, or peer reset. When
/// `sent` is non-null, every byte the kernel accepts is added to it.
bool send_all(int fd, const void* data, std::size_t size,
              std::atomic<std::uint64_t>* sent = nullptr);
inline bool send_all(int fd, std::string_view data,
                     std::atomic<std::uint64_t>* sent = nullptr) {
  return send_all(fd, data.data(), data.size(), sent);
}

/// Fills the whole buffer; false on EOF, timeout, or error.
bool recv_all(int fd, void* data, std::size_t size);

}  // namespace ipfsmon::query
