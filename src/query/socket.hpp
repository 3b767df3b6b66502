// TCP plumbing shared by the query daemon, its client, and the federation
// shipper/coordinator: connect with a real timeout, per-socket I/O
// timeouts, whole-buffer send/recv loops that survive EINTR, the
// wall-clock retry backoff, and the one connection server both daemons
// listen through.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"

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
              obs::Counter* sent = nullptr);
inline bool send_all(int fd, std::string_view data,
                     obs::Counter* sent = nullptr) {
  return send_all(fd, data.data(), data.size(), sent);
}

/// Fills the whole buffer; false on EOF, timeout, or error.
bool recv_all(int fd, void* data, std::size_t size);

/// Capped exponential backoff in wall-clock time: the twin of the
/// sim-time discipline net::Network::dial_with_backoff applies to overlay
/// dials. Jitter is omitted: each blocking caller
/// retries alone, so there is no thundering herd to spread.
struct WallBackoff {
  int initial_delay_ms = 100;
  double multiplier = 2.0;
  int max_delay_ms = 5000;
  /// Attempts per bounded retry (first try included); 0 behaves like 1.
  std::size_t max_attempts = 6;

  /// The delay that follows one of `delay_ms`: multiplier× it, capped at
  /// max_delay_ms.
  int next_delay_ms(int delay_ms) const;
};

/// Connections a ConnectionServer runs at once unless told otherwise.
inline constexpr std::size_t kDefaultMaxConnections = 128;

/// One IPv4 listener whose admitted connections each run a session on
/// their own thread — the server core of both the HTTP query daemon and
/// the FMON coordinator, which supply only the per-connection protocol.
///
///  * admission: at most `max_connections` connection threads exist at
///    once; a connection over the cap goes to the refuse callback (on the
///    accept thread) and is closed. Threads whose session returned are
///    joined at each accept.
///  * idle wait: sessions block in wait_readable(), which stop() wakes.
///  * drain: stop() closes the listener, wakes every idle session, and
///    joins every connection thread; bytes that already arrived are still
///    readable, so sessions finish the work in hand.
class ConnectionServer {
 public:
  /// Serves one admitted connection on its own thread. The server closes
  /// `fd` when it returns. `accepted_us` is the wall-clock accept time.
  using Session = std::function<void(int fd, std::int64_t accepted_us)>;
  /// Sees a connection refused over the cap before the server closes it.
  using Refuse = std::function<void(int fd)>;

  explicit ConnectionServer(Session session, Refuse refuse = {});
  ~ConnectionServer();
  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds `bind_address`:`port` (0 = ephemeral), listens, and starts the
  /// accept thread. False (with `error`) on socket errors.
  bool start(const std::string& bind_address, std::uint16_t port,
             std::size_t max_connections, std::string* error = nullptr);

  /// The bound port (resolves ephemeral port 0); valid after start().
  std::uint16_t port() const { return port_; }

  /// True once stop() has been called.
  bool stopping() const { return stopping_.load(); }

  /// Graceful drain; idempotent.
  void stop();

  /// Connection threads not yet joined: running sessions plus finished
  /// ones the next accept reaps.
  std::size_t live_connections() const;

  /// For sessions: waits until `fd` has bytes (or EOF) to read. False on
  /// hangup, after `idle_ms` without bytes (idle_ms <= 0: no limit), or
  /// once stop() has been called and no bytes are pending.
  bool wait_readable(int fd, int idle_ms) const;

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last action
  };

  void accept_loop();

  Session session_;
  Refuse refuse_;
  std::size_t max_connections_ = kDefaultMaxConnections;
  int listen_fd_ = -1;
  /// Written once by stop() and never drained, so it stays readable and
  /// wakes the accept loop and every session in wait_readable().
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  mutable std::mutex threads_mu_;
  // A list so each Connection stays put while others are reaped.
  std::list<Connection> threads_;
  std::thread acceptor_;
};

}  // namespace ipfsmon::query
