// A small embedded HTTP/1.1 server over POSIX sockets, built for the
// query daemon, so the priorities are predictability and clean shutdown
// rather than raw connection volume. The listener, admission and drain
// are the shared ConnectionServer (query/socket.hpp); this class is the
// HTTP protocol on one connection:
//
//  * connection cap — each admitted connection gets its own thread, up to
//    max_connections; beyond that new connections are refused with a
//    one-shot 503 instead of queueing without limit;
//  * per-connection timeouts: an idle keep-alive connection closes after
//    io_timeout_ms, a stalled half-request gets 408, and SO_SNDTIMEO
//    bounds every write, so a stalled client cannot pin a thread;
//  * request-size limits enforced by the parser (431/413 responses);
//  * keep-alive with pipelining support, capped at 256 requests per
//    connection;
//  * graceful drain: stop() closes the listener, lets every connection
//    finish the requests already received, then joins every thread.
//    Idle keep-alive connections close at once.
//
// Counters are obs counters in the server's own registry, bumped from the
// connection threads; the query service appends metrics_text() when it
// renders /metrics, so they share the Prometheus endpoint with sim and scan
// metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "query/http.hpp"
#include "query/socket.hpp"

namespace ipfsmon::query {

struct ServerOptions {
  /// Bind address; the daemon serves loopback by default.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (see HttpServer::port() after start()).
  std::uint16_t port = 0;
  /// Connections served at once, one thread each; more get a 503.
  std::size_t max_connections = kDefaultMaxConnections;
  /// Idle-connection limit and SO_RCVTIMEO / SO_SNDTIMEO, milliseconds.
  int io_timeout_ms = 5000;
  HttpLimits limits;
};

/// Monotonic server counters (snapshot via HttpServer::counters()).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // connection cap reached
  std::uint64_t requests = 0;              // requests answered (any status)
  std::uint64_t parse_errors = 0;          // 400/413/431/501 responses
  std::uint64_t timeouts = 0;              // read timed out mid-request
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(ServerOptions options, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts accepting. False on socket errors.
  bool start(std::string* error = nullptr);

  /// The bound port (resolves ephemeral port 0); valid after start().
  std::uint16_t port() const { return connections_.port(); }

  /// Graceful drain; idempotent, also called by the destructor.
  void stop();

  ServerCounters counters() const;
  /// The counters as Prometheus text (`ipfsmon_query_server_*`).
  std::string metrics_text() const;
  /// Connection threads not yet joined (see ConnectionServer).
  std::size_t live_connections() const {
    return connections_.live_connections();
  }

 private:
  /// Serves one connection; `accepted_us` seeds the first request's
  /// HttpRequest accepted_us/parsed_us metadata (span tracing).
  void serve_connection(int fd, std::int64_t accepted_us);
  /// The one-shot 503 for a connection over the cap.
  void refuse(int fd);

  ServerOptions options_;
  Handler handler_;

  obs::MetricsRegistry metrics_;
  obs::Counter& connections_accepted_;
  obs::Counter& connections_rejected_;
  obs::Counter& requests_;
  obs::Counter& parse_errors_;
  obs::Counter& timeouts_;
  obs::Counter& bytes_read_;
  obs::Counter& bytes_written_;

  // Last: its threads use every member above, so it stops first.
  ConnectionServer connections_;
};

}  // namespace ipfsmon::query
