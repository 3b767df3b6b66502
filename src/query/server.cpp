#include "query/server.hpp"

#include <sys/socket.h>

#include "obs/exporters.hpp"
#include "obs/span.hpp"

namespace ipfsmon::query {

namespace {

/// Keep-alive requests served on one connection before closing.
constexpr std::size_t kMaxRequestsPerConnection = 256;

}  // namespace

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      connections_accepted_(metrics_.counter(
          "ipfsmon_query_server_connections_total", "connections accepted")),
      connections_rejected_(metrics_.counter(
          "ipfsmon_query_server_rejected_total",
          "connections refused with 503 (connection cap reached)")),
      requests_(metrics_.counter("ipfsmon_query_server_requests_total",
                                 "HTTP requests answered")),
      parse_errors_(metrics_.counter("ipfsmon_query_server_parse_errors_total",
                                     "malformed requests rejected")),
      timeouts_(metrics_.counter("ipfsmon_query_server_timeouts_total",
                                 "reads timed out mid-request")),
      bytes_read_(metrics_.counter("ipfsmon_query_server_bytes_read_total",
                                   "bytes received")),
      bytes_written_(metrics_.counter(
          "ipfsmon_query_server_bytes_written_total", "bytes sent")),
      connections_(
          [this](int fd, std::int64_t accepted_us) {
            serve_connection(fd, accepted_us);
          },
          [this](int fd) { refuse(fd); }) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  return connections_.start(options_.bind_address, options_.port,
                            options_.max_connections, error);
}

void HttpServer::stop() { connections_.stop(); }

ServerCounters HttpServer::counters() const {
  ServerCounters c;
  c.connections_accepted = connections_accepted_.value();
  c.connections_rejected = connections_rejected_.value();
  c.requests = requests_.value();
  c.parse_errors = parse_errors_.value();
  c.timeouts = timeouts_.value();
  c.bytes_read = bytes_read_.value();
  c.bytes_written = bytes_written_.value();
  return c;
}

std::string HttpServer::metrics_text() const {
  return obs::to_prometheus(metrics_);
}

void HttpServer::refuse(int fd) {
  // Shed load visibly: a one-shot 503 instead of an unbounded backlog.
  connections_rejected_.inc();
  set_socket_options(fd, options_.io_timeout_ms);
  send_all(fd,
           serialize_response(error_response(503, "server overloaded"),
                              /*keep_alive=*/false),
           &bytes_written_);
}

void HttpServer::serve_connection(int fd, std::int64_t accepted_us) {
  connections_accepted_.inc();
  // First request on the connection dates from accept; each keep-alive
  // successor dates from the end of the previous response.
  std::int64_t request_epoch_us = accepted_us;
  set_socket_options(fd, options_.io_timeout_ms);

  std::string buffer;
  std::size_t served = 0;
  char chunk[8192];
  bool mid_request = false;  // bytes of an unfinished request are buffered
  for (;;) {
    // Drain every complete (possibly pipelined) request already buffered.
    bool close_connection = false;
    for (;;) {
      if (buffer.empty()) break;
      HttpRequest request;
      std::size_t consumed = 0;
      const ParseStatus status =
          parse_request(buffer, options_.limits, &request, &consumed);
      if (status == ParseStatus::kNeedMore) {
        mid_request = true;
        break;
      }
      mid_request = false;
      if (status != ParseStatus::kDone) {
        const int code = status == ParseStatus::kTooLarge      ? 431
                         : status == ParseStatus::kUnsupported ? 501
                                                               : 400;
        parse_errors_.inc();
        requests_.inc();
        send_all(fd,
                 serialize_response(error_response(code, "malformed request"),
                                    /*keep_alive=*/false),
                 &bytes_written_);
        close_connection = true;
        break;
      }
      buffer.erase(0, consumed);
      request.accepted_us = request_epoch_us;
      request.parsed_us = obs::wall_micros_now();
      const HttpResponse response = handler_(request);
      const bool keep_alive = request.keep_alive() &&
                              ++served < kMaxRequestsPerConnection &&
                              !connections_.stopping();
      requests_.inc();
      if (!send_all(fd, serialize_response(response, keep_alive),
                    &bytes_written_)) {
        close_connection = true;
        break;
      }
      if (!keep_alive) {
        close_connection = true;
        break;
      }
      request_epoch_us = obs::wall_micros_now();
    }
    if (close_connection) break;

    if (!connections_.wait_readable(fd, options_.io_timeout_ms)) {
      if (mid_request && !connections_.stopping()) {
        // Idle expiry with half a request buffered: tell the client.
        timeouts_.inc();
        send_all(fd,
                 serialize_response(error_response(408, "request timeout"),
                                    /*keep_alive=*/false),
                 &bytes_written_);
      }
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    // Client closed (possibly mid-request: just drop it) or reset.
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    bytes_read_.inc(static_cast<std::uint64_t>(n));
  }
}

}  // namespace ipfsmon::query
