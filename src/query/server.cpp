#include "query/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/span.hpp"
#include "query/socket.hpp"

namespace ipfsmon::query {

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("inet_pton " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0) return fail("pipe");

  stopping_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  const std::size_t workers = std::max<std::size_t>(1, options_.worker_threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Wake the acceptor's poll(); it closes the listener on exit.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Workers drain whatever the acceptor already admitted, then exit.
  queue_ready_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  for (int* fd : {&wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

ServerCounters HttpServer::counters() const {
  ServerCounters c;
  c.connections_accepted = connections_accepted_.load();
  c.connections_rejected = connections_rejected_.load();
  c.requests = requests_.load();
  c.parse_errors = parse_errors_.load();
  c.timeouts = timeouts_.load();
  c.bytes_read = bytes_read_.load();
  c.bytes_written = bytes_written_.load();
  return c;
}

void HttpServer::accept_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (stopping_.load()) break;
    if (ready <= 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() < options_.accept_queue_limit) {
        pending_.push_back(PendingConn{fd, obs::wall_micros_now()});
        in_flight_.fetch_add(1);
        admitted = true;
      }
    }
    if (admitted) {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      queue_ready_.notify_one();
    } else {
      // Shed load visibly: a one-shot 503 instead of an unbounded queue.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      set_socket_options(fd, options_.io_timeout_ms);
      const std::string payload = serialize_response(
          error_response(503, "server overloaded"), /*keep_alive=*/false);
      send_all(fd, payload, &bytes_written_);
      ::close(fd);
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::worker_loop() {
  for (;;) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_ready_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load();
      });
      if (pending_.empty()) return;  // stopping and drained
      conn = pending_.front();
      pending_.pop_front();
    }
    serve_connection(conn);
    in_flight_.fetch_sub(1);
  }
}

void HttpServer::serve_connection(PendingConn conn) {
  const int fd = conn.fd;
  // First request on the connection dates from accept; each keep-alive
  // successor dates from the end of the previous response.
  std::int64_t request_epoch_us = conn.accepted_us;
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
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        requests_.fetch_add(1, std::memory_order_relaxed);
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
                              ++served < options_.max_requests_per_connection &&
                              !stopping_.load();
      requests_.fetch_add(1, std::memory_order_relaxed);
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

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // client closed (possibly mid-request: just drop it)
    if (n < 0) {
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && mid_request) {
        // Read timeout with half a request buffered: tell the client.
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        send_all(fd,
                 serialize_response(error_response(408, "request timeout"),
                                    /*keep_alive=*/false),
                 &bytes_written_);
      }
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    bytes_read_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  }
  ::close(fd);
}

}  // namespace ipfsmon::query
