#include "query/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include "obs/span.hpp"

namespace ipfsmon::query {

void set_socket_options(int fd, int timeout_ms) {
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int tcp_connect(const std::string& host, std::uint16_t port, int timeout_ms,
                std::string* error) {
  auto fail = [&](const char* what, int fd) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (fd >= 0) ::close(fd);
    return -1;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket", fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton", fd);
  }

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return fail("fcntl", fd);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return fail("connect", fd);
    pollfd pfd{fd, POLLOUT, 0};
    int ready = 0;
    do {
      ready = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      errno = ready == 0 ? ETIMEDOUT : errno;
      return fail("connect", fd);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      return fail("connect", fd);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  set_socket_options(fd, timeout_ms);
  return fd;
}

bool send_all(int fd, const void* data, std::size_t size,
              obs::Counter* sent) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, bytes + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
    if (sent != nullptr) sent->inc(static_cast<std::uint64_t>(n));
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, bytes + off, size - off, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF, timeout, or error
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int WallBackoff::next_delay_ms(int delay_ms) const {
  return std::min(max_delay_ms, static_cast<int>(delay_ms * multiplier));
}

namespace {

// Pending connections the kernel queues before accept().
constexpr int kListenBacklog = 64;

}  // namespace

ConnectionServer::ConnectionServer(Session session, Refuse refuse)
    : session_(std::move(session)), refuse_(std::move(refuse)) {}

ConnectionServer::~ConnectionServer() { stop(); }

bool ConnectionServer::start(const std::string& bind_address,
                             std::uint16_t port, std::size_t max_connections,
                             std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return false;
  };
  auto fail_errno = [&](const char* what) {
    return fail(std::string(what) + ": " + std::strerror(errno));
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("bad bind address " + bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail_errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) return fail_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_pipe_) != 0) return fail_errno("pipe");

  max_connections_ = max_connections;
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void ConnectionServer::stop() {
  if (stopping_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::list<Connection> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(threads_);
  }
  for (auto& conn : threads) conn.thread.join();
  for (int* fd : {&wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

std::size_t ConnectionServer::live_connections() const {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return threads_.size();
}

void ConnectionServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (stopping_.load()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::int64_t accepted_us = obs::wall_micros_now();
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      // Join sessions that already ended, so finished threads do not pile
      // up until stop() and the cap counts live connections.
      threads_.remove_if([](Connection& conn) {
        if (!conn.done.load()) return false;
        conn.thread.join();
        return true;
      });
      if (threads_.size() < max_connections_) {
        Connection& conn = threads_.emplace_back();
        try {
          conn.thread = std::thread([this, fd, accepted_us, &conn] {
            session_(fd, accepted_us);
            ::close(fd);
            conn.done.store(true);
          });
          admitted = true;
        } catch (const std::system_error&) {
          threads_.pop_back();  // no thread to spare: refuse it
        }
      }
    }
    if (!admitted) {
      if (refuse_) refuse_(fd);
      ::close(fd);
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

bool ConnectionServer::wait_readable(int fd, int idle_ms) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(std::max(idle_ms, 0));
  for (;;) {
    int timeout_ms = -1;
    if (idle_ms > 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      timeout_ms = static_cast<int>(left.count());
    }
    pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) return false;  // idle expiry
    // Pending bytes win over stop(): the session finishes what arrived.
    return (fds[0].revents & POLLIN) != 0;
  }
}

}  // namespace ipfsmon::query
