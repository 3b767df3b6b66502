#include "query/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

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
              std::atomic<std::uint64_t>* sent) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, bytes + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
    if (sent != nullptr) {
      sent->fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    }
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

}  // namespace ipfsmon::query
