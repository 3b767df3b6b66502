#include "query/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "query/socket.hpp"

namespace ipfsmon::query {

namespace {

std::string recv_until_close(int fd) {
  std::string out;
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // closed, error, or timeout — return what we have
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace

std::optional<HttpResponse> http_get(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target, int timeout_ms,
                                     std::string* error) {
  const int fd = tcp_connect(host, port, timeout_ms, error);
  if (fd < 0) return std::nullopt;
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    if (error != nullptr) *error = "send failed";
    ::close(fd);
    return std::nullopt;
  }
  const std::string raw = recv_until_close(fd);
  ::close(fd);
  auto response = parse_response(raw);
  if (!response && error != nullptr) *error = "unparseable response";
  return response;
}

std::optional<HttpResponse> http_get_retry(const std::string& host,
                                           std::uint16_t port,
                                           const std::string& target,
                                           const HttpRetryPolicy& policy,
                                           int timeout_ms, std::string* error) {
  const std::size_t attempts = std::max<std::size_t>(1, policy.max_attempts);
  int delay_ms = policy.initial_delay_ms;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = std::min(policy.max_delay_ms,
                          static_cast<int>(delay_ms * policy.multiplier));
    }
    auto response = http_get(host, port, target, timeout_ms, error);
    if (response) return response;
  }
  return std::nullopt;
}

std::optional<std::string> raw_exchange(const std::string& host,
                                        std::uint16_t port,
                                        const std::string& bytes,
                                        int timeout_ms, bool half_close,
                                        std::string* error) {
  const int fd = tcp_connect(host, port, timeout_ms, error);
  if (fd < 0) return std::nullopt;
  if (!bytes.empty() && !send_all(fd, bytes)) {
    if (error != nullptr) *error = "send failed";
    ::close(fd);
    return std::nullopt;
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  const std::string raw = recv_until_close(fd);
  ::close(fd);
  return raw;
}

}  // namespace ipfsmon::query
