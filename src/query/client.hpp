// A tiny blocking HTTP client for loopback use: the query tests drive the
// daemon end-to-end with it, and the throughput bench uses it as the load
// generator. One request per call, "Connection: close" framing.
//
// Connects carry a real timeout (non-blocking connect + poll — SO_SNDTIMEO
// does not bound connect()), and reads/writes are bounded by
// SO_RCVTIMEO/SNDTIMEO. http_get_retry() adds WallBackoff retries, so
// tests and bench harnesses survive a daemon that is not up yet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "query/http.hpp"
#include "query/socket.hpp"

namespace ipfsmon::query {

/// GET `target` from host:port; nullopt on connect/IO/parse failure.
/// `timeout_ms` bounds the connect and each read/write.
std::optional<HttpResponse> http_get(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target,
                                     int timeout_ms = 5000,
                                     std::string* error = nullptr);

/// http_get with capped exponential-backoff retries: a failed connect or
/// exchange sleeps initial_delay_ms, then each next_delay_ms, before the
/// next attempt, up to max_attempts total.
/// `error` reports the last attempt's failure.
std::optional<HttpResponse> http_get_retry(const std::string& host,
                                           std::uint16_t port,
                                           const std::string& target,
                                           const WallBackoff& policy = {},
                                           int timeout_ms = 5000,
                                           std::string* error = nullptr);

/// Sends `bytes` verbatim and returns everything the server answers until
/// it closes (or the timeout hits). For malformed-request tests. When
/// `half_close` is set the write side shuts down after sending, signalling
/// an early client disconnect.
std::optional<std::string> raw_exchange(const std::string& host,
                                        std::uint16_t port,
                                        const std::string& bytes,
                                        int timeout_ms = 5000,
                                        bool half_close = false,
                                        std::string* error = nullptr);

}  // namespace ipfsmon::query
