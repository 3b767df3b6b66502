#include "util/strings.hpp"

#include <cstdarg>
#include <cstdio>

#include "util/time.hpp"

namespace ipfsmon::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s.substr(0, width));
  out.resize(width, ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s.substr(0, width));
  std::string out(width - s.size(), ' ');
  out += s;
  return out;
}

std::string format_sim_time(SimTime t) {
  const std::int64_t total_s = t / kSecond;
  const std::int64_t days = total_s / 86400;
  const std::int64_t hours = (total_s / 3600) % 24;
  const std::int64_t mins = (total_s / 60) % 60;
  const std::int64_t secs = total_s % 60;
  return format("%lld:%02lld:%02lld:%02lld", static_cast<long long>(days),
                static_cast<long long>(hours), static_cast<long long>(mins),
                static_cast<long long>(secs));
}

}  // namespace ipfsmon::util
