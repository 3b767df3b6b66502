// Small string helpers: splitting, formatting and table padding.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ipfsmon::util {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Right-pads (or truncates) a string to a fixed width, for table printing.
std::string pad_right(std::string_view s, std::size_t width);

/// Left-pads a string to a fixed width.
std::string pad_left(std::string_view s, std::size_t width);

}  // namespace ipfsmon::util
