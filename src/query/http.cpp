#include "query/http.hpp"

#include <algorithm>
#include <cctype>

#include "util/file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ipfsmon::query {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_')) {
      return false;
    }
  }
  return true;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void parse_query_params(std::string_view query,
                        std::map<std::string, std::string>* out) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    const std::size_t amp = std::min(query.find('&', pos), query.size());
    const std::string_view pair = query.substr(pos, amp - pos);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        (*out)[url_decode(pair, true)] = "";
      } else {
        (*out)[url_decode(pair.substr(0, eq), true)] =
            url_decode(pair.substr(eq + 1), true);
      }
    }
    if (amp == query.size()) break;
    pos = amp + 1;
  }
}

/// Splits headers text (between request line and blank line) into
/// lowercase-name/value pairs. Returns false on malformed lines.
bool parse_header_lines(std::string_view text,
                        std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol == text.size() ? text.size() : eol + 2;
    if (line.empty()) continue;
    // No obs-fold continuation lines; a leading blank is malformed.
    if (line.front() == ' ' || line.front() == '\t') return false;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    const std::string_view name = line.substr(0, colon);
    if (!is_token(name)) return false;
    out->emplace_back(to_lower(name), std::string(trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

std::string url_decode(std::string_view text, bool plus_as_space) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    if (plus_as_space && c == '+') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const std::string* HttpRequest::header(std::string_view name) const {
  const std::string lower = to_lower(name);
  for (const auto& [key, value] : headers) {
    if (key == lower) return &value;
  }
  return nullptr;
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("connection");
  if (connection != nullptr) {
    const std::string value = to_lower(*connection);
    if (value.find("close") != std::string::npos) return false;
    if (value.find("keep-alive") != std::string::npos) return true;
  }
  return version == "HTTP/1.1";
}

ParseStatus parse_request(std::string_view buffer, const HttpLimits& limits,
                          HttpRequest* out, std::size_t* consumed) {
  // --- Request line --------------------------------------------------------
  const std::size_t line_end = buffer.find("\r\n");
  if (line_end == std::string_view::npos) {
    return buffer.size() > limits.max_request_line ? ParseStatus::kTooLarge
                                                   : ParseStatus::kNeedMore;
  }
  if (line_end > limits.max_request_line) return ParseStatus::kTooLarge;
  const std::string_view request_line = buffer.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return ParseStatus::kBadRequest;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  // Methods are upper-case tokens; anything else is not an HTTP verb.
  if (!is_token(method) ||
      std::any_of(method.begin(), method.end(), [](unsigned char c) {
        return std::islower(c) != 0;
      })) {
    return ParseStatus::kBadRequest;
  }
  if (target.empty() || target.front() != '/') return ParseStatus::kBadRequest;
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return ParseStatus::kUnsupported;
  }

  // --- Headers -------------------------------------------------------------
  const std::size_t headers_begin = line_end + 2;
  const std::size_t blank = buffer.find("\r\n\r\n", line_end);
  if (blank == std::string_view::npos) {
    return buffer.size() - headers_begin > limits.max_header_bytes
               ? ParseStatus::kTooLarge
               : ParseStatus::kNeedMore;
  }
  const std::size_t headers_end = blank + 2;  // keep the final CRLF pair off
  if (headers_end - headers_begin > limits.max_header_bytes) {
    return ParseStatus::kTooLarge;
  }

  HttpRequest request;
  request.method = std::string(method);
  request.target = std::string(target);
  request.version = std::string(version);
  if (!parse_header_lines(
          buffer.substr(headers_begin, headers_end - headers_begin),
          &request.headers)) {
    return ParseStatus::kBadRequest;
  }

  // --- Body framing (Content-Length only; no chunked support) --------------
  std::size_t body_len = 0;
  if (const std::string* te = request.header("transfer-encoding");
      te != nullptr) {
    return ParseStatus::kUnsupported;
  }
  if (const std::string* cl = request.header("content-length");
      cl != nullptr) {
    // RFC 9110: digits only (no sign, no whitespace inside the value).
    const auto parsed = util::parse_u64(*cl);
    if (!parsed) return ParseStatus::kBadRequest;
    if (*parsed > limits.max_body_bytes) return ParseStatus::kTooLarge;
    body_len = static_cast<std::size_t>(*parsed);
  }
  const std::size_t body_begin = blank + 4;
  if (buffer.size() - body_begin < body_len) return ParseStatus::kNeedMore;
  request.body = std::string(buffer.substr(body_begin, body_len));

  // --- Target decomposition ------------------------------------------------
  const std::size_t qmark = request.target.find('?');
  request.path = url_decode(request.target.substr(0, qmark));
  if (qmark != std::string::npos) {
    parse_query_params(
        std::string_view(request.target).substr(qmark + 1), &request.params);
  }

  *out = std::move(request);
  *consumed = body_begin + body_len;
  return ParseStatus::kDone;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string serialize_response(const HttpResponse& response, bool keep_alive) {
  std::string out = util::format("HTTP/1.1 %d ", response.status);
  out += status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += util::format("\r\nContent-Length: %zu", response.body.size());
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  for (const auto& [name, value] : response.headers) {
    out += "\r\n";
    out += name;
    out += ": ";
    out += value;
  }
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse error_response(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  util::json::Writer(response.body)
      .begin_object()
      .key("error").string(message)
      .end_object();
  return response;
}

std::optional<HttpResponse> parse_response(std::string_view data) {
  const std::size_t line_end = data.find("\r\n");
  if (line_end == std::string_view::npos) return std::nullopt;
  const std::string_view status_line = data.substr(0, line_end);
  if (status_line.rfind("HTTP/1.", 0) != 0) return std::nullopt;
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    return std::nullopt;
  }
  const auto status = util::parse_u64(status_line.substr(sp + 1, 3), 999);
  if (!status) return std::nullopt;
  HttpResponse response;
  response.status = static_cast<int>(*status);
  const std::size_t blank = data.find("\r\n\r\n");
  if (blank == std::string_view::npos) return std::nullopt;
  std::vector<std::pair<std::string, std::string>> headers;
  if (!parse_header_lines(data.substr(line_end + 2, blank - line_end),
                          &headers)) {
    return std::nullopt;
  }
  std::size_t body_len = data.size() - (blank + 4);
  for (const auto& [name, value] : headers) {
    if (name == "content-type") {
      response.content_type = value;
    } else if (name == "content-length") {
      const auto declared = util::parse_u64(value);
      if (!declared) return std::nullopt;
      body_len = std::min<std::uint64_t>(body_len, *declared);
    } else {
      response.headers.emplace_back(name, value);
    }
  }
  response.body = std::string(data.substr(blank + 4, body_len));
  return response;
}

}  // namespace ipfsmon::query
