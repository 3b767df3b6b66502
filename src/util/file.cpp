#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <system_error>

namespace ipfsmon::util {

namespace {

constexpr std::string_view kTempSuffix = ".tmp";

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

std::string errno_text() {
  return std::generic_category().message(errno);
}

FileSignature signature_of(const struct stat& st) {
  return FileSignature{
      static_cast<std::uint64_t>(st.st_size),
      static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
          st.st_mtim.tv_nsec};
}

bool read_exact_at(int fd, void* out, std::size_t size, std::uint64_t offset) {
  auto* bytes = static_cast<char*>(out);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::pread(fd, bytes + done, size - done,
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t put = ::write(fd, data, size);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    data += put;
    size -= static_cast<std::size_t>(put);
  }
  return true;
}

/// Reads the last min(`tail`, file size) bytes of the regular file at
/// `path` into `out`. O_NONBLOCK keeps a FIFO planted at `path` from
/// blocking the open; it has no effect on regular-file reads.
template <typename Buffer>
bool read_regular(const std::string& path, std::uint64_t tail, Buffer* out,
                  FileSignature* signature, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return fail(error, path + ": cannot open: " + errno_text());
  struct stat st {};
  std::string why;
  if (::fstat(fd, &st) != 0) {
    why = path + ": cannot stat: " + errno_text();
  } else if (!S_ISREG(st.st_mode)) {
    why = path + ": not a regular file";
  } else {
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (signature != nullptr) *signature = signature_of(st);
    out->resize(static_cast<std::size_t>(std::min(size, tail)));
    if (!read_exact_at(fd, out->data(), out->size(), size - out->size())) {
      why = path + ": short read";
    }
  }
  ::close(fd);
  return why.empty() || fail(error, std::move(why));
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::int64_t> parse_i64(std::string_view text) {
  constexpr auto kMax = static_cast<std::uint64_t>(INT64_MAX);
  const bool negative = text.starts_with('-');
  const auto magnitude =
      parse_u64(negative ? text.substr(1) : text, kMax + negative);
  if (!magnitude) return std::nullopt;
  // -2^63 has no positive counterpart: negate in unsigned arithmetic.
  return static_cast<std::int64_t>(negative ? ~*magnitude + 1 : *magnitude);
}

std::optional<double> parse_f64(std::string_view text) {
  const char* end = text.data() + text.size();
  double value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<FileSignature> file_signature(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return signature_of(st);
}

bool read_file(const std::string& path, std::string* out, std::string* error) {
  return read_regular(path, UINT64_MAX, out, nullptr, error);
}

bool read_file(const std::string& path, Bytes* out, std::string* error,
               FileSignature* signature) {
  return read_regular(path, UINT64_MAX, out, signature, error);
}

bool read_file_tail(const std::string& path, std::size_t tail, Bytes* out,
                    std::uint64_t* file_size, std::string* error) {
  FileSignature signature;
  if (!read_regular(path, tail, out, &signature, error)) return false;
  *file_size = signature.size;
  return true;
}

bool publish(const std::string& path, std::initializer_list<FilePiece> pieces,
             std::string* error, const PublishCheck& check) {
  const std::string temp = path + std::string(kTempSuffix);
  // A fresh file: whatever sits at the temp name (a crash leftover, or a
  // link planted there) is unlinked, never written through.
  ::unlink(temp.c_str());
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return fail(error, "cannot create " + temp + ": " + errno_text());
  bool written = true;
  for (const FilePiece& piece : pieces) {
    if (!write_all(fd, piece.data, piece.size)) {
      written = false;
      break;
    }
  }
  std::string why;
  if (!written) why = "short write to " + temp + ": " + errno_text();
  if (::close(fd) != 0 && why.empty()) {
    why = "cannot close " + temp + ": " + errno_text();
  }
  if (why.empty() && check && !check(temp)) why = temp + ": check failed";
  if (why.empty() && ::rename(temp.c_str(), path.c_str()) != 0) {
    why = "rename " + temp + ": " + errno_text();
  }
  if (why.empty()) return true;
  ::unlink(temp.c_str());
  return fail(error, std::move(why));
}

bool is_publish_temp(std::string_view name) {
  return name.ends_with(kTempSuffix);
}

bool write_file(const std::string& path, std::string_view text,
                std::string* error) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return fail(error, "cannot write " + path);
  const bool written = write_all(fd, text.data(), text.size());
  const bool closed = ::close(fd) == 0;
  return (written && closed) || fail(error, "cannot write " + path);
}

TempDir::TempDir(std::string_view prefix) {
  std::error_code ec;
  const auto base = std::filesystem::temp_directory_path(ec);
  if (ec) return;
  std::string name = (base / (std::string(prefix) + "-XXXXXX")).string();
  if (::mkdtemp(name.data()) != nullptr) path_ = std::move(name);
}

TempDir::~TempDir() {
  std::error_code ec;
  if (!path_.empty()) std::filesystem::remove_all(path_, ec);
}

}  // namespace ipfsmon::util
