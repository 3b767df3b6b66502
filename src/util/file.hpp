// The one file layer. Every file the library publishes (segments, rollups,
// MANIFEST, STOREMETA, INGEST.ckpt, FEDERATION) goes through publish(),
// every whole-file read (segment bodies included) through read_file(),
// every segment-footer read through read_file_tail(), every (size, mtime)
// signature through file_signature() or the read_file() that read the
// file, and every number read back from disk, the wire or a command line
// through parse_u64()/parse_i64()/parse_f64().
//
// publish() is atomic against process crashes only: a reader sees the old
// file or the new one, never a torn one. Nothing is fsync'd, so a power
// loss may still lose or tear the latest publish.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace ipfsmon::util {

/// Strict decimal: digits only, no sign, whitespace or empty text, and at
/// most `max`. Nullopt otherwise.
std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t max = UINT64_MAX);

/// Strict decimal: an optional leading '-', then digits only, within the
/// int64 range. Nullopt otherwise.
std::optional<std::int64_t> parse_i64(std::string_view text);

/// Strict decimal floating point (std::from_chars' general format: no
/// sign other than a leading '-', no whitespace, no hex), finite. Nullopt
/// otherwise, including for "inf", "nan" and values past the double range.
std::optional<double> parse_f64(std::string_view text);

/// A file's (size, mtime) as stat reports them: the key ValidationCache
/// keeps verified segments under. file_signature() and read_file() agree,
/// so the signature the coordinator records after landing a segment
/// matches the one the serving store's segment read takes.
struct FileSignature {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;  // since the unix epoch

  bool operator==(const FileSignature&) const = default;
};

std::optional<FileSignature> file_signature(const std::string& path);

/// Reads a whole regular file: exactly st_size bytes. Fails, with `error`
/// naming the path, on anything else (a directory, a device, a FIFO, a
/// link to one, or a file that shrank mid-read). `signature`, when given,
/// receives the file's signature from the same fstat that sized the read.
bool read_file(const std::string& path, std::string* out,
               std::string* error = nullptr);
bool read_file(const std::string& path, Bytes* out,
               std::string* error = nullptr,
               FileSignature* signature = nullptr);

/// Reads the last min(`tail`, file size) bytes of a regular file, under
/// the same rule as read_file(), and reports the whole file's size.
bool read_file_tail(const std::string& path, std::size_t tail, Bytes* out,
                    std::uint64_t* file_size, std::string* error = nullptr);

/// One piece of a published file, by reference; pieces are written back
/// to back, never concatenated first.
struct FilePiece {
  FilePiece(const std::string& text) : data(text.data()), size(text.size()) {}
  FilePiece(const Bytes& bytes)
      : data(reinterpret_cast<const char*>(bytes.data())),
        size(bytes.size()) {}

  const char* data;
  std::size_t size;
};

/// Checks the written temp file (by path) before it is published.
using PublishCheck = std::function<bool(const std::string& temp_path)>;

/// Replaces `path` atomically: writes `pieces` to a fresh temp file beside
/// it, checks every write and the close, runs `check` on the temp when one
/// is given, then renames the temp over `path`. On any failure returns
/// false with `error` set, leaves `path` untouched and removes the temp.
bool publish(const std::string& path, std::initializer_list<FilePiece> pieces,
             std::string* error = nullptr, const PublishCheck& check = {});

/// True for the name of a temp file publish() may leave behind when the
/// process dies mid-publish. Crash recovery deletes these.
bool is_publish_temp(std::string_view name);

/// Writes `text` to `path` in place (not atomic), replacing any previous
/// file. For outputs nothing reads back (span exports, metrics sidecars,
/// BENCH artifacts). Returns false, with `error` naming the path, when the
/// file cannot be opened, written or closed in full.
bool write_file(const std::string& path, std::string_view text,
                std::string* error = nullptr);

/// A fresh, uniquely named directory under the system temp directory
/// (mkdtemp), removed with everything in it when the object goes out of
/// scope, so concurrent runs never share or wipe one.
class TempDir {
 public:
  explicit TempDir(std::string_view prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ipfsmon::util
