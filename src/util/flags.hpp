// The one command-line parser. Every example and experiment binary reads
// its argv through util::Flags, so all of them share one grammar:
//
//   --name value  or  --name=value   a value flag; the space form takes the
//                                    next argument unless it starts with
//                                    "--" (use the = form for such values)
//   --name                           a boolean flag; --name=value is an error
//   anything else                    a positional
//
// A flag given twice is an error unless the caller reads every occurrence
// (every()). Numbers are strict: u64/i64 through parse_u64/parse_i64, f64
// must be a finite decimal. Failure is sticky, like ByteReader: the caller
// reads every flag and positional, then checks ok() once — which also
// fails on an argument no read claimed — and exits through usage().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipfsmon::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// Value flags; `fallback` when the flag is absent. Flag names are
  /// spelled with their leading "--".
  std::string text(std::string_view name, std::string fallback = {});
  std::uint64_t u64(std::string_view name, std::uint64_t fallback,
                    std::uint64_t max = UINT64_MAX);
  std::int64_t i64(std::string_view name, std::int64_t fallback);
  double f64(std::string_view name, double fallback);
  /// Every value of a repeatable value flag, in command-line order.
  std::vector<std::string> every(std::string_view name);

  /// A boolean flag: true when given as its bare name.
  bool boolean(std::string_view name);

  /// True when `name` appears in any form. Claims nothing.
  bool has(std::string_view name) const;

  /// Positionals: the arguments no flag claimed, counted from 0. Read them
  /// after every value flag, since a value flag claims the argument after
  /// it. positionals() claims them all.
  std::vector<std::string> positionals();
  std::string text_at(std::size_t index, std::string fallback = {});
  std::uint64_t u64_at(std::size_t index, std::uint64_t fallback,
                       std::uint64_t max = UINT64_MAX);
  double f64_at(std::size_t index, double fallback);

  /// Records a caller's own check (e.g. a value that must be positive).
  /// The first failure wins.
  void fail(std::string message);

  /// True when every read succeeded and every argument was claimed.
  bool ok();
  const std::string& error() const { return error_; }

  /// Prints the error line (if any) and `usage` to stderr and returns 2,
  /// the exit status of a bad command line. Each line of `usage` is one
  /// synopsis and is printed after the program name.
  int usage(std::string_view usage) const;

 private:
  enum class Use : std::uint8_t { kFree, kFlag, kValue, kPositional };

  /// The value given for `name`; nullopt when it is absent, given twice
  /// or given without a value (the last two fail).
  std::optional<std::string> value(std::string_view name);
  /// Claims the occurrence of `name` at args_[i] and returns its value.
  std::optional<std::string> take(std::string_view name, std::size_t i);
  /// Indices of the arguments that are `name` or `name=...`.
  std::vector<std::size_t> occurrences(std::string_view name) const;
  /// Index of positional `index`, or args_.size() when there is none.
  std::size_t positional(std::size_t index) const;
  std::uint64_t to_u64(std::string_view what, const std::string& text,
                       std::uint64_t fallback, std::uint64_t max);
  double to_f64(std::string_view what, const std::string& text,
                double fallback);

  std::string program_;
  std::vector<std::string> args_;
  std::vector<Use> use_;
  std::string error_;
};

}  // namespace ipfsmon::util
