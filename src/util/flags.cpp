#include "util/flags.hpp"

#include <cstdio>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace ipfsmon::util {

Flags::Flags(int argc, const char* const* argv)
    : program_(argc > 0 ? argv[0] : "") {
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  use_.assign(args_.size(), Use::kFree);
}

std::vector<std::size_t> Flags::occurrences(std::string_view name) const {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const std::string_view arg = args_[i];
    if (arg.starts_with(name) &&
        (arg.size() == name.size() || arg[name.size()] == '=')) {
      at.push_back(i);
    }
  }
  return at;
}

std::optional<std::string> Flags::take(std::string_view name, std::size_t i) {
  use_[i] = Use::kFlag;
  if (args_[i].size() > name.size()) return args_[i].substr(name.size() + 1);
  if (i + 1 < args_.size() && !args_[i + 1].starts_with("--")) {
    use_[i + 1] = Use::kValue;
    return args_[i + 1];
  }
  fail(std::string(name) + " needs a value");
  return std::nullopt;
}

std::optional<std::string> Flags::value(std::string_view name) {
  const auto at = occurrences(name);
  if (at.size() > 1) {
    for (const std::size_t i : at) use_[i] = Use::kFlag;
    fail(std::string(name) + " is given more than once");
  }
  if (at.size() != 1) return std::nullopt;
  return take(name, at.front());
}

std::string Flags::text(std::string_view name, std::string fallback) {
  if (auto v = value(name)) return std::move(*v);
  return fallback;
}

std::uint64_t Flags::u64(std::string_view name, std::uint64_t fallback,
                         std::uint64_t max) {
  const auto v = value(name);
  return v ? to_u64(name, *v, fallback, max) : fallback;
}

std::int64_t Flags::i64(std::string_view name, std::int64_t fallback) {
  const auto v = value(name);
  if (!v) return fallback;
  if (const auto parsed = parse_i64(*v)) return *parsed;
  fail(format("%.*s: '%s' is not an integer", static_cast<int>(name.size()),
              name.data(), v->c_str()));
  return fallback;
}

double Flags::f64(std::string_view name, double fallback) {
  const auto v = value(name);
  return v ? to_f64(name, *v, fallback) : fallback;
}

std::vector<std::string> Flags::every(std::string_view name) {
  std::vector<std::string> values;
  for (const std::size_t i : occurrences(name)) {
    if (auto v = take(name, i)) values.push_back(std::move(*v));
  }
  return values;
}

bool Flags::boolean(std::string_view name) {
  const auto at = occurrences(name);
  for (const std::size_t i : at) {
    use_[i] = Use::kFlag;
    if (args_[i].size() != name.size()) {
      fail(std::string(name) + " takes no value");
    }
  }
  if (at.size() > 1) fail(std::string(name) + " is given more than once");
  return !at.empty();
}

bool Flags::has(std::string_view name) const {
  return !occurrences(name).empty();
}

std::size_t Flags::positional(std::size_t index) const {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i].starts_with("--") || use_[i] == Use::kValue) continue;
    if (index-- == 0) return i;
  }
  return args_.size();
}

std::vector<std::string> Flags::positionals() {
  std::vector<std::string> out;
  for (;;) {
    const std::size_t i = positional(out.size());
    if (i == args_.size()) return out;
    use_[i] = Use::kPositional;
    out.push_back(args_[i]);
  }
}

std::string Flags::text_at(std::size_t index, std::string fallback) {
  const std::size_t i = positional(index);
  if (i == args_.size()) return fallback;
  use_[i] = Use::kPositional;
  return args_[i];
}

std::uint64_t Flags::u64_at(std::size_t index, std::uint64_t fallback,
                            std::uint64_t max) {
  const std::size_t i = positional(index);
  if (i == args_.size()) return fallback;
  use_[i] = Use::kPositional;
  return to_u64(format("argument %zu", index + 1), args_[i], fallback, max);
}

double Flags::f64_at(std::size_t index, double fallback) {
  const std::size_t i = positional(index);
  if (i == args_.size()) return fallback;
  use_[i] = Use::kPositional;
  return to_f64(format("argument %zu", index + 1), args_[i], fallback);
}

std::uint64_t Flags::to_u64(std::string_view what, const std::string& text,
                            std::uint64_t fallback, std::uint64_t max) {
  if (const auto parsed = parse_u64(text, max)) return *parsed;
  std::string message = std::string(what) + ": '" + text + "' is not ";
  message += max == UINT64_MAX
                 ? "a non-negative integer"
                 : format("an integer in [0, %llu]",
                          static_cast<unsigned long long>(max));
  fail(std::move(message));
  return fallback;
}

double Flags::to_f64(std::string_view what, const std::string& text,
                     double fallback) {
  if (const auto parsed = parse_f64(text)) return *parsed;
  fail(format("%.*s: '%s' is not a finite number",
              static_cast<int>(what.size()), what.data(), text.c_str()));
  return fallback;
}

void Flags::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

bool Flags::ok() {
  for (std::size_t i = 0; i < args_.size() && error_.empty(); ++i) {
    if (use_[i] != Use::kFree) continue;
    const std::string& arg = args_[i];
    fail(arg.starts_with("--") ? "unknown flag " + arg.substr(0, arg.find('='))
                               : "unexpected argument '" + arg + "'");
  }
  return error_.empty();
}

int Flags::usage(std::string_view usage) const {
  if (!error_.empty()) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), error_.c_str());
  }
  const char* lead = "usage:";
  for (const std::string& line : split(usage, '\n')) {
    std::fprintf(stderr, "%s %s %s\n", lead, program_.c_str(), line.c_str());
    lead = "      ";
  }
  return 2;
}

}  // namespace ipfsmon::util
