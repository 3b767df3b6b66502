// The all-or-nothing contract of a crash-safe publish, checked against the
// two ways one can go wrong: a link to /dev/full planted at the temp name
// (every write through it fails) and a non-empty directory at the target
// (the rename fails).
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

namespace ipfsmon::testing_helpers {

inline std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Calls `publish` (which publishes `bytes` at `dir`/`name` and returns its
/// result) once per hazard. After each call one of two outcomes must hold:
/// it returned false, the target is unchanged and no temp remains; or it
/// returned true and the target is a regular file holding exactly `bytes`.
/// The caller skips when /dev/full is absent.
inline void expect_publish_all_or_nothing(
    const std::string& dir, const std::string& name, const std::string& bytes,
    const std::function<bool()>& publish) {
  namespace fs = std::filesystem;
  const fs::path target = fs::path(dir) / name;
  const fs::path temp = fs::path(dir) / (name + ".tmp");
  // Reads the target only once it is known to be a regular file: a link
  // to /dev/full would read zeros without end.
  const auto expect_published = [&] {
    const bool regular = fs::is_regular_file(fs::symlink_status(target));
    EXPECT_TRUE(regular) << name;
    if (regular) {
      EXPECT_EQ(read_text(target), bytes) << name;
    }
  };

  // Hazard 1: the temp name links to a device that fails every write.
  fs::remove_all(target);
  fs::remove_all(temp);  // removes a link, never what it points to
  { std::ofstream(target) << "old"; }
  fs::create_symlink("/dev/full", temp);
  if (publish()) {
    expect_published();
  } else {
    EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(target))) << name;
    EXPECT_EQ(read_text(target), "old") << name;
  }
  EXPECT_FALSE(fs::exists(fs::symlink_status(temp))) << name;

  // Hazard 2: the target is a non-empty directory.
  fs::remove_all(target);
  fs::remove_all(temp);
  fs::create_directories(target / "child");
  if (publish()) {
    expect_published();
  } else {
    EXPECT_TRUE(fs::is_directory(fs::symlink_status(target))) << name;
    EXPECT_TRUE(fs::exists(target / "child")) << name;
  }
  EXPECT_FALSE(fs::exists(fs::symlink_status(temp))) << name;
  fs::remove_all(target);
}

}  // namespace ipfsmon::testing_helpers
