// Simulation time primitives. Simulated time is a signed 64-bit count of
// nanoseconds from the scenario epoch — enough head-room for multi-year
// simulated traces (the paper's study spans fifteen months).
#pragma once

#include <cstdint>
#include <string>

namespace ipfsmon::util {

/// A point in simulated time, in nanoseconds since the scenario epoch.
using SimTime = std::int64_t;

/// A span of simulated time, in nanoseconds.
using SimDuration = std::int64_t;

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;
constexpr SimDuration kDay = 24 * kHour;

constexpr SimDuration seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

constexpr double to_days(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kDay);
}

/// Formats a sim time as "d:hh:mm:ss" for logs and tables.
std::string format_sim_time(SimTime t);

}  // namespace ipfsmon::util
