// Sizes of the three workloads and helpers shared between the generators
// and the workload runners. README.md explains why each size was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "scenario/study.hpp"

namespace perfbench {

// ingest: one plain NDJSON capture, rotated into files of equal length.
inline constexpr std::uint64_t kIngestLines = 1000000;
inline constexpr std::uint64_t kIngestFiles = 10;

/// Path of rotated capture file `index` in an ingest input directory.
std::string ingest_capture_path(const std::string& dir, std::uint64_t index);

// serve: one flagged multi-segment store and the clients' request script.
inline constexpr std::uint64_t kServeEntries = 2000000;
inline constexpr std::uint64_t kServeSegmentEntries = 32768;
inline constexpr std::uint64_t kServeScriptRequests = 40000;
inline constexpr std::size_t kServeClients = 4;

// serve's federation pass: per-monitor spill stores, generated into the
// "federate" directory of the serve inputs with their own manifest, shipped
// to one coordinator.
inline constexpr const char* kFederateDir = "federate";
inline constexpr const char* kFederateManifest = "MANIFEST";
inline constexpr std::uint32_t kFederateMonitors = 4;
inline constexpr std::uint64_t kFederateEntries = 100000;
inline constexpr std::uint64_t kFederateSegmentEntries = 384;

/// The study's configuration for `seed`: ~10^4 nodes, gateways on, two
/// passive monitors spilling under `spill_dir`, span tracing off.
ipfsmon::scenario::StudyConfig study_config(std::uint64_t seed,
                                            const std::string& spill_dir);

/// Canonical text of study_config() (everything but the spill path) — the
/// study's input, hashed like a generated file.
std::string study_config_text(std::uint64_t seed);

/// FNV-1a 64 of `text`.
std::uint64_t fnv_text(std::string_view text);

}  // namespace perfbench
