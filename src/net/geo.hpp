// Synthetic geography: the stand-in for the MaxMind GeoIP2 database the
// paper resolves trace IPs against (Sec. V-D, Table II). Each country owns
// disjoint IP blocks, carries a population weight, and has 2D coordinates
// from which pairwise link latencies are derived.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace ipfsmon::net {

struct CountrySpec {
  std::string code;      // ISO-3166-ish code, e.g. "US"
  double node_weight;    // relative share of the node population
  double x, y;           // abstract map coordinates (roughly Mm scale)
};

/// The default world used by experiments: country weights tuned so that a
/// request-volume breakdown reproduces the shape of the paper's Table II
/// (US-dominated, followed by NL/DE/CA/FR, long tail of others).
std::vector<CountrySpec> default_world();

class GeoDatabase {
 public:
  explicit GeoDatabase(std::vector<CountrySpec> countries);

  /// Default-world database.
  static GeoDatabase standard();

  const std::vector<CountrySpec>& countries() const { return countries_; }

  /// Samples a country code according to node weights.
  const std::string& sample_country(util::RngStream& rng) const;

  /// Allocates a fresh, unique IP address inside the country's block.
  Address allocate_address(const std::string& country_code);

  /// GeoIP lookup: which country does this IP belong to? ("??" if none —
  /// mirrors GeoIP databases having unresolvable addresses.)
  std::string lookup(std::uint32_t ip) const;
  std::string lookup(const Address& addr) const { return lookup(addr.ip); }

  /// One-way propagation latency between two countries, jittered.
  /// Derived from coordinate distance plus a base hop cost.
  util::SimDuration latency(const std::string& a, const std::string& b,
                            util::RngStream& rng) const;

  /// Deterministic mean latency (no jitter), for tests.
  util::SimDuration mean_latency(const std::string& a,
                                 const std::string& b) const;

 private:
  const CountrySpec* find(const std::string& code) const;

  std::vector<CountrySpec> countries_;
  std::vector<double> weights_;
  // Country index -> next host counter for IP allocation; each country i
  // owns the /8 blocks starting at (10 + i) << 24 (one /8 ≈ 16.7M hosts,
  // far above any simulated population).
  std::vector<std::uint32_t> next_host_;
  std::unordered_map<std::uint32_t, std::size_t> block_to_country_;
};

}  // namespace ipfsmon::net
