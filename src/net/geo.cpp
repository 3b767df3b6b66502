#include "net/geo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ipfsmon::net {

std::vector<CountrySpec> default_world() {
  // Weights approximate the activity shares behind the paper's Table II.
  // Coordinates are rough great-circle positions (units ~ Mm) so that
  // intra-continent latencies come out in the tens of ms and
  // trans-Atlantic ones around 80-120 ms.
  return {
      {"US", 45.0, 0.0, 0.0},    {"NL", 14.0, 7.4, 1.2},
      {"DE", 13.0, 7.9, 1.0},    {"CA", 7.5, -0.5, 1.5},
      {"FR", 6.5, 7.2, 0.4},     {"GB", 3.5, 6.9, 1.3},
      {"CN", 3.0, 17.0, 0.5},    {"SG", 2.0, 16.0, -3.0},
      {"JP", 2.0, 19.0, 0.8},    {"RU", 1.5, 11.0, 2.5},
      {"BR", 1.0, 2.0, -5.0},    {"AU", 1.0, 18.5, -6.0},
  };
}

GeoDatabase::GeoDatabase(std::vector<CountrySpec> countries)
    : countries_(std::move(countries)) {
  if (countries_.empty()) {
    throw std::invalid_argument("GeoDatabase: empty country list");
  }
  weights_.reserve(countries_.size());
  next_host_.assign(countries_.size(), 1);  // skip .0.0.0 network address
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    weights_.push_back(countries_[i].node_weight);
    block_to_country_[static_cast<std::uint32_t>(10 + i)] = i;
  }
}

GeoDatabase GeoDatabase::standard() { return GeoDatabase(default_world()); }

const std::string& GeoDatabase::sample_country(util::RngStream& rng) const {
  return countries_[rng.weighted_index(weights_)].code;
}

const CountrySpec* GeoDatabase::find(const std::string& code) const {
  for (const auto& c : countries_) {
    if (c.code == code) return &c;
  }
  return nullptr;
}

Address GeoDatabase::allocate_address(const std::string& country_code) {
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    if (countries_[i].code == country_code) {
      const std::uint32_t block = static_cast<std::uint32_t>(10 + i);
      const std::uint32_t host = next_host_[i]++;
      return Address{(block << 24) | host, 4001};
    }
  }
  throw std::invalid_argument("allocate_address: unknown country " +
                              country_code);
}

std::string GeoDatabase::lookup(std::uint32_t ip) const {
  const auto it = block_to_country_.find(ip >> 24);
  if (it == block_to_country_.end()) return "??";
  return countries_[it->second].code;
}

util::SimDuration GeoDatabase::latency(const std::string& a,
                                       const std::string& b,
                                       util::RngStream& rng) const {
  const util::SimDuration mean = mean_latency(a, b);
  // Log-normal-ish jitter: multiply by a factor in [0.9, 1.5) with a
  // mild right tail, approximating queueing variability.
  const double factor = 0.9 + 0.6 * rng.uniform() * rng.uniform();
  return static_cast<util::SimDuration>(static_cast<double>(mean) * factor);
}

util::SimDuration GeoDatabase::mean_latency(const std::string& a,
                                            const std::string& b) const {
  const CountrySpec* ca = find(a);
  const CountrySpec* cb = find(b);
  if (ca == nullptr || cb == nullptr) {
    return 120 * util::kMillisecond;  // unknown location: conservative
  }
  const double dx = ca->x - cb->x;
  const double dy = ca->y - cb->y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  // 4 ms base (stack + last mile) + ~6 ms per map unit of distance.
  const double ms = 4.0 + 6.0 * dist;
  return static_cast<util::SimDuration>(ms * static_cast<double>(util::kMillisecond));
}

}  // namespace ipfsmon::net
