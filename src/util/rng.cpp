#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

#include "util/codec.hpp"

namespace ipfsmon::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

RngStream::RngStream(std::uint64_t root_seed, std::string_view name)
    : engine_(root_seed ^ fnv1a64(name, 0)) {}

RngStream::RngStream(std::uint64_t raw_seed) : engine_(raw_seed) {}

RngStream RngStream::fork(std::string_view name) {
  return RngStream(next_u64() ^ fnv1a64(name, 0));
}

RngStream RngStream::fork(std::uint64_t index) {
  std::uint64_t mix = next_u64() + 0x9e3779b97f4a7c15ull * (index + 1);
  return RngStream(splitmix64(mix));
}

std::uint64_t RngStream::next_u64() { return engine_(); }

double RngStream::uniform() {
  // 53-bit mantissa construction for uniform [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double RngStream::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t RngStream::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n == 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = engine_();
    if (r >= threshold) return r % n;
  }
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool RngStream::bernoulli(double p) { return uniform() < p; }

double RngStream::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double RngStream::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return mean + stddev * u * factor;
}

double RngStream::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double RngStream::pareto(double xm, double alpha) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t RngStream::zipf(std::uint64_t n, double s) {
  if (n == 0) throw std::invalid_argument("zipf: n == 0");
  if (n == 1) return 1;
  // Rejection-inversion sampling (Hörmann & Derflinger). Handles s near 1.
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    const double log_x = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return log_x;
    return (std::exp((1.0 - s) * log_x) - 1.0) / (1.0 - s);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(nd + 0.5);
  const double inv_1ms = (std::abs(1.0 - s) < 1e-12) ? 0.0 : 1.0 / (1.0 - s);
  auto h_integral_inv = [s, inv_1ms](double x) {
    if (std::abs(1.0 - s) < 1e-12) return std::exp(x);
    return std::exp(std::log1p(x * (1.0 - s)) * inv_1ms);
  };
  for (;;) {
    const double u = h_n + uniform() * (h_x1 - h_n);
    const double x = h_integral_inv(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    const double kd = static_cast<double>(k);
    if (kd - x <= 0.5 ||
        u >= h_integral(kd + 0.5) - h(kd)) {
      return k;
    }
  }
}

std::size_t RngStream::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) throw std::invalid_argument("weighted_index: zero total");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point residue
}

void RngStream::fill_bytes(std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t r = engine_();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<std::uint8_t>(r >> (8 * b));
  }
  if (i < n) {
    const std::uint64_t r = engine_();
    for (int b = 0; i < n; ++b) out[i++] = static_cast<std::uint8_t>(r >> (8 * b));
  }
}

}  // namespace ipfsmon::util
