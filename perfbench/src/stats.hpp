// Statistics used by every workload: medians, the tail-percentile rule
// (report a percentile only where at least ten samples lie beyond it),
// quartiles computed exactly as Python's statistics.quantiles(n=4) does,
// and failure counting. Header-only so the unit tests need no libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// A percentile together with the level actually reported.
struct Tail {
  double value = 0.0;
  /// The percentile level used, in (0, 1]. Lower than the one asked for
  /// when the sample is too small to leave ten samples beyond it.
  double level = 0.0;
  std::size_t samples = 0;
};

/// 1-based nearest rank of level `q` in a sorted sample of `n` (the
/// epsilon keeps 0.99 * 1000 from rounding up to rank 991).
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank position of level `q` in a
/// sorted sample of `n`.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// Nearest-rank percentile at level `q`, lowered to the highest level that
/// still leaves at least `min_beyond` samples beyond it. With fewer than
/// min_beyond + 1 samples the median is reported.
inline Tail tail_percentile(std::vector<double> values, double q,
                            std::size_t min_beyond = 10) {
  Tail out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  double level = q;
  if (samples_beyond(n, level) < min_beyond) {
    level = n > min_beyond
                ? static_cast<double>(n - min_beyond) / static_cast<double>(n)
                : 0.5;
  }
  level = std::max(level, 0.5);
  out.value = values[nearest_rank(n, level) - 1];
  out.level = level;
  return out;
}

/// The three cut points of statistics.quantiles(values, n=4) with its
/// default "exclusive" method. Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the spread measure the benchmark is judged by.
  double relative_iqr() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  const std::size_t n = values.size();
  if (n < 2) {
    if (n == 1) out.q1 = out.q2 = out.q3 = values[0];
    return out;
  }
  std::sort(values.begin(), values.end());
  double cuts[3];
  const auto m = static_cast<std::int64_t>(n) + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    // Same integer steps as CPython, clamp before delta included.
    const std::int64_t j =
        std::clamp<std::int64_t>(i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const std::int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  out.q1 = cuts[0];
  out.q2 = cuts[1];
  out.q3 = cuts[2];
  return out;
}

/// The figure a run reports for a repeated timing: its fastest sample
/// (0 when there is none). Other tenants of a shared machine only ever
/// slow a sample down, and their load comes and goes within seconds, so
/// the fastest of many samples is a far steadier estimate of the code's
/// own cost than the median, which moves with the machine's load.
inline double steady_time(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// Failed operations over attempted ones. Every operation a workload
/// performs or checks is recorded once, so the ratio is exact.
class FailCounter {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Adds `attempted` operations of which `failed` failed.
  void add(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += std::min(failed, attempted);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
