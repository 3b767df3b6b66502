// Ablation: accuracy of the eq. (1) and eq. (3) size estimators under
// controlled synthetic draws — the assumptions discussion of Sec. IV-C.
// Sweeps population size N, monitor count r, and draw fraction, and also
// quantifies the bias when draws are NOT uniform (the paper's "stable,
// long-living nodes will be underrepresented ... which can lead to
// estimation errors").
//
// Flags: --trials= --seed=
#include "analysis/estimators.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

#include <set>

using namespace ipfsmon;

namespace {

/// Draws `w` distinct indices from [0, n) with per-index weights ~ either
/// uniform or biased (a fraction of "quiet" nodes drawn 5x less often).
std::set<std::size_t> draw(util::RngStream& rng, std::size_t n, std::size_t w,
                           bool biased) {
  std::set<std::size_t> out;
  while (out.size() < w) {
    std::size_t candidate = rng.uniform_index(n);
    if (biased && candidate < n / 3 && !rng.bernoulli(0.2)) {
      continue;  // first third = quiet stable nodes, 5x underrepresented
    }
    out.insert(candidate);
  }
  return out;
}

struct Row {
  double mean_err_pairwise = 0.0;
  double mean_err_committee = 0.0;
};

Row run_cell(util::RngStream& rng, std::size_t n, std::size_t r,
             double draw_fraction, bool biased, std::size_t trials) {
  Row row;
  std::size_t counted = 0;
  const std::size_t w = static_cast<std::size_t>(
      draw_fraction * static_cast<double>(n));
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::set<std::size_t>> draws;
    std::set<std::size_t> union_set;
    for (std::size_t m = 0; m < r; ++m) {
      draws.push_back(draw(rng, n, w, biased));
      union_set.insert(draws.back().begin(), draws.back().end());
    }
    std::size_t intersection = 0;
    for (std::size_t idx : draws[0]) {
      if (draws[1].count(idx) != 0) ++intersection;
    }
    const auto pairwise =
        analysis::estimate_pairwise(draws[0].size(), draws[1].size(),
                                    intersection);
    const auto committee = analysis::estimate_committee(
        union_set.size(), r, static_cast<double>(w));
    if (!pairwise || !committee) continue;
    ++counted;
    row.mean_err_pairwise +=
        (*pairwise - static_cast<double>(n)) / static_cast<double>(n);
    row.mean_err_committee +=
        (*committee - static_cast<double>(n)) / static_cast<double>(n);
  }
  if (counted > 0) {
    row.mean_err_pairwise /= static_cast<double>(counted);
    row.mean_err_committee /= static_cast<double>(counted);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  util::RngStream rng(flags.u64("--seed", 42), "estimator-ablation");
  const std::size_t trials = flags.u64("--trials", 30);
  if (!flags.ok()) return flags.usage("[--trials=N] [--seed=S]");

  bench::print_header("exp_estimator_accuracy",
                      "Sec. IV-C ablation: estimator bias under uniform and "
                      "biased peer draws");

  bench::print_section("uniform draws (assumption satisfied)");
  std::printf("  %-8s %-4s %-10s %-18s %s\n", "N", "r", "w/N",
              "eq.(1) rel.err", "eq.(3) rel.err");
  for (const std::size_t n : {1000u, 5000u, 20000u}) {
    for (const std::size_t r : {2u, 3u, 5u}) {
      for (const double frac : {0.2, 0.5}) {
        const Row row = run_cell(rng, n, r, frac, false, trials);
        std::printf("  %-8zu %-4zu %-10.1f %+-18.3f %+.3f\n", n, r, frac,
                    row.mean_err_pairwise, row.mean_err_committee);
      }
    }
  }
  std::printf("  expectation: both estimators are near-unbiased "
              "(|err| < ~5%%) under uniform draws.\n");

  bench::print_section("biased draws (stable nodes underrepresented 5x)");
  std::printf("  %-8s %-4s %-10s %-18s %s\n", "N", "r", "w/N",
              "eq.(1) rel.err", "eq.(3) rel.err");
  for (const std::size_t n : {5000u}) {
    for (const std::size_t r : {2u, 3u}) {
      for (const double frac : {0.2, 0.5}) {
        const Row row = run_cell(rng, n, r, frac, true, trials);
        std::printf("  %-8zu %-4zu %-10.1f %+-18.3f %+.3f\n", n, r, frac,
                    row.mean_err_pairwise, row.mean_err_committee);
      }
    }
  }
  std::printf("  expectation: draws biased towards the same 'chatty' subset\n"
              "  overlap more than uniform draws would, so both estimators\n"
              "  UNDERESTIMATE N — exactly the direction the paper observes\n"
              "  (monitor estimate ~10.5k vs crawl ~14.4k).\n");
  bench::print_run_footer(stopwatch);
  return 0;
}
