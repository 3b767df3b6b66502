// Experiment: Figure 6 — deduplicated Bitswap request rate by origin group
// over one-hour slices: "gateway" vs "homegrown" (non-gateway) traffic,
// with the dominant operator (Cloudflare) broken out separately.
//
// The gateway node IDs are obtained the way the paper does it: a TNW attack
// on node IDs first discovered via gateway probing (not from ground truth).
// Reproduced findings:
//   * gateway request volume is comparable to all homegrown traffic,
//   * a single operator (Cloudflare) accounts for a large share of it,
//   * gateways cache aggressively, so their Bitswap egress is a small
//     fraction of their HTTP ingress.
//
// Flags: --nodes= --hours= --seed=
#include "attacks/gateway_probe.hpp"
#include "analysis/aggregate.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig config;
  config.seed = flags.u64("--seed", 42);
  config.population.node_count = flags.u64("--nodes", 500);
  config.catalog.item_count = 8000;
  config.warmup = 8 * util::kHour;
  config.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 36.0) * static_cast<double>(util::kHour));
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_fig6_gateway_rates",
                      "Fig. 6: deduplicated Bitswap request rate by origin "
                      "group (gateway / Cloudflare / homegrown)");

  scenario::MonitoringStudy study(config);
  study.run_warmup();

  // --- Step 1: discover gateway node IDs via probing (paper Sec. VI-B). ----
  auto* fleet = study.gateways();
  attacks::GatewayProber prober(study.network(), study.monitors(),
                                util::RngStream(config.seed, "fig6-probe"));
  attacks::GatewayCensus census;
  std::size_t probes_pending = 0;
  for (const auto& name : fleet->operator_names()) {
    for (auto* gw : fleet->nodes_of(name)) {
      ++probes_pending;
      prober.probe(name, *gw, [&](attacks::GatewayProbeResult result) {
        census.record(result);
        --probes_pending;
      });
    }
  }
  study.scheduler().run_until(study.scheduler().now() + 5 * util::kMinute);
  std::printf("gateway probing: %zu gateway node IDs discovered\n",
              census.total_gateway_nodes());

  std::set<crypto::PeerId> discovered;
  std::set<crypto::PeerId> cloudflare;
  for (const auto& name : census.gateway_names()) {
    for (const auto& id : census.nodes_of(name)) {
      discovered.insert(id);
      if (name == "cloudflare-ipfs.com") cloudflare.insert(id);
    }
  }

  // Probe traffic should not count towards the measured rates.
  for (auto* m : study.monitors()) m->reset_observations();
  for (auto* m : study.monitors()) m->start_snapshots();
  study.run_measurement();

  // --- Step 2: TNW on the discovered population over the measurement. ------
  analysis::GroupRateAccumulator rates(
      [&](const crypto::PeerId& peer) -> std::string {
        if (cloudflare.count(peer) != 0) return "cloudflare";
        if (discovered.count(peer) != 0) return "other-gateways";
        return "homegrown";
      },
      util::kHour);
  study.unify([&](const trace::TraceEntry& e) {
    if (e.is_clean()) rates.add(e);
  });
  const auto buckets = rates.buckets();

  bench::print_section("series: requests/s per origin group (1 h slices)");
  std::printf("  %-6s %12s %14s %12s\n", "hour", "cloudflare",
              "other-gateways", "homegrown");
  double cf_total = 0, gw_total = 0, home_total = 0;
  for (const auto& b : buckets) {
    const auto get = [&](const char* k) {
      const auto it = b.rate_per_second.find(k);
      return it == b.rate_per_second.end() ? 0.0 : it->second;
    };
    std::printf("  %-6lld %12.4f %14.4f %12.4f\n",
                static_cast<long long>(b.bucket_start / util::kHour),
                get("cloudflare"), get("other-gateways"), get("homegrown"));
    cf_total += get("cloudflare");
    gw_total += get("other-gateways");
    home_total += get("homegrown");
  }

  bench::print_section("shape checks vs paper");
  const double gateways_all = cf_total + gw_total;
  std::printf("  mean rates: gateways %.4f/s (cloudflare %.4f/s), "
              "homegrown %.4f/s\n",
              gateways_all / buckets.size(), cf_total / buckets.size(),
              home_total / buckets.size());
  bench::print_comparison("gateway/homegrown volume ratio (~1 in paper)", 1.0,
                          gateways_all / home_total);
  const double cf_share = cf_total / gateways_all;
  std::printf("  Cloudflare share of gateway traffic: %.0f%% — 'a significant "
              "portion ... due to a single operator': %s\n",
              100.0 * cf_share,
              cf_share >= 0.33 ? "YES (matches)" : "NO (mismatch!)");

  bench::print_section("gateway cache filtering (Sec. VI-B3)");
  double http = 0, bitswap_out = 0;
  for (const auto& name : fleet->operator_names()) {
    for (auto* gw : fleet->nodes_of(name)) {
      http += static_cast<double>(gw->http_requests());
      bitswap_out += static_cast<double>(gw->bitswap_fetches());
    }
  }
  std::printf("  fleet: %.0f HTTP requests -> %.0f Bitswap fetches "
              "(hit ratio %.1f%%; Cloudflare reports 97%%)\n",
              http, bitswap_out, 100.0 * (1.0 - bitswap_out / http));
  const auto cf_nodes = fleet->nodes_of("cloudflare-ipfs.com");
  double cf_http = 0, cf_hits = 0;
  for (auto* gw : cf_nodes) {
    cf_http += static_cast<double>(gw->http_requests());
    cf_hits += static_cast<double>(gw->cache_hits());
  }
  bench::print_comparison("Cloudflare cache-hit ratio (paper: 0.97)", 0.97,
                          cf_http > 0 ? cf_hits / cf_http : 0.0);
  bench::print_run_footer(stopwatch);
  return 0;
}
