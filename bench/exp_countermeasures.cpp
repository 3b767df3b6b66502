// Ablation: the privacy countermeasures from paper Sec. VI-C, quantified at
// study scale. Each row runs the same 2-monitor study with one hardening
// enabled network-wide and reports:
//   * linkable-request share — fraction of monitor-observed requests whose
//     CID the adversary can match to known content (salted requests and
//     rotated identities break different halves of the (who, what) pair),
//   * identity-tracking horizon — mean distinct sessions observable per
//     node identity (rotation resets it to ~1),
//   * IDW precision — share of a popular CID's identified wanters that
//     genuinely wanted it (cover traffic dilutes it),
//   * utility cost — fetch failure share and, for salted wants, the
//     provider-side hashing burden (the paper's DoS concern).
//
// Flags: --nodes= --hours= --seed=
#include "analysis/popularity.hpp"
#include "attacks/trace_attacks.hpp"
#include "bench_common.hpp"
#include "scenario/study.hpp"

using namespace ipfsmon;

namespace {

struct Row {
  std::string name;
  std::size_t observed_requests = 0;
  double linkable_share = 0.0;
  double idw_precision = 1.0;
  double fetch_failure_share = 0.0;
  std::uint64_t salted_hashes = 0;
  std::size_t identities_seen = 0;
  std::uint64_t rotations = 0;
  std::size_t population = 0;
};

Row run_scenario(const std::string& name, scenario::StudyConfig config) {
  scenario::MonitoringStudy study(config);
  study.run();

  Row row;
  row.name = name;
  row.population = study.population().size();

  // What can the adversary link? Known content = catalog roots. (One-off
  // CIDs are unknown to the adversary by construction either way; we
  // measure over catalog-targeted requests only.)
  std::unordered_set<cid::Cid> known;
  for (const auto& item : study.catalog().items()) known.insert(item.root);

  std::size_t linkable = 0;
  analysis::PopularityAccumulator popularity_acc;
  study.unify([&](const trace::TraceEntry& e) {
    popularity_acc.add(e);
    if (!e.is_request() || !e.is_clean()) return;
    ++row.observed_requests;
    if (known.count(e.cid) != 0) ++linkable;
  });
  row.linkable_share = row.observed_requests == 0
                           ? 0.0
                           : static_cast<double>(linkable) /
                                 static_cast<double>(row.observed_requests);

  // IDW precision on the most-wanted catalog CID: how many identified
  // wanters genuinely wanted it (vs cover traffic)? A second unify pass
  // collects them once the target is known.
  const auto popularity = popularity_acc.scores();
  cid::Cid best;
  std::uint64_t best_score = 0;
  for (const auto& [cid, score] : popularity.urp) {
    if (known.count(cid) != 0 && score > best_score) {
      best = cid;
      best_score = score;
    }
  }
  if (best_score > 0) {
    attacks::IdwAccumulator idw(best);
    study.unify([&idw](const trace::TraceEntry& e) { idw.add(e); });
    const auto hits = idw.hits();
    std::size_t genuine = 0;
    for (const auto& hit : hits) {
      if (!study.population().is_cover_request(hit.peer, best)) ++genuine;
    }
    row.idw_precision = hits.empty() ? 1.0
                                     : static_cast<double>(genuine) /
                                           static_cast<double>(hits.size());
  }

  // Utility / cost.
  const auto ok = study.population().fetches_succeeded();
  const auto failed = study.population().fetches_failed();
  row.fetch_failure_share =
      ok + failed == 0 ? 0.0
                       : static_cast<double>(failed) /
                             static_cast<double>(ok + failed);
  for (std::size_t i = 0; i < study.population().size(); ++i) {
    row.salted_hashes +=
        study.population().node_at(i).engine().salted_hashes_computed();
  }
  std::unordered_set<crypto::PeerId> identities;
  for (auto* m : study.monitors()) {
    identities.insert(m->peers_seen().begin(), m->peers_seen().end());
  }
  row.identities_seen = identities.size();
  row.rotations = study.population().identities_rotated();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::Stopwatch stopwatch;
  scenario::StudyConfig base;
  base.seed = flags.u64("--seed", 42);
  base.population.node_count = flags.u64("--nodes", 250);
  base.population.stable_server_count = 16;
  // Churny sessions so identity rotation has rebirths to act on.
  base.population.mean_session_hours = 3.0;
  base.population.mean_downtime_hours = 3.0;
  base.catalog.item_count = 3000;
  base.warmup = 6 * util::kHour;
  base.duration = static_cast<util::SimDuration>(
      flags.f64("--hours", 16.0) * static_cast<double>(util::kHour));
  base.enable_gateways = false;  // isolate node-side countermeasures
  if (!flags.ok()) return flags.usage("[--nodes=N] [--hours=H] [--seed=S]");

  bench::print_header("exp_countermeasures",
                      "Sec. VI-C ablation: what each privacy hardening does "
                      "to the monitors' view, and what it costs");

  std::vector<Row> rows;
  rows.push_back(run_scenario("baseline", base));

  {
    scenario::StudyConfig c = base;
    c.population.node.bitswap.salted_wants = true;
    rows.push_back(run_scenario("salted-cids", c));
  }
  {
    scenario::StudyConfig c = base;
    c.population.rotate_identity_on_rebirth = true;
    rows.push_back(run_scenario("id-rotation", c));
  }
  {
    scenario::StudyConfig c = base;
    c.population.cover_traffic_share = 1.0;  // one decoy per genuine request
    rows.push_back(run_scenario("cover-traffic", c));
  }
  {
    scenario::StudyConfig c = base;
    c.population.node.bitswap.broadcast_wants = false;
    rows.push_back(run_scenario("dht-only", c));
  }

  bench::print_section("results");
  std::printf("  %-14s %10s %10s %10s %10s %12s %10s %10s\n", "scenario",
              "observed", "linkable", "IDWprec", "failShare", "saltHashes",
              "identities", "rotations");
  for (const auto& r : rows) {
    std::printf("  %-14s %10zu %9.1f%% %9.1f%% %9.1f%% %12llu %10zu %10llu\n",
                r.name.c_str(), r.observed_requests,
                100.0 * r.linkable_share, 100.0 * r.idw_precision,
                100.0 * r.fetch_failure_share,
                static_cast<unsigned long long>(r.salted_hashes),
                r.identities_seen,
                static_cast<unsigned long long>(r.rotations));
  }

  bench::print_section("readings (paper Sec. VI-C)");
  std::printf(
      "  salted-cids:   linkable share collapses (monitors see opaque\n"
      "                 hashes) while providers pay the hashing bill —\n"
      "                 the paper's DoS-amplification concern, quantified.\n"
      "  id-rotation:   same requests observed, but spread over many more\n"
      "                 short-lived identities; cross-session TNW breaks.\n"
      "  cover-traffic: IDW precision drops below 100%% — identified\n"
      "                 wanters now include decoys (plausible deniability).\n"
      "  dht-only:      monitors see almost nothing; the cost is paid in\n"
      "                 robustness, not visible in this table (cf. paper).\n");
  bench::print_run_footer(stopwatch);
  return 0;
}
