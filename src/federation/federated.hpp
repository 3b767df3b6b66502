// FederatedService: the coordinator-mode serving stack. Owns a
// Coordinator (landing segments from shippers), builds unified stores, and
// serves the current one through a query::QueryService:
//
//   <root>/m-<id>/          per-monitor stores (written by the coordinator)
//   <root>/unified-<hex>/   unify_dirs() output; <hex> names the landed set
//
// Unification is the paper's Sec. IV-B dedup (5 s inter-monitor window by
// default) run out-of-core over the per-monitor stores in monitor-id
// order — the same deterministic input order the byte-identity property
// requires. A build with a MANIFEST is never written again. refresh()
// builds one when segments landed since the served build and reloads the
// engine onto it, rolling the fingerprint and every cached answer over.
// Requests on the previous snapshot keep reading its directory; a later
// refresh() removes it once none is left. start() removes every other
// unified* entry under the root.
//
// The service implements query::FederationSource, so the engine serves
// /v1/monitors, provenance sources on /v1/segments, and the coordinator's
// metrics on /metrics without depending on this layer.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "federation/coordinator.hpp"
#include "query/engine.hpp"

namespace ipfsmon::federation {

struct FederatedOptions {
  CoordinatorOptions coordinator;
  query::QueryOptions query;
};

class FederatedService : public query::FederationSource {
 public:
  /// Starts the coordinator on `root` and serves the unified store of the
  /// landed segments.
  static std::unique_ptr<FederatedService> start(const std::string& root,
                                                 FederatedOptions options = {},
                                                 std::string* error = nullptr);

  ~FederatedService() override;
  FederatedService(const FederatedService&) = delete;
  FederatedService& operator=(const FederatedService&) = delete;

  Coordinator& coordinator() { return *coordinator_; }
  query::QueryService& query() { return *query_; }

  /// Builds the unified store when new segments landed, reloads the engine
  /// onto it, and removes superseded builds no request reads. Returns
  /// false only on a build/reload failure.
  bool refresh(std::string* error = nullptr);

  // query::FederationSource
  std::vector<query::FederationSource::Monitor> monitors() override;
  std::vector<query::FederationSource::SegmentSource> segment_sources()
      override;
  std::string metrics_text() override;

 private:
  FederatedService() = default;

  /// The build directory of the landed segment set: the served one when
  /// nothing landed since, else one unified now (or by an earlier run).
  /// Null, with `error` set, when the build failed.
  std::shared_ptr<const std::string> current_build(std::string* error);
  void remove_released_builds();

  std::string root_;
  FederatedOptions options_;
  std::unique_ptr<Coordinator> coordinator_;
  // The served build; the engine's snapshots hold it as their keep-alive.
  std::shared_ptr<const std::string> build_;
  // Superseded builds, removed once no snapshot holds them.
  std::vector<std::pair<std::string, std::weak_ptr<const std::string>>>
      retired_;
  std::unique_ptr<query::QueryService> query_;
  std::mutex refresh_mu_;  // serializes build/reload cycles
};

}  // namespace ipfsmon::federation
