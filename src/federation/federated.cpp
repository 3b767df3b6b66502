#include "federation/federated.hpp"

#include <algorithm>
#include <filesystem>

#include "tracestore/merge.hpp"
#include "util/codec.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::federation {

std::unique_ptr<FederatedService> FederatedService::start(
    const std::string& root, FederatedOptions options, std::string* error) {
  std::unique_ptr<FederatedService> service(new FederatedService());
  service->root_ = root;
  service->options_ = std::move(options);
  service->coordinator_ =
      Coordinator::start(root, service->options_.coordinator, error);
  if (service->coordinator_ == nullptr) return nullptr;

  service->build_ = service->current_build(error);
  if (service->build_ == nullptr) return nullptr;
  // Every other build is left over from an earlier run: superseded, or cut
  // short by a crash. No snapshot serves them any more.
  const std::string current = fs::path(*service->build_).filename().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("unified") && name != current) {
      fs::remove_all(entry.path(), ec);
    }
  }

  service->query_ =
      query::QueryService::open(*service->build_, service->options_.query,
                                error, service->build_);
  if (service->query_ == nullptr) return nullptr;
  service->query_->attach_federation(service.get());
  return service;
}

FederatedService::~FederatedService() {
  // The engine holds a FederationSource pointer to *this; take it down
  // before the members it reaches into disappear.
  if (coordinator_ != nullptr) coordinator_->stop();
  query_.reset();
  coordinator_.reset();
  remove_released_builds();
}

bool FederatedService::refresh(std::string* error) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  remove_released_builds();
  std::shared_ptr<const std::string> next = current_build(error);
  if (next == nullptr) return false;
  if (next == build_) return true;
  if (!query_->reload(*next, next, error)) {
    std::error_code ec;
    fs::remove_all(*next, ec);  // never served; a later refresh rebuilds it
    return false;
  }
  retired_.emplace_back(*build_, build_);
  build_ = std::move(next);
  return true;
}

void FederatedService::remove_released_builds() {
  // The landed set only grows, so a retired build is never current again.
  std::erase_if(retired_, [](const auto& retired) {
    if (!retired.second.expired()) return false;
    std::error_code ec;
    fs::remove_all(retired.first, ec);
    return true;
  });
}

std::shared_ptr<const std::string> FederatedService::current_build(
    std::string* error) {
  // The build is named by the full landed-segment set with checksums:
  // same inputs ⇒ same unified store (the merge is deterministic).
  const auto landed = coordinator_->landed_segments();
  std::string fingerprint = "ipfsmon-unified v1\n";
  for (const auto& row : landed) {
    fingerprint += util::format(
        "m-%u/%s %016llx\n", row.monitor_id, row.file.c_str(),
        static_cast<unsigned long long>(row.footer.body_checksum));
  }
  const std::string dir =
      (fs::path(root_) /
       util::format("unified-%016llx",
                    static_cast<unsigned long long>(
                        util::fnv1a64(fingerprint, util::kFnv1aOffset))))
          .string();
  if (build_ != nullptr && *build_ == dir) return build_;
  std::error_code ec;
  if (fs::exists(fs::path(dir) / "MANIFEST", ec)) {
    return std::make_shared<const std::string>(dir);
  }

  // Monitor-id order (monitors() is ordered by id): the k-way merge breaks
  // timestamp ties by input index, so this order is part of the
  // byte-identity contract. Monitors that landed nothing yet have no
  // MANIFEST and contribute nothing — skip them.
  std::vector<std::string> inputs;
  for (const auto& monitor : coordinator_->monitors()) {
    if (std::any_of(landed.begin(), landed.end(), [&](const auto& row) {
          return row.monitor_id == monitor.id;
        })) {
      inputs.push_back(monitor.dir);
    }
  }
  tracestore::StoreOptions store_options = options_.query.store;
  store_options.obs = nullptr;
  // Landed segments were body-verified by the coordinator; its validation
  // cache lets the unify skip the re-validation pass.
  store_options.shared_validation = &coordinator_->validation_cache();
  if (!tracestore::unify_dirs(inputs, dir, store_options, error)) {
    return nullptr;
  }
  return std::make_shared<const std::string>(dir);
}

std::vector<query::FederationSource::Monitor> FederatedService::monitors() {
  std::vector<query::FederationSource::Monitor> out;
  for (const auto& info : coordinator_->monitors()) {
    query::FederationSource::Monitor monitor;
    monitor.id = info.id;
    monitor.vantage = info.vantage;
    monitor.segments = info.segments;
    monitor.entries = info.entries;
    monitor.bytes = info.bytes;
    monitor.last_ship_wall_us = info.last_ship_wall_us;
    monitor.last_lag_us = info.last_lag_us;
    out.push_back(std::move(monitor));
  }
  return out;
}

std::vector<query::FederationSource::SegmentSource>
FederatedService::segment_sources() {
  std::vector<query::FederationSource::SegmentSource> out;
  for (const auto& row : coordinator_->landed_segments()) {
    query::FederationSource::SegmentSource source;
    source.monitor_id = row.monitor_id;
    source.vantage = row.vantage;
    source.file = row.file;
    source.entries = row.footer.entry_count;
    source.min_time = row.footer.min_time;
    source.max_time = row.footer.max_time;
    source.checksum = row.footer.body_checksum;
    out.push_back(std::move(source));
  }
  return out;
}

std::string FederatedService::metrics_text() {
  return coordinator_->metrics_text();
}

}  // namespace ipfsmon::federation
