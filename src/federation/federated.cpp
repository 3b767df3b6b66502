#include "federation/federated.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "tracestore/merge.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace ipfsmon::federation {

namespace {

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::unique_ptr<FederatedService> FederatedService::start(
    const std::string& root, FederatedOptions options, std::string* error) {
  std::unique_ptr<FederatedService> service(new FederatedService());
  service->root_ = root;
  service->unified_dir_ = (fs::path(root) / "unified").string();
  service->options_ = std::move(options);
  service->coordinator_ =
      Coordinator::start(root, service->options_.coordinator, error);
  if (service->coordinator_ == nullptr) return nullptr;

  bool rebuilt = false;
  if (!service->unify_if_changed(&rebuilt, error)) return nullptr;

  // Landed segments were body-verified by the coordinator; sharing its
  // validation cache lets the serving store skip the re-validation pass
  // and keeps the cache warm across reload() cycles.
  service->options_.query.store.shared_validation =
      &service->coordinator_->validation_cache();
  service->query_ = query::QueryService::open(service->unified_dir_,
                                              service->options_.query, error);
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
}

bool FederatedService::refresh(std::string* error) {
  std::lock_guard<std::mutex> lock(refresh_mu_);
  bool rebuilt = false;
  if (!unify_if_changed(&rebuilt, error)) return false;
  if (!rebuilt) return true;
  return query_->reload(error);
}

bool FederatedService::unify_if_changed(bool* rebuilt, std::string* error) {
  *rebuilt = false;
  // The build fingerprint is the full landed-segment set with checksums:
  // same inputs ⇒ same unified store (the merge is deterministic), so a
  // matching UNIFIED_SOURCE means the served store is already current.
  const auto landed = coordinator_->landed_segments();
  std::string fingerprint = "ipfsmon-unified v1\n";
  for (const auto& row : landed) {
    fingerprint += util::format(
        "m-%u/%s %016llx\n", row.monitor_id, row.file.c_str(),
        static_cast<unsigned long long>(row.footer.body_checksum));
  }
  const std::string marker =
      (fs::path(unified_dir_) / "UNIFIED_SOURCE").string();
  std::error_code ec;
  std::string built_from;
  if (fs::exists(fs::path(unified_dir_) / "MANIFEST", ec) &&
      util::read_file(marker, &built_from) && built_from == fingerprint) {
    return true;
  }

  tracestore::StoreOptions input_options = options_.query.store;
  input_options.obs = nullptr;
  input_options.shared_validation = &coordinator_->validation_cache();
  std::vector<std::optional<tracestore::TraceStore>> stores;
  std::vector<const tracestore::TraceStore*> inputs;
  // store_dirs() is ordered by monitor id; the k-way merge breaks
  // timestamp ties by input index, so this order is part of the
  // byte-identity contract. Monitors that landed nothing yet have no
  // MANIFEST and contribute nothing — skip them.
  for (const auto& dir : coordinator_->store_dirs()) {
    const bool has_segments =
        std::any_of(landed.begin(), landed.end(), [&](const auto& row) {
          return fs::path(dir).filename().string() ==
                 util::format("m-%u", row.monitor_id);
        });
    if (!has_segments) continue;
    auto store = tracestore::TraceStore::open(dir, input_options, error);
    if (!store) {
      fail(error, "cannot open monitor store " + dir +
                      (error != nullptr ? ": " + *error : ""));
      return false;
    }
    stores.push_back(std::move(store));
  }
  for (const auto& store : stores) inputs.push_back(&*store);

  tracestore::StoreOptions output_options = options_.query.store;
  output_options.obs = nullptr;
  output_options.shared_validation = nullptr;
  auto writer =
      tracestore::SegmentWriter::create(unified_dir_, output_options, error);
  if (writer == nullptr) return false;
  tracestore::unify_to_store(inputs, *writer);
  if (!writer->finalize()) {
    fail(error, "finalizing unified store failed: " + writer->error());
    return false;
  }

  if (!util::publish(marker, {fingerprint}, error)) return false;
  *rebuilt = true;
  return true;
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
