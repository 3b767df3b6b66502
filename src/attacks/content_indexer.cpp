#include "attacks/content_indexer.hpp"

#include "dag/dag_node.hpp"

namespace ipfsmon::attacks {

std::string_view content_kind_name(ContentKind kind) {
  switch (kind) {
    case ContentKind::RawData:
      return "raw-data";
    case ContentKind::File:
      return "file";
    case ContentKind::Directory:
      return "directory";
    case ContentKind::OtherIpld:
      return "other-ipld";
    case ContentKind::Unresolvable:
      return "unresolvable";
  }
  return "unknown";
}

std::size_t IndexReport::count_of(ContentKind kind) const {
  std::size_t count = 0;
  for (const auto& item : items) {
    if (item.kind == kind) ++count;
  }
  return count;
}

double IndexReport::resolvable_share() const {
  if (items.empty()) return 0.0;
  return 1.0 - static_cast<double>(count_of(ContentKind::Unresolvable)) /
                   static_cast<double>(items.size());
}

std::size_t IndexReport::total_bytes() const {
  std::size_t bytes = 0;
  for (const auto& item : items) bytes += item.total_bytes;
  return bytes;
}

void ContentIndexer::index(const cid::Cid& target,
                           std::function<void(IndexedContent)> on_done) {
  ++fetches_issued_;
  fetcher_.fetch(target, [this, target, on_done = std::move(on_done)](
                             dag::BlockPtr root) {
    IndexedContent result;
    result.cid = target;
    if (root == nullptr) {
      result.kind = ContentKind::Unresolvable;
      if (on_done) on_done(std::move(result));
      return;
    }
    result.block_count = 1;
    result.total_bytes = root->size();

    switch (target.codec()) {
      case cid::Multicodec::Raw:
        result.kind = ContentKind::RawData;
        if (on_done) on_done(std::move(result));
        return;
      case cid::Multicodec::DagProtobuf:
        classify_dag_pb(target, root, std::move(on_done));
        return;
      default:
        result.kind = ContentKind::OtherIpld;
        if (on_done) on_done(std::move(result));
        return;
    }
  });
}

void ContentIndexer::classify_dag_pb(
    const cid::Cid& target, const dag::BlockPtr& root,
    std::function<void(IndexedContent)> on_done) {
  IndexedContent result;
  result.cid = target;
  const auto node = dag::DagNode::from_bytes(root->data());
  if (!node) {
    // dag-pb codec but unparseable payload: treat as opaque IPLD.
    result.kind = ContentKind::OtherIpld;
    result.block_count = 1;
    result.total_bytes = root->size();
    if (on_done) on_done(std::move(result));
    return;
  }

  if (node->kind == dag::DagNodeKind::Directory) {
    result.kind = ContentKind::Directory;
    result.block_count = 1;
    result.total_bytes = root->size();
    for (const auto& link : node->links) result.entries.push_back(link.name);
    if (on_done) on_done(std::move(result));
    return;
  }

  // A file: pull the whole DAG to size it (this is what "downloading and
  // indexing" costs the adversary).
  ++fetches_issued_;
  fetcher_.fetch_dag(target, [this, target, on_done = std::move(on_done)](
                                 std::size_t blocks, bool complete) {
    IndexedContent result;
    result.cid = target;
    result.kind = complete ? ContentKind::File : ContentKind::Unresolvable;
    result.block_count = blocks;
    // Sum the actual bytes now present in the fetcher's blockstore.
    std::size_t bytes = 0;
    const auto order = dag::traverse_bfs(target, [&](const cid::Cid& c) {
      return fetcher_.blockstore().get(c).get();
    });
    for (const auto& c : order) {
      if (const auto block = fetcher_.blockstore().get(c)) {
        bytes += block->size();
      }
    }
    result.total_bytes = bytes;
    if (on_done) on_done(std::move(result));
  });
}

void ContentIndexer::index_all(const std::vector<cid::Cid>& targets,
                               std::function<void(IndexReport)> on_done) {
  auto report = std::make_shared<IndexReport>();
  auto remaining = std::make_shared<std::size_t>(targets.size());
  if (targets.empty()) {
    if (on_done) on_done(std::move(*report));
    return;
  }
  auto done = std::make_shared<std::function<void(IndexReport)>>(
      std::move(on_done));
  for (const auto& target : targets) {
    index(target, [report, remaining, done](IndexedContent item) {
      report->items.push_back(std::move(item));
      if (--*remaining == 0 && *done) (*done)(std::move(*report));
    });
  }
}

}  // namespace ipfsmon::attacks
