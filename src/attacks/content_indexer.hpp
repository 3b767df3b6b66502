// Content indexing (paper Sec. IV: "in order to investigate stored content
// one must first learn about valid CIDs — which can be done by observing
// data requests", and Sec. IV-A: what a CID references "can be determined
// by downloading and indexing d"; the paper leaves filesystem-layer
// analyses as future work). The ContentIndexer closes that loop: it rides
// an ordinary node, fetches CIDs harvested from monitor traces, and
// classifies what they reference.
#pragma once

#include <functional>
#include <string>

#include "node/ipfs_node.hpp"

namespace ipfsmon::attacks {

/// What a harvested CID turned out to reference. (Note: the synthetic
/// catalog's single-block DagProtobuf items carry opaque payloads rather
/// than real dag-pb encodings, so they classify as OtherIpld; real file
/// and directory DAGs classify as File/Directory.)
enum class ContentKind {
  RawData,       // raw-codec leaf (unstructured bytes)
  File,          // dag-pb file (possibly chunked)
  Directory,     // dag-pb directory with named entries
  OtherIpld,     // DagCBOR/DagJSON/Git/chain objects
  Unresolvable,  // no provider answered
};

std::string_view content_kind_name(ContentKind kind);

struct IndexedContent {
  cid::Cid cid;
  ContentKind kind = ContentKind::Unresolvable;
  /// Blocks fetched for this item (1 for leaves, DAG size for files).
  std::size_t block_count = 0;
  std::size_t total_bytes = 0;
  /// Directory entry names (Directory only).
  std::vector<std::string> entries;
};

/// Aggregate report over a batch of harvested CIDs.
struct IndexReport {
  std::vector<IndexedContent> items;

  std::size_t count_of(ContentKind kind) const;
  double resolvable_share() const;
  std::size_t total_bytes() const;
};

class ContentIndexer {
 public:
  /// The indexer fetches through `fetcher` — typically a dedicated node the
  /// adversary controls (downloads show up as ordinary Bitswap traffic).
  explicit ContentIndexer(node::IpfsNode& fetcher) : fetcher_(fetcher) {}

  /// Indexes one CID; the callback fires when classification completes
  /// (or the fetch deadline gives up).
  void index(const cid::Cid& target,
             std::function<void(IndexedContent)> on_done);

  /// Indexes every CID harvested from the monitors' traces; the callback
  /// fires once all of them are classified.
  void index_all(const std::vector<cid::Cid>& targets,
                 std::function<void(IndexReport)> on_done);

  std::uint64_t fetches_issued() const { return fetches_issued_; }

 private:
  void classify_dag_pb(const cid::Cid& target, const dag::BlockPtr& root,
                       std::function<void(IndexedContent)> on_done);

  node::IpfsNode& fetcher_;
  std::uint64_t fetches_issued_ = 0;
};

}  // namespace ipfsmon::attacks
