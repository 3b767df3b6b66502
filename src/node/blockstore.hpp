// The local block cache (paper Sec. III-C): nodes store downloaded blocks
// (default cap 10 GB in go-ipfs), garbage-collect least-recently-used
// unpinned blocks when over capacity, and users may pin CIDs to exempt them.
// This cooperative caching is the mechanism the TPI privacy attack probes.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "dag/block.hpp"
#include "util/time.hpp"

namespace ipfsmon::node {

class Blockstore {
 public:
  /// `capacity_bytes` of 0 means unbounded. Every IpfsNode runs at the
  /// default; simulated blocks are small, so no node ever reaches it.
  /// Calibrated; no published figure.
  explicit Blockstore(std::size_t capacity_bytes = 10ull * 1024 * 1024 * 1024);

  /// Stores a block (idempotent). May evict LRU unpinned blocks to make
  /// room. Returns false if the block alone exceeds capacity.
  bool put(dag::BlockPtr block);

  /// Fetches a block and refreshes its recency; nullptr if absent.
  dag::BlockPtr get(const cid::Cid& cid);

  /// Presence check without recency side effects.
  bool has(const cid::Cid& cid) const;

  /// Pins a CID (need not be present yet; applies when stored).
  void pin(const cid::Cid& cid);
  void unpin(const cid::Cid& cid);
  bool is_pinned(const cid::Cid& cid) const;

  /// User-level purge (the manual TPI countermeasure: "remove problematic
  /// items from the cache"). Removes even pinned blocks.
  void remove(const cid::Cid& cid);

  std::size_t size_bytes() const { return size_bytes_; }
  std::size_t block_count() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  std::vector<cid::Cid> pinned_cids() const;

  /// All stored CIDs (the enumeration a provider must hash through to
  /// answer salted-CID requests — the paper's DoS-amplification concern).
  std::vector<cid::Cid> all_cids() const;

 private:
  void evict_until_fits(std::size_t incoming);

  struct Entry {
    dag::BlockPtr block;
    std::list<cid::Cid>::iterator lru_position;
  };

  std::size_t capacity_;
  std::size_t size_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::unordered_map<cid::Cid, Entry> entries_;
  std::list<cid::Cid> lru_;  // most recent at front
  std::unordered_set<cid::Cid> pins_;
};

}  // namespace ipfsmon::node
