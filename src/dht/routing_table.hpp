// Kademlia routing table: 256 k-buckets of DHT *server* peers, bucketed by
// common-prefix length with the local key. DHT clients are never inserted
// (paper Sec. III-A) — which is exactly why crawls cannot enumerate them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/key.hpp"

namespace ipfsmon::dht {

/// Kademlia k: the bucket size and the size of every closest-peer set (the
/// go-ipfs k = 20, arXiv 2208.05877).
constexpr std::size_t kBucketSize = 20;

/// A routing-table entry: the peer plus a node handle its owner supplied
/// on insertion. The table never interprets `node`; DhtNode stores the
/// peer's net::Network node index there, so replies can read the peer's
/// record without a PeerId lookup.
struct Contact {
  crypto::PeerId id;
  std::uint32_t node = 0;
};

class RoutingTable {
 public:
  RoutingTable(const crypto::PeerId& self, std::size_t bucket_size = kBucketSize);

  /// Inserts or refreshes a server peer. Returns false if the bucket was
  /// full (classic Kademlia would ping the LRU entry; we keep it).
  bool add(const crypto::PeerId& peer, std::uint32_t node = 0);

  void remove(const crypto::PeerId& peer);

  bool contains(const crypto::PeerId& peer) const;

  /// The `count` peers closest to `target` under the XOR metric, closest
  /// first.
  std::vector<Contact> closest(const Key& target, std::size_t count) const;

  /// All peers currently in any bucket (bucket order, MRU first within a
  /// bucket).
  std::vector<crypto::PeerId> all_peers() const;

  std::size_t size() const { return size_; }

  /// Index of the lowest-index empty/under-full bucket, used by the
  /// refresh cycle to pick lookup targets. -1 if all sampled full.
  int least_full_bucket() const;

 private:
  using Bucket = std::vector<Contact>;

  std::size_t bucket_index(const crypto::PeerId& peer) const;

  crypto::PeerId self_;
  Key self_key_;
  std::size_t bucket_size_;
  std::size_t size_ = 0;
  // Bucket i holds peers whose common prefix with self is exactly i bits
  // (i clamped to 255). MRU at the front. Only buckets up to the deepest
  // non-empty one exist: most of the 256 are empty in any real table.
  std::vector<Bucket> buckets_;
};

}  // namespace ipfsmon::dht
