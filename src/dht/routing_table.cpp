#include "dht/routing_table.hpp"

#include <algorithm>

namespace ipfsmon::dht {

RoutingTable::RoutingTable(const crypto::PeerId& self, std::size_t bucket_size)
    : self_(self), self_key_(key_of(self)), bucket_size_(bucket_size) {}

std::size_t RoutingTable::bucket_index(const crypto::PeerId& peer) const {
  const int cpl = common_prefix_length(self_key_, peer.digest());
  return static_cast<std::size_t>(std::min(cpl, 255));
}

namespace {
auto find_peer(std::vector<Contact>& bucket, const crypto::PeerId& peer) {
  return std::find_if(bucket.begin(), bucket.end(),
                      [&peer](const Contact& c) { return c.id == peer; });
}
}  // namespace

bool RoutingTable::add(const crypto::PeerId& peer, std::uint32_t node) {
  if (peer == self_) return false;
  const std::size_t index = bucket_index(peer);
  if (index >= buckets_.size()) buckets_.resize(index + 1);
  Bucket& bucket = buckets_[index];
  const auto it = find_peer(bucket, peer);
  if (it != bucket.end()) {
    std::rotate(bucket.begin(), it, it + 1);  // refresh to MRU
    return true;
  }
  if (bucket.size() >= bucket_size_) return false;
  bucket.insert(bucket.begin(), Contact{peer, node});
  ++size_;
  return true;
}

void RoutingTable::remove(const crypto::PeerId& peer) {
  const std::size_t index = bucket_index(peer);
  if (index >= buckets_.size()) return;
  Bucket& bucket = buckets_[index];
  const auto it = find_peer(bucket, peer);
  if (it == bucket.end()) return;
  bucket.erase(it);
  --size_;
  while (!buckets_.empty() && buckets_.back().empty()) buckets_.pop_back();
}

bool RoutingTable::contains(const crypto::PeerId& peer) const {
  const std::size_t index = bucket_index(peer);
  if (index >= buckets_.size()) return false;
  const Bucket& bucket = buckets_[index];
  return std::any_of(bucket.begin(), bucket.end(),
                     [&peer](const Contact& c) { return c.id == peer; });
}

std::vector<Contact> RoutingTable::closest(const Key& target,
                                           std::size_t count) const {
  // With i = cpl(self, target), every peer in bucket i is closer to the
  // target than any peer in a deeper bucket, and those are closer than
  // any peer in a shallower bucket, where bucket i-1 beats i-2 and so on.
  // Taking the groups in that order and sorting only the group being
  // filled gives the full sort's prefix: peer keys are distinct.
  std::vector<Contact> out;
  out.reserve(std::min(count, size_));
  const auto by_distance = [&target](const Contact& a, const Contact& b) {
    return closer(a.id.digest(), b.id.digest(), target);
  };
  // Sorts the group appended since `start`, keeping at most `count` total.
  const auto finish_group = [&](std::size_t start) {
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(start);
    if (out.size() > count) {
      const auto keep = out.begin() + static_cast<std::ptrdiff_t>(count);
      std::partial_sort(first, keep, out.end(), by_distance);
      out.erase(keep, out.end());
    } else {
      std::sort(first, out.end(), by_distance);
    }
  };
  if (count == 0 || size_ == 0) return out;

  const std::size_t depth = buckets_.size();
  const std::size_t i = static_cast<std::size_t>(
      std::min(common_prefix_length(self_key_, target), 255));
  if (i < depth) {
    const Bucket& own = buckets_[i];
    out.insert(out.end(), own.begin(), own.end());
    finish_group(0);
  }
  if (out.size() < count && i + 1 < depth) {
    const std::size_t start = out.size();
    for (std::size_t j = i + 1; j < depth; ++j) {
      out.insert(out.end(), buckets_[j].begin(), buckets_[j].end());
    }
    finish_group(start);
  }
  for (std::size_t j = std::min(i, depth); j-- > 0 && out.size() < count;) {
    const Bucket& bucket = buckets_[j];
    if (bucket.empty()) continue;
    const std::size_t start = out.size();
    out.insert(out.end(), bucket.begin(), bucket.end());
    finish_group(start);
  }
  return out;
}

std::vector<crypto::PeerId> RoutingTable::all_peers() const {
  std::vector<crypto::PeerId> peers;
  peers.reserve(size_);
  for (const Bucket& bucket : buckets_) {
    for (const Contact& c : bucket) peers.push_back(c.id);
  }
  return peers;
}

int RoutingTable::least_full_bucket() const {
  // Only the first few buckets are realistically fillable (bucket i needs
  // peers sharing an i-bit prefix); scan a small prefix of the table.
  for (std::size_t i = 0; i < 16; ++i) {
    if (i >= buckets_.size() || buckets_[i].size() < bucket_size_) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace ipfsmon::dht
