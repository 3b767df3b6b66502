// A thread-safe LRU cache for rendered query responses. Keys embed the
// store's manifest fingerprint (see QueryService), so a store reload
// naturally invalidates every stale entry without a flush broadcast —
// stale keys simply stop being asked for and age out of the LRU order.
// Hits and misses are counted by the caller (QueryService::cached).
#pragma once

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ipfsmon::query {

struct CachedResponse {
  std::string body;
  std::string content_type = "application/json";
  std::string source;  // "rollup" | "scan" | "mixed" provenance header
};

class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// True and fills `out` on a hit (the entry becomes most-recent).
  bool get(const std::string& key, CachedResponse* out);

  void put(const std::string& key, CachedResponse value);

  void clear();

  std::size_t size() const;

 private:
  struct Entry {
    std::string key;
    CachedResponse value;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace ipfsmon::query
