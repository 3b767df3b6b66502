#include "query/cache.hpp"

namespace ipfsmon::query {

bool LruCache::get(const std::string& key, CachedResponse* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  order_.splice(order_.begin(), order_, it->second);
  *out = it->second->value;
  return true;
}

void LruCache::put(const std::string& key, CachedResponse value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.push_front(Entry{key, std::move(value)});
  index_[key] = order_.begin();
  if (index_.size() > capacity_) {
    index_.erase(order_.back().key);
    order_.pop_back();
  }
}

void LruCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  order_.clear();
  index_.clear();
}

std::size_t LruCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace ipfsmon::query
