// Minimal intrusive LRU map for the serving caches (DESIGN.md §2.8).
//
// A serving process juggling many endpoints wants the hot set to survive
// admission of the cold tail, so the caches evict by recency instead of
// wiping when full.  This is the classic list + hash-map LRU: find() refreshes
// recency, insert() evicts from the cold end once past capacity.  Eviction
// order depends on access order and therefore on scheduling when several
// workers share a cache — that only ever costs a future miss, never bytes
// (every consumer validates entries against graph generations before use).
//
// Not thread-safe; callers hold their own lock (serve::Server).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace amdgcnn::serve {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  /// `capacity` >= 1; insert() evicts the least-recently-used entry once
  /// size would exceed it.
  explicit LruCache(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Pointer to the value (refreshing its recency), or nullptr.  The pointer
  /// is valid until the next insert()/erase().
  V* find(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Insert or overwrite; the entry becomes most-recently-used.
  void insert(const K& key, V value) {
    if (auto* live = find(key)) {
      *live = std::move(value);
      return;
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
    while (map_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  /// Remove one entry (for generation-invalidated hits); returns whether it
  /// existed.  Not counted as an eviction — callers track invalidations.
  bool erase(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped at the cold end by capacity pressure (cumulative).
  std::int64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      map_;
  std::int64_t evictions_ = 0;
};

}  // namespace amdgcnn::serve
