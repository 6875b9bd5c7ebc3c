// A bounded window of the newest keys, forgotten oldest first.
//
// AtomicBroadcast keeps the digests of its last kCap delivered payloads in
// one (content dedupe), SecureCausalBroadcast the ids of its last kCap
// ordered ciphertexts.  Both insert in the agreed delivery order, so every
// honest party holds the same window at the same point of that order and
// a membership test gives the same answer everywhere.
#pragma once

#include <cstddef>
#include <deque>
#include <set>

#include "common/bytes.hpp"

namespace sintra::protocols {

class RecentWindow {
 public:
  /// Keys remembered (bounded so a long-running service does not grow).
  static constexpr std::size_t kCap = 4096;

  [[nodiscard]] bool contains(const Bytes& key) const { return keys_.contains(key); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Remember `key` (no-op if it is already held), forgetting the oldest
  /// key once more than kCap are held.
  void insert(Bytes key) {
    if (!keys_.insert(key).second) return;
    order_.push_back(std::move(key));
    if (order_.size() > kCap) {
      keys_.erase(order_.front());
      order_.pop_front();
    }
  }

 private:
  std::set<Bytes> keys_;
  std::deque<Bytes> order_;  ///< insertion order, oldest first
};

}  // namespace sintra::protocols
