#include "common/executor.hpp"

namespace sintra::common {

ExecutorPool::ExecutorPool(std::size_t executors) {
  lanes_.reserve(executors);
  for (std::size_t i = 0; i < executors; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (auto& lane : lanes_) {
    lane->thread = std::thread([this, raw = lane.get()] { lane_loop(*raw); });
  }
}

ExecutorPool::~ExecutorPool() { stop(); }

void ExecutorPool::set_notify(Notify notify) {
  if (!notify) return;
  std::lock_guard<std::mutex> lock(notify_mutex_);
  notifies_.push_back(std::move(notify));
}

std::string_view ExecutorPool::tag_root(std::string_view tag) {
  const std::size_t slash = tag.find('/');
  return slash == std::string_view::npos ? tag : tag.substr(0, slash);
}

std::uint64_t ExecutorPool::tag_hash(std::string_view tag) {
  // FNV-1a, 64-bit: stable across runs/processes so executor assignment —
  // and therefore per-instance serialization — never depends on pointer
  // values or hash-table salt.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t ExecutorPool::executor_for(std::string_view tag) const {
  if (lanes_.empty()) return 0;
  return static_cast<std::size_t>(tag_hash(tag_root(tag)) % lanes_.size());
}

std::size_t ExecutorPool::executor_for(std::uint64_t group, std::string_view tag) const {
  if (lanes_.empty()) return 0;
  // Salt the tag-root hash with the group id (golden-ratio multiplier
  // spreads consecutive small ids across the hash space).  group == 0
  // reduces to the unsalted legacy assignment.
  const std::uint64_t salted = tag_hash(tag_root(tag)) ^ (group * 0x9e3779b97f4a7c15ull);
  return static_cast<std::size_t>(salted % lanes_.size());
}

void ExecutorPool::post(std::size_t index, Task task) {
  posted_.fetch_add(1, std::memory_order_relaxed);
  if (lanes_.empty() || stop_.load(std::memory_order_acquire)) {
    // Sequential mode (or post-stop teardown, when the caller is the only
    // thread left): the old single-threaded behavior, inline.
    task();
    return;
  }
  Lane& lane = *lanes_[index % lanes_.size()];
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.queue.push_back(std::move(task));
  }
  lane.cv.notify_one();
}

void ExecutorPool::lane_loop(Lane& lane) {
  std::vector<Task> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(lane.mutex);
      lane.cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || !lane.queue.empty();
      });
      if (lane.queue.empty()) return;  // stop requested and inbox drained
      // The whole backlog leaves the inbox under one lock acquisition; the
      // batch then runs without any lock held (mutex-light MPSC consume).
      batch.swap(lane.queue);
      ++lane.batches;
      lane.executed += batch.size();
    }
    for (Task& task : batch) task();
    const std::uint64_t ran = batch.size();
    batch.clear();
    if (pending_.fetch_sub(ran, std::memory_order_acq_rel) == ran) {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      idle_cv_.notify_all();
    }
    std::vector<Notify> notifies;
    {
      std::lock_guard<std::mutex> lock(notify_mutex_);
      notifies = notifies_;
    }
    for (const Notify& notify : notifies) notify();
  }
}

void ExecutorPool::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
}

void ExecutorPool::stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) {
    // Pass through the lane's mutex so a lane between its predicate check
    // and its wait cannot miss the notify (it would sleep forever).
    { std::lock_guard<std::mutex> lock(lane->mutex); }
    lane->cv.notify_all();
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

ExecutorPool::Stats ExecutorPool::stats() const {
  Stats stats;
  stats.posted = posted_.load(std::memory_order_relaxed);
  stats.executed.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    stats.batches += lane->batches;
    stats.executed.push_back(lane->executed);
  }
  return stats;
}

}  // namespace sintra::common
