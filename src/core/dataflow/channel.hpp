// Bounded MPMC channel — the edge type of the collection dataflow
// (docs/PIPELINE.md).
//
// Semantics:
//  - push() blocks while the channel is full (backpressure: a fast
//    producer is throttled to the consumer's pace plus `capacity` items)
//    and returns false — dropping the item — once the channel is closed
//    or failed, so producers upstream of a dead stage unwind promptly.
//  - pop() blocks while the channel is open and empty; after close() it
//    keeps returning buffered items until the queue is drained, then
//    returns nullopt. After fail() it returns nullopt immediately —
//    buffered items are intentionally abandoned, the run is aborting.
//  - close() and fail() are idempotent and wake every blocked thread.
//
// Instrumentation (obs gauges — high-water marks and wait tallies are
// scheduling-dependent, so none of them may be a Counter, which the
// run-report schema documents as deterministic):
//    dataflow.<name>.depth.max           high-water queue depth
//    dataflow.<name>.backpressure_waits  pushes that blocked on a full queue
// plus a plain ChannelStats snapshot for tests.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace dpoaf::core::dataflow {

struct ChannelStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t backpressure_waits = 0;  // pushes that found the queue full
  std::size_t max_depth = 0;
  bool closed = false;
  bool failed = false;
};

template <typename T>
class Channel {
 public:
  /// `name` keys the obs gauges (dataflow.<name>.*); capacity < 1 is
  /// clamped to 1 so push/pop always make progress.
  explicit Channel(std::size_t capacity, std::string name = "channel")
      : capacity_(capacity < 1 ? 1 : capacity), name_(std::move(name)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  ~Channel() { publish_gauges(); }

  /// Blocks while full; true if the item was enqueued, false if the
  /// channel was closed/failed first (the item is dropped).
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!open_ && queue_.size() >= capacity_) return false;
    if (open_ && queue_.size() >= capacity_) {
      ++stats_.backpressure_waits;
      not_full_.wait(lock,
                     [this] { return !open_ || queue_.size() < capacity_; });
    }
    if (!open_) return false;
    queue_.push_back(std::move(value));
    ++stats_.pushes;
    if (queue_.size() > stats_.max_depth) stats_.max_depth = queue_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while open and empty; nullopt once closed-and-drained or
  /// failed.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return !open_ || !queue_.empty(); });
    if (stats_.failed || queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.pops;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// No more pushes; poppers drain what is buffered, then see nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stats_.closed) return;
      open_ = false;
      stats_.closed = true;
    }
    wake_all();
    publish_gauges();
  }

  /// Abort: closes AND abandons buffered items — every blocked push and
  /// pop returns immediately (false / nullopt). Used by the stage
  /// framework to unwind all stages after a worker threw.
  void fail() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stats_.failed) return;
      open_ = false;
      stats_.closed = true;
      stats_.failed = true;
    }
    wake_all();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  void wake_all() {
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  void publish_gauges() const {
    if (!obs::enabled()) return;
    ChannelStats s = stats();
    obs::gauge("dataflow." + name_ + ".depth.max")
        .record_max(static_cast<std::int64_t>(s.max_depth));
    obs::gauge("dataflow." + name_ + ".backpressure_waits")
        .record_max(static_cast<std::int64_t>(s.backpressure_waits));
  }

  const std::size_t capacity_;
  const std::string name_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  ChannelStats stats_;
  bool open_ = true;
};

}  // namespace dpoaf::core::dataflow
