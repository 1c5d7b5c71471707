#include "kvcc/stream.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace kvcc {

namespace internal {

void StreamChannel::Push(std::vector<VertexId> vertices) {
  std::unique_lock<std::mutex> lock(mutex);
  if (limit != 0 && queue.size() >= limit) {
    ++backpressure_blocks;
    // The timed wait doubles as the deadline poll: an elapsed
    // KvccOptions::deadline_ms latches the token but notifies no
    // condition variable, so the producer must look for itself.
    while (queue.size() >= limit && !abandoned && !cancel.Cancelled()) {
      cv.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
  if (abandoned) return;
  if (limit != 0 && queue.size() >= limit) {
    // Cancelled while the queue is still full: this component cannot be
    // delivered without breaking the bound. Silently dropping it would
    // let a job whose every boundary check passed complete "cleanly"
    // with a component missing; `dropped` makes it end as JobCancelled.
    dropped = true;
    return;
  }
  queue.push_back(StreamedComponent{next_sequence++, std::move(vertices)});
  peak_queued = std::max<std::uint64_t>(peak_queued, queue.size());
  cv.notify_all();
}

void StreamChannel::Finish(const KvccStats& final_stats,
                           std::exception_ptr failure) {
  std::lock_guard<std::mutex> lock(mutex);
  stats = final_stats;
  error = std::move(failure);
  complete = true;
  cv.notify_all();
}

}  // namespace internal

ResultStream::ResultStream(std::shared_ptr<internal::StreamChannel> channel)
    : channel_(std::move(channel)) {}

ResultStream& ResultStream::operator=(ResultStream&& other) noexcept {
  if (this != &other) {
    Abandon();
    channel_ = std::move(other.channel_);
  }
  return *this;
}

ResultStream::~ResultStream() { Abandon(); }

void ResultStream::Abandon() {
  if (!channel_) return;
  {
    std::lock_guard<std::mutex> lock(channel_->mutex);
    channel_->abandoned = true;
    channel_->queue.clear();
  }
  // Cancel the job itself, not just the delivery: the remaining recursion
  // short-circuits at its next task / probe boundary instead of draining,
  // and a producer blocked on a bounded channel wakes and drops.
  channel_->cancel.RequestCancel();
  channel_->cv.notify_all();
  // Join the job before returning. A detached SubmitStream job reads the
  // caller's Graph through a raw pointer in its root task; if Abandon()
  // returned while that task was still running, the caller could destroy
  // the graph under it. `complete` is published by the job's final task
  // (after every task has retired), so waiting for it here makes
  // "stream destroyed" imply "no worker touches the job's inputs".
  std::unique_lock<std::mutex> lock(channel_->mutex);
  channel_->cv.wait(lock, [&] { return channel_->complete; });
}

std::optional<StreamedComponent> ResultStream::Next() {
  if (!channel_) {
    throw std::logic_error("ResultStream::Next: stream was moved from");
  }
  std::unique_lock<std::mutex> lock(channel_->mutex);
  channel_->cv.wait(lock,
                    [&] { return !channel_->queue.empty() || channel_->complete; });
  if (!channel_->queue.empty()) {
    StreamedComponent component = std::move(channel_->queue.front());
    channel_->queue.pop_front();
    if (channel_->limit != 0) {
      // Freed a bounded slot: wake a producer blocked on the full queue.
      channel_->cv.notify_all();
    }
    return component;
  }
  if (channel_->error) std::rethrow_exception(channel_->error);
  return std::nullopt;
}

std::size_t ResultStream::BufferedComponents() const {
  if (!channel_) {
    throw std::logic_error(
        "ResultStream::BufferedComponents: stream was moved from");
  }
  std::lock_guard<std::mutex> lock(channel_->mutex);
  return channel_->queue.size();
}

std::uint64_t ResultStream::BackpressureBlocks() const {
  if (!channel_) {
    throw std::logic_error(
        "ResultStream::BackpressureBlocks: stream was moved from");
  }
  std::lock_guard<std::mutex> lock(channel_->mutex);
  return channel_->backpressure_blocks;
}

const KvccStats& ResultStream::Stats() const {
  if (!channel_) {
    throw std::logic_error("ResultStream::Stats: stream was moved from");
  }
  std::lock_guard<std::mutex> lock(channel_->mutex);
  if (!channel_->complete) {
    throw std::logic_error(
        "ResultStream::Stats: stream not finished; drain with Next() until "
        "it returns nullopt first");
  }
  // A failed job has no final stats; surface the recorded error (the same
  // one Next() rethrows) instead of a misleading drain hint.
  if (channel_->error) std::rethrow_exception(channel_->error);
  return channel_->stats;
}

}  // namespace kvcc
