// Lock-free single-producer/single-consumer bounded ring buffer.
//
// The parallel analysis pipeline moves every decoded packet from the
// producer (decode + dispatch) thread to exactly one analyzer shard, so
// the queue between them never needs more than one producer and one
// consumer — the classic SPSC ring covers it with two atomic indices
// and zero locks on the hot path. Producer and consumer each keep a
// cached copy of the other side's index so the common case (ring
// neither full nor empty) touches only one shared cache line per
// operation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace zpm::util {

/// Spin briefly, then yield, then sleep: keeps latency low when both
/// sides of a handoff are running while not starving a single-core
/// machine. One instance per wait; call wait() once per failed attempt.
struct Backoff {
  void wait() {
    if (spins_ < 64) {
      ++spins_;
    } else if (spins_ < 96) {
      ++spins_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  int spins_ = 0;
};

/// Bounded SPSC queue of `T`. `push`/`try_push` may only be called from
/// one thread and `pop`/`try_pop` from one (possibly different) thread.
/// Elements are moved in and out. `close()` (producer side) makes `pop`
/// return nullopt once the ring has drained.
template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Producer: attempts to enqueue without blocking.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer: enqueues, backing off (spin, then yield, then sleep)
  /// while the ring is full. Full-ring waits are counted in
  /// push_wait_spins() so backpressure is observable rather than silent.
  void push(T value) {
    Backoff backoff;
    while (!try_push(std::move(value))) {
      ++push_wait_spins_;
      backoff.wait();
    }
  }

  /// Producer: moves as many leading elements of `batch` into the ring
  /// as fit right now, publishing them with a single atomic store —
  /// amortising the release fence and the consumer's cache miss over
  /// the whole batch. Returns the number consumed from `batch`.
  std::size_t try_push_batch(std::span<T> batch) {
    if (batch.empty()) return 0;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = slots_.size() - static_cast<std::size_t>(tail - cached_head_);
    if (free < batch.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = slots_.size() - static_cast<std::size_t>(tail - cached_head_);
      if (free == 0) return 0;
    }
    const std::size_t n = std::min(free, batch.size());
    for (std::size_t i = 0; i < n; ++i)
      slots_[(tail + i) & mask_] = std::move(batch[i]);
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Producer: enqueues the whole batch, backing off while the ring is
  /// full. Zero-progress rounds count as push_wait_spins(), matching
  /// push().
  void push_batch(std::span<T> batch) {
    Backoff backoff;
    while (!batch.empty()) {
      std::size_t n = try_push_batch(batch);
      if (n == 0) {
        ++push_wait_spins_;
        backoff.wait();
        continue;
      }
      batch = batch.subspan(n);
    }
  }

  /// Number of failed push attempts (ring-full waits) seen by the
  /// producer. Producer-owned, non-atomic: read it from the producer
  /// thread, or after the producer is done (e.g. post-join).
  [[nodiscard]] std::uint64_t push_wait_spins() const { return push_wait_spins_; }

  /// Consumer: attempts to dequeue without blocking. Returns false when
  /// the ring is momentarily empty (closed or not).
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: dequeues the next element, blocking (with backoff) while
  /// the ring is empty. Returns nullopt once the ring is closed *and*
  /// fully drained.
  std::optional<T> pop() {
    Backoff backoff;
    for (;;) {
      T value;
      if (try_pop(value)) return value;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: the close flag may have been set between the failed
        // pop and the load, racing a final push.
        if (try_pop(value)) return value;
        return std::nullopt;
      }
      backoff.wait();
    }
  }

  /// Consumer: moves up to `max` buffered elements into `out` (appended;
  /// `out` is not cleared), consuming them with a single atomic store.
  /// Returns the number moved; 0 when the ring is momentarily empty.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_tail_ - head);
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cached_tail_ - head);
      if (avail == 0) return 0;
    }
    const std::size_t n = std::min(avail, max);
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(std::move(slots_[(head + i) & mask_]));
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer: appends up to `max` elements to `out`, blocking (with
  /// backoff) while the ring is empty. Returns 0 only once the ring is
  /// closed *and* fully drained.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    Backoff backoff;
    for (;;) {
      std::size_t n = try_pop_batch(out, max);
      if (n > 0) return n;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: the close flag may have been set between the failed
        // pop and the load, racing a final push.
        n = try_pop_batch(out, max);
        return n;
      }
      backoff.wait();
    }
  }

  /// Producer: no further pushes will happen; wakes the consumer's
  /// drain-and-exit path.
  void close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Elements currently buffered (approximate under concurrency).
  [[nodiscard]] std::size_t size() const {
    std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  // Producer-owned line: tail plus the producer's cached view of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  std::uint64_t push_wait_spins_ = 0;
  // Consumer-owned line: head plus the consumer's cached view of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;

  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace zpm::util
