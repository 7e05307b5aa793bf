// BoundedQueue: the service front door — a bounded MPMC queue with an
// admission policy in front of the workbench shards.
//
// Producers are caller threads submitting requests; consumers are the
// workbench shards.  Three admission-control knobs stack on the bound:
//
//   Backpressure (always): when the queue is full, push() blocks the
//     caller instead of letting an unbounded backlog hide saturation.
//   Shedding (AdmissionPolicy::Overload::kShed): batch-class work is
//     refused outright — kShed, never blocked — once the depth reaches a
//     watermark, so an overloaded service degrades by dropping deferrable
//     work instead of stalling every producer.  Interactive-class work is
//     never shed here; it keeps the blocking backpressure contract.
//   Priority with aging: pop() serves interactive-class items before
//     batch-class items, but a batch item's effective priority rises one
//     class per `aging_us` it has waited, so a saturated interactive
//     stream cannot starve batch work forever.
//
// Items can carry a consumer *affinity* (a shard index): pop(consumer)
// only returns items whose affinity is unset or matches, which is how a
// stateful session's requests all land on the shard that owns its state.
//
// close() drains gracefully: already-admitted items are still popped, then
// every pop returns nullopt — so a stopping service finishes the work it
// accepted and never abandons a caller's future.  tryPopAny() is the
// companion for the ungraceful case: after close(), an owner with no
// consumers left drains remaining items — *ignoring* affinity pins — so
// each one can still be answered.
//
// Chaos harness: an optional exec::FaultInjector adds seeded scheduling
// delays around push/pop (FaultSite::kQueuePush / kQueuePop), perturbing
// admission order and consumer wakeups without changing any contract.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "exec/fault_injection.h"

namespace nsc::svc {

// Priority classes for admission: interactive editor/session traffic is
// served ahead of deferrable batch work (ensembles, system sweeps).
enum class Priority { kInteractive = 0, kBatch = 1 };

struct AdmissionPolicy {
  enum class Overload {
    kBlock,  // full queue blocks every producer (pure backpressure)
    kShed,   // full-past-watermark sheds batch work instead of blocking it
  };
  Overload overload = Overload::kBlock;
  // Depth at which batch-class pushes are shed in kShed mode; 0 means the
  // queue capacity (shed only when completely full).  Clamped to capacity.
  std::size_t shed_watermark = 0;
  // Wait that promotes a queued item by one priority class (starvation
  // freedom for batch work).  <= 0 disables aging.
  std::int64_t aging_us = 20'000;
};

// Admission metadata travelling with a queued item.  `admitted_us` and
// `order` are stamped by the queue at push.
struct Ticket {
  Priority priority = Priority::kInteractive;
  int affinity = -1;  // consumer index this item is pinned to; -1 = any
  std::int64_t admitted_us = 0;
  std::uint64_t order = 0;
};

enum class PushResult {
  kAdmitted,  // queued; a consumer will pop it
  kShed,      // refused by the overload policy (caller must reply Rejected)
  kClosed,    // queue closed before space freed up
};

// The one steady-clock-in-microseconds helper the serving layer stamps
// admission, dispatch, and idle times with.
inline std::int64_t monotonicNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, AdmissionPolicy policy = {},
                        exec::FaultInjector* injector = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(policy),
        injector_(injector) {}

  // Admits `item` under the policy.  Blocks while the queue is full,
  // except that batch-class items in kShed mode return kShed immediately
  // once the depth has reached the watermark.  `item` is consumed
  // (moved-from) only on kAdmitted; on kShed / kClosed the caller keeps it
  // — the service needs the refused request's callback to reply Rejected.
  PushResult push(T& item, Ticket ticket = {}) {
    if (injector_ != nullptr) {
      injector_->maybeDelay(exec::FaultSite::kQueuePush);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (policy_.overload == AdmissionPolicy::Overload::kShed &&
        ticket.priority == Priority::kBatch &&
        items_.size() >= shedWatermark()) {
      return PushResult::kShed;
    }
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return PushResult::kClosed;
    ticket.admitted_us = monotonicNowUs();
    ticket.order = next_order_++;
    items_.push_back(Slot{std::move(item), ticket});
    if (items_.size() > peak_depth_) peak_depth_ = items_.size();
    lock.unlock();
    // Affinity-filtered consumers wait on the same condition variable, so
    // every consumer must get a chance to re-evaluate eligibility.
    not_empty_.notify_all();
    return PushResult::kAdmitted;
  }

  // Pops the best eligible item for `consumer`: lowest effective priority
  // class first (priority minus wait-time aging), FIFO within a class.
  // Items pinned to another consumer are skipped (they stay queued for
  // their shard).  Blocks while nothing is eligible.  Returns nullopt once
  // the queue is closed *and* this consumer's eligible items are drained.
  std::optional<T> pop(int consumer = -1) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      not_empty_.wait(lock,
                      [&] { return closed_ || bestFor(consumer) != kNone; });
      const std::size_t index = bestFor(consumer);
      if (index == kNone) {
        if (closed_) return std::nullopt;
        continue;  // an ineligible push woke us; wait again
      }
      Slot& slot = items_[index];
      T item = std::move(slot.item);
      items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(index));
      lock.unlock();
      not_full_.notify_all();
      if (injector_ != nullptr) {
        injector_->maybeDelay(exec::FaultSite::kQueuePop);
      }
      return item;
    }
  }

  // Non-blocking pop of the oldest item regardless of affinity.  For the
  // owner's post-close settle-drain: pop(-1) honours affinity pins, so a
  // service stopped before its shards ever ran would leave pinned items —
  // and their callers — stranded without this.
  std::optional<T> tryPopAny() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front().item);
    items_.pop_front();
    lock.unlock();
    not_full_.notify_all();
    return item;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  // High-water mark of depth() over the queue's lifetime.
  std::size_t peakDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

 private:
  struct Slot {
    T item;
    Ticket ticket;
  };

  std::size_t shedWatermark() const {
    const std::size_t watermark =
        policy_.shed_watermark == 0 ? capacity_ : policy_.shed_watermark;
    return watermark < capacity_ ? watermark : capacity_;
  }

  // Effective priority class after aging: one class per aging_us waited.
  // Interactive work ages too, which preserves FIFO fairness between two
  // aged classes instead of inverting it.
  std::int64_t effectivePriority(const Ticket& ticket,
                                 std::int64_t now_us) const {
    std::int64_t priority = static_cast<std::int64_t>(ticket.priority);
    if (policy_.aging_us > 0) {
      priority -= (now_us - ticket.admitted_us) / policy_.aging_us;
    }
    return priority;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Index of the best eligible slot for `consumer`, or kNone.  Called
  // under mu_.
  std::size_t bestFor(int consumer) const {
    std::size_t best = kNone;
    std::int64_t best_priority = 0;
    const std::int64_t now_us = monotonicNowUs();
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Slot& slot = items_[i];
      if (slot.ticket.affinity >= 0 && slot.ticket.affinity != consumer) {
        continue;
      }
      const std::int64_t priority = effectivePriority(slot.ticket, now_us);
      if (best == kNone || priority < best_priority ||
          (priority == best_priority &&
           slot.ticket.order < items_[best].ticket.order)) {
        best = i;
        best_priority = priority;
      }
    }
    return best;
  }

  const std::size_t capacity_;
  const AdmissionPolicy policy_;
  exec::FaultInjector* injector_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Slot> items_;
  std::size_t peak_depth_ = 0;
  std::uint64_t next_order_ = 0;
  bool closed_ = false;
};

}  // namespace nsc::svc
