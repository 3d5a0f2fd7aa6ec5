// Discrete-event simulation core: a time-ordered event queue with a
// monotonic clock. Ties are broken first by *lane*, then by insertion
// order, which makes every simulation fully deterministic.
//
// Lanes are a coarse priority band compared before the insertion-order
// tie-break. The replay engine (sim/shard.hpp) lays out its control events
// (rebalance passes, usage samples, the fault timetable) up-front but
// inserts trace rows lazily as it pulls them (sim/event_source.hpp); the
// workload lane (kLaneWorkload < kLaneControl) still fires a row's events
// before control events at the same timestamp, exactly as if every row had
// been scheduled first. Within one lane the insertion-order tie-break
// applies unchanged.
//
// That tie-break is queue-local. The engine runs one EventQueue per shard,
// so cross-shard ordering has its own rule: samples merge by ascending
// time, ties to the lowest shard index, within a queue in fire order
// (shard_merge_order). Regression-tested in tests/sim_event_queue_test.cpp
// and tests/sim_shard_test.cpp.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace slackvm::sim {

/// Callback invoked when an event fires; receives the simulation time.
using EventAction = std::function<void(core::SimTime)>;

class EventQueue {
 public:
  /// Workload lane: trace arrivals/departures. Fires before kLaneControl at
  /// equal timestamps regardless of insertion order.
  static constexpr std::uint8_t kLaneWorkload = 0;
  /// Control lane (the default): rebalance passes, usage samples, fault
  /// timetables and their dynamically scheduled repairs/retries.
  static constexpr std::uint8_t kLaneControl = 1;

  /// Schedule `action` at absolute time `time` (>= now()) on the control
  /// lane.
  void schedule(core::SimTime time, EventAction action) {
    schedule_lane(time, kLaneControl, std::move(action));
  }

  /// Schedule on an explicit lane (see the lane constants above).
  void schedule_lane(core::SimTime time, std::uint8_t lane, EventAction action);

  /// Fire the earliest event; returns false when the queue is empty.
  bool step();

  /// Fire everything until the queue drains.
  void run();

  /// Fire everything scheduled strictly before `deadline`, then set the
  /// clock to `deadline`.
  void run_until(core::SimTime deadline);

  [[nodiscard]] core::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the earliest pending event; the queue must not be empty.
  [[nodiscard]] core::SimTime next_time() const {
    SLACKVM_ASSERT(!heap_.empty());
    return heap_.top().time;
  }

  // --- cross-thread progress probes (the stall watchdog reads these from
  // another thread while the owner is mid-run; everything else on this class
  // stays single-owner). Relaxed: the probes are diagnostics, not sync.

  /// Events fired so far over the queue's lifetime.
  [[nodiscard]] std::uint64_t fired_count() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Clock as of the most recently fired event (may trail now() while the
  /// owner sits between events; exact once the owner blocks).
  [[nodiscard]] core::SimTime approx_now() const noexcept {
    return std::bit_cast<core::SimTime>(now_bits_.load(std::memory_order_relaxed));
  }

 private:
  struct Entry {
    core::SimTime time;
    std::uint8_t lane;
    std::uint64_t seq;
    EventAction action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.lane != b.lane) {
        return a.lane > b.lane;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  core::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // The atomics make EventQueue immovable; every owner holds it in place
  // (replay locals, heap-allocated shard states).
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> now_bits_{0};
};

}  // namespace slackvm::sim
