// The replay engine: drive one Datacenter through a workload trace with
// its clusters sharded across the ThreadPool. replay() (sim/replay.hpp) is
// this engine with one shard.
//
// Shard k owns the clusters whose index is k modulo the shard count
// (Stillwell et al.'s per-cluster decomposition). Placement routing
// (Datacenter::route) is a pure function of (VmId, spec), so no event of
// one shard reads or writes another shard's state. Each shard owns an
// EventQueue, partial RunResult counters, a sample log, and a
// FaultInjector and MigrationEngine scoped to its clusters (ShardScope).
// Every control schedule — the per-cluster control tick (polluter pass,
// consolidation, then request to the engine or apply now), the heat ticks,
// the usage samples and the fault timetable — exists once, per shard.
//
// Determinism: everything stochastic is a pure function of (seed, k);
// within a shard the EventQueue's insertion-order tie-break applies; and
// the sample logs merge into the single MetricsCollector in a fixed
// cross-shard order (ascending time, ties to the lowest shard, within a
// shard in log order: shard_merge_order) as exact integer aggregates. Every
// RunResult field is therefore bit-identical at every thread count.
//
// Several shards alternate parallel windows with serial barriers: the
// horizon is cut into `barriers` windows, each shard runs a window on its
// own (EventQueue::run_until), and each barrier merges and drops the
// samples, replays every placement index's dirty log in one batch
// (VCluster::flush_index) and, with the debug-audit flag, audits the whole
// datacenter. The last window drains every queue (fault repairs and
// retries may fire past the horizon). One shard has nothing to
// synchronize: it runs its queue to completion, pulls a row only once it
// is due (arrival no later than the queue's next event) and hands each
// observation straight to the collector, so memory stays O(active window).
// How far ahead rows are pumped never changes results: a shard's
// workload-lane order is the row order either way.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/trace.hpp"

namespace slackvm::sim {

/// Knobs of a replay. The defaults run one shard inline on the calling
/// thread — exactly what replay() runs.
struct ShardOptions {
  /// Shard count: clusters are dealt round-robin across shards. May exceed
  /// the cluster count (excess shards simply own nothing).
  std::size_t shards = 1;
  /// Worker threads driving the shards (sim/parallel.hpp semantics: 1 =
  /// inline serial, 0 = all hardware threads). Results are bit-identical at
  /// every value; only wall-clock time changes.
  std::size_t threads = 1;
  /// Barrier windows the horizon is cut into (>= 1). More barriers bound
  /// sample-log memory tighter and refresh placement indexes more often;
  /// fewer maximize the parallel stretches. Results are identical either
  /// way — barriers only batch work, they never reorder it. A one-shard
  /// run has nothing to synchronize and ignores it.
  std::size_t barriers = 8;
  /// Periodic consolidation (see RebalanceOptions); validated on entry.
  std::optional<RebalanceOptions> rebalance;
  /// Fault injection; each shard owns the timetable events that target its
  /// clusters.
  const FaultConfig* faults = nullptr;
  /// Effective-usage samples at the monitor's interval, on the control
  /// lane. sample_usage() reads every cluster at once, so a monitor needs
  /// shards == 1 (the call throws otherwise).
  UsageMonitor* usage_monitor = nullptr;
  /// Stall watchdog over every barrier wait (sim/parallel.hpp): when a
  /// window makes no progress for this long, per-shard progress (clusters
  /// owned, events fired, simulated time, in-flight migrations) is dumped
  /// to stderr and — with `watchdog_fatal` — the process aborts instead of
  /// hanging. 0 disables. Ignored on the serial path (threads <= 1), where
  /// no cross-thread wait exists.
  std::size_t watchdog_ms = 0;
  bool watchdog_fatal = true;
};

/// One metric observation recorded by a shard after one of its events:
/// the aggregates over the shard's own clusters at `time`.
struct ShardSample {
  core::SimTime time = 0;
  core::Resources alloc;
  core::Resources config;
  std::size_t vms = 0;
  std::size_t active = 0;
};

/// The documented cross-shard ordering, as a standalone function over
/// per-shard sample logs (each log ascending in time): returns the merged
/// (shard, index-within-log) sequence — ascending time, ties across shards
/// to the lowest shard index, within a shard in log order. The engine's
/// streaming merge follows exactly this comparator; the shard test suite
/// pins it.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs);

/// Drain `source` (sim/event_source.hpp) against `dc` (which must be
/// fresh) with the clusters sharded per `options`. Rows are pulled
/// incrementally — each barrier demuxes the next window's arrivals, one
/// shard pulls rows as they come due — so resident memory is never
/// O(trace). Barrier windows (shards > 1) and the control schedules
/// (rebalance, usage monitor, faults) need the horizon up-front: the call
/// throws if the source has no horizon hint then (pre-scan streaming files
/// with TraceReader::scan, or materialize). While the debug-audit flag is
/// set (sim/audit.hpp), every event is followed by an invariant audit that
/// throws on the first violation. Bit-identical across options.threads.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, EventSource& source,
                                       const ShardOptions& options = {});

/// Replay a materialized trace: wraps it in a MaterializedSource and runs
/// the engine above, so the two paths are bit-identical by construction.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                                       const ShardOptions& options = {});

}  // namespace slackvm::sim
