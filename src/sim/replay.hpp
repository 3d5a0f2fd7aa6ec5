// Trace replay: drive a Datacenter with a workload trace through the
// event queue and collect run metrics. replay() is the one-shard case of
// the replay engine (sim/shard.hpp, replay_sharded).
#pragma once

#include <optional>

#include "sched/rebalancer.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/migration.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/trace.hpp"

namespace slackvm::sim {

class EventSource;

/// Periodic live-migration consolidation during a replay (paper §VII-B2a
/// future work). With `migration.enabled`, each pass hands its plan to a
/// MigrationEngine and the moves become time-extended flights with
/// reservations, retry/backoff and rollback (sim/migration.hpp); otherwise
/// plans apply instantaneously — the differential reference path.
/// With `interference.enabled`, the replay additionally (a) refreshes every
/// host's heat EWMA from the usage signals each heat_interval, and (b)
/// prepends a polluter-detection pass (Rebalancer::plan_interference) to
/// every consolidation pass, evicting the heaviest contributor of each
/// over-threshold host toward a cooler one.
struct RebalanceOptions {
  core::SimTime interval = 6.0 * 3600;      ///< consolidation pass period
  std::size_t budget_per_pass = 64;         ///< migration cap per cluster/pass
  MigrationConfig migration{};              ///< time-extended flight knobs
  sched::InterferenceOptions interference{};  ///< heat + polluter-pass knobs

  /// Throws core::SlackError unless `interval` is finite and > 0 (a pass
  /// schedule over any other value never terminates) and the enabled
  /// interference knobs are in range. The engine calls it on entry.
  void validate() const;
};

/// Drain `source` (sim/event_source.hpp) against `dc` (which must be
/// fresh): replay_sharded (sim/shard.hpp) with one shard. With `rebalance`
/// set, a consolidation pass runs every interval; with `usage_monitor` set,
/// effective-usage samples are taken at the monitor's interval; with
/// `faults` set (and enabled), a FaultInjector drives host
/// failures/drains/repairs and evacuations (pass the config through
/// resolve_fault_seed first when its seed should follow the workload
/// seed). Each of these needs a horizon hint; a plain replay needs none.
[[nodiscard]] RunResult replay(Datacenter& dc, EventSource& source,
                               const std::optional<RebalanceOptions>& rebalance =
                                   std::nullopt,
                               UsageMonitor* usage_monitor = nullptr,
                               const FaultConfig* faults = nullptr);

/// Replay a materialized trace: wraps it in a MaterializedSource and runs
/// the engine above, so the two paths are bit-identical by construction.
[[nodiscard]] RunResult replay(Datacenter& dc, const workload::Trace& trace,
                               const std::optional<RebalanceOptions>& rebalance =
                                   std::nullopt,
                               UsageMonitor* usage_monitor = nullptr,
                               const FaultConfig* faults = nullptr);

}  // namespace slackvm::sim
