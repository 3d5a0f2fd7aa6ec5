#include "sim/replay.hpp"

#include <cmath>

#include "core/error.hpp"
#include "sim/event_source.hpp"
#include "sim/shard.hpp"

namespace slackvm::sim {

void RebalanceOptions::validate() const {
  if (!std::isfinite(interval) || interval <= 0) {
    SLACKVM_THROW("rebalance interval must be a finite number of seconds > 0, got " +
                  std::to_string(interval));
  }
  interference.validate();
}

RunResult replay(Datacenter& dc, EventSource& source,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  ShardOptions options;
  options.rebalance = rebalance;
  options.faults = faults;
  options.usage_monitor = usage_monitor;
  return replay_sharded(dc, source, options);
}

RunResult replay(Datacenter& dc, const workload::Trace& trace,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  MaterializedSource source(trace);
  return replay(dc, source, rebalance, usage_monitor, faults);
}

}  // namespace slackvm::sim
