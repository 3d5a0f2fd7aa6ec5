#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "sched/rebalancer.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_source.hpp"
#include "sim/fault.hpp"
#include "sim/migration.hpp"
#include "sim/parallel.hpp"

namespace slackvm::sim {

namespace {

/// Streams observations into the single MetricsCollector as exact integer
/// aggregates: a sample of shard k moves the totals by its delta against
/// k's previous sample, so the collector sees the sum of every shard's
/// latest aggregates — for one shard, exactly that shard's observation.
class SampleMerger {
 public:
  SampleMerger(std::size_t shards, core::SimTime initial_end)
      : latest_(shards), end_time_(initial_end) {}

  /// Merge per-shard sample logs in shard_merge_order.
  void merge(std::span<const std::vector<ShardSample>> logs) {
    for (const auto& [shard, index] : shard_merge_order(logs)) {
      add(shard, logs[shard][index]);
    }
  }

  void add(std::size_t shard, const ShardSample& s) {
    ShardSample& prev = latest_[shard];
    alloc_cores_ += static_cast<std::int64_t>(s.alloc.cores) - prev.alloc.cores;
    alloc_mem_ += s.alloc.mem_mib - prev.alloc.mem_mib;
    config_cores_ += static_cast<std::int64_t>(s.config.cores) - prev.config.cores;
    config_mem_ += s.config.mem_mib - prev.config.mem_mib;
    vms_ += static_cast<std::int64_t>(s.vms) - static_cast<std::int64_t>(prev.vms);
    active_ +=
        static_cast<std::int64_t>(s.active) - static_cast<std::int64_t>(prev.active);
    prev = s;
    const core::Resources alloc{static_cast<core::CoreCount>(alloc_cores_),
                                alloc_mem_};
    const core::Resources config{static_cast<core::CoreCount>(config_cores_),
                                 config_mem_};
    const auto active = static_cast<std::size_t>(active_);
    metrics_.observe(s.time, alloc, config, static_cast<std::size_t>(vms_), active);
    peak_active_ = std::max(peak_active_, active);
    end_time_ = std::max(end_time_, s.time);
  }

  void finish(RunResult& result) const {
    result.peak_active_pms = peak_active_;
    metrics_.finish(end_time_, result);
  }

 private:
  MetricsCollector metrics_;
  std::vector<ShardSample> latest_;  ///< last merged sample per shard
  std::int64_t alloc_cores_ = 0;
  std::int64_t alloc_mem_ = 0;
  std::int64_t config_cores_ = 0;
  std::int64_t config_mem_ = 0;
  std::int64_t vms_ = 0;
  std::int64_t active_ = 0;
  std::size_t peak_active_ = 0;
  core::SimTime end_time_;
};

/// Everything one shard owns. Heap-allocated so the queue's event closures
/// can capture stable references.
struct ShardState {
  ShardState(Datacenter& datacenter, SampleMerger& samples, std::size_t shard,
             std::size_t shard_count)
      : dc(datacenter), merger(samples), whole(shard_count == 1),
        heat_caches(datacenter.clusters().size()) {
    for (std::size_t c = shard; c < dc.clusters().size(); c += shard_count) {
      clusters.push_back(c);
    }
  }

  /// Record the aggregates over the owned clusters after an event at `t`;
  /// a lone shard hands them straight to the merger instead of the log.
  void observe(core::SimTime t) {
    ShardSample s;
    s.time = t;
    for (const std::size_t c : clusters) {
      const sched::VCluster& cluster = *dc.clusters()[c];
      s.alloc += cluster.total_alloc();
      s.config += cluster.total_config();
      s.vms += cluster.vm_count();
      s.active += cluster.nonempty_hosts();
    }
    if (whole) {
      merger.add(0, s);
    } else {
      log.push_back(s);
    }
    audit();
  }

  /// Debug audit after an event (no-op unless the flag is set): the owned
  /// clusters only, as other shards mutate theirs concurrently — or the
  /// whole datacenter when one shard owns everything.
  void audit() const {
    if (!debug_audit_enabled()) {
      return;
    }
    if (whole) {
      debug_audit_check(dc);
      return;
    }
    for (const std::size_t c : clusters) {
      debug_audit_check(*dc.clusters()[c]);
    }
  }

  Datacenter& dc;
  SampleMerger& merger;
  const bool whole;  ///< the only shard: owns every cluster
  /// Demand caches for the heat ticks, indexed by *global* cluster index
  /// (only owned entries are touched, so caches stay shard-local).
  std::vector<DemandCache> heat_caches;
  std::vector<std::size_t> clusters;  ///< owned cluster indices, ascending
  EventQueue queue;
  RunResult partial;             ///< integer counters only (summed at the end)
  std::vector<ShardSample> log;  ///< observations, drained at each barrier
  std::optional<FaultInjector> injector;
  std::optional<MigrationEngine> engine;  ///< time-extended migration flights
  const sched::Rebalancer rebalancer{};
  /// Default-calibrated contention curve for the polluter pass; stateless,
  /// so every shard's instance answers identically.
  const perf::ContentionModel contention{};
};

/// Hand `plan` to the shard's migration engine as intents (engine mode) or
/// apply it now (instant mode); returns the moves applied now.
std::size_t dispatch(ShardState& shard, std::size_t c, const sched::MigrationPlan& plan,
                     core::SimTime now) {
  if (!shard.engine.has_value()) {
    return sched::Rebalancer::apply_plan(shard.dc.cluster(c), plan);
  }
  for (const sched::Migration& m : plan.migrations) {
    shard.engine->request(c, m, now);
  }
  return 0;
}

/// One control tick on cluster `c`: the polluter pass (interference on),
/// then consolidation, each plan dispatched as above — so evictions claim
/// in-flight slots before consolidation fills them.
void control_tick(ShardState& shard, std::size_t c, const RebalanceOptions& rebalance,
                  core::SimTime now) {
  const sched::VCluster& cluster = *shard.dc.clusters()[c];
  RunResult& r = shard.partial;
  if (rebalance.interference.enabled) {
    const sched::MigrationPlan hot =
        shard.rebalancer.plan_interference(cluster, shard.contention,
                                           rebalance.interference);
    ++r.itf_passes;
    r.itf_hot_hosts += hot.hot_hosts;
    r.itf_evictions += hot.migrations.size();
    const std::size_t applied = dispatch(shard, c, hot, now);
    if (shard.engine.has_value()) {
      r.itf_requested += hot.migrations.size();
    } else {
      r.itf_applied += applied;
      r.itf_skipped += hot.migrations.size() - applied;
    }
    r.migrations += applied;
  }
  const sched::MigrationPlan plan =
      shard.rebalancer.plan(cluster, rebalance.budget_per_pass);
  r.migrations += dispatch(shard, c, plan, now);
}

/// The RunResult counters shards accumulate in their partials; the
/// metric-derived fields come from the SampleMerger instead.
constexpr std::size_t RunResult::*kShardCounters[] = {
    &RunResult::migrations,        &RunResult::placed_vms,
    &RunResult::host_failures,     &RunResult::host_repairs,
    &RunResult::drained_hosts,     &RunResult::evacuated_vms,
    &RunResult::evac_replaced,     &RunResult::evac_migrated,
    &RunResult::evac_retries,      &RunResult::evac_departed,
    &RunResult::degraded_vms,      &RunResult::deferred_arrivals,
    &RunResult::arrivals_dropped,  &RunResult::mig_planned,
    &RunResult::mig_committed,     &RunResult::mig_cancelled,
    &RunResult::mig_rolled_back,   &RunResult::mig_timed_out,
    &RunResult::mig_degraded,      &RunResult::mig_retries,
    &RunResult::heat_updates,      &RunResult::itf_passes,
    &RunResult::itf_hot_hosts,     &RunResult::itf_evictions,
    &RunResult::itf_applied,       &RunResult::itf_requested,
    &RunResult::itf_skipped};

using Shards = std::vector<std::unique_ptr<ShardState>>;

/// Schedule `tick(shard, now)` at first, first + interval, ... (< horizon)
/// on every shard that owns clusters. `tick` must outlive the run.
template <class Tick>
void schedule_every(const Shards& shards, core::SimTime first, core::SimTime interval,
                    core::SimTime horizon, const Tick& tick) {
  for (core::SimTime t = first; t < horizon; t += interval) {
    for (const auto& shard : shards) {
      if (!shard->clusters.empty()) {
        shard->queue.schedule(t, [&shard = *shard, &tick](core::SimTime now) {
          tick(shard, now);
        });
      }
    }
  }
}

/// Route one row to the shard owning its routed cluster: arrival then
/// departure on the workload lane, so a row pumped mid-run still wins time
/// ties against control events scheduled up-front, and ties among rows
/// follow row order. The row is captured by value (the source recycles its
/// buffers).
void route_row(const Shards& shards, const core::VmInstance& vm) {
  Datacenter& dc = shards.front()->dc;
  const std::size_t cluster = dc.route(vm.id, vm.spec);
  ShardState& shard = *shards[cluster % shards.size()];
  shard.queue.schedule_lane(
      vm.arrival, EventQueue::kLaneWorkload, [&dc, &shard, vm](core::SimTime t) {
        if (shard.injector.has_value()) {
          // Capacity may be transiently lost: defer instead of aborting.
          shard.injector->deploy_or_defer(vm.id, vm.spec, t);
        } else {
          dc.deploy(vm.id, vm.spec);
          ++shard.partial.placed_vms;
        }
        shard.observe(t);
      });
  shard.queue.schedule_lane(
      vm.departure, EventQueue::kLaneWorkload,
      [&dc, &shard, cluster, id = vm.id](core::SimTime t) {
        // Cancel any migration intent before the VM leaves the maps.
        if (shard.engine.has_value()) {
          shard.engine->on_departure(id, t);
        }
        // A VM awaiting a retry (or parked degraded) is not placed; else a
        // routed removal, never reading other shards' placement maps.
        if (!shard.injector.has_value() || !shard.injector->absorb_departure(id)) {
          dc.cluster(cluster).remove(id);
        }
        shard.observe(t);
      });
}

/// Multi-shard execution (see shard.hpp): demux the window's arrivals
/// serially, run every shard's window on the pool, then the serial barrier.
void run_windows(Datacenter& dc, EventSource& source, Shards& shards,
                 SampleMerger& merger, core::SimTime horizon,
                 const ShardOptions& options) {
  const auto pump_until = [&source, &shards](core::SimTime deadline) {
    while (const core::VmInstance* row = source.peek()) {
      if (row->arrival >= deadline) {
        break;
      }
      route_row(shards, *row);
      source.advance();
    }
  };
  const auto merge_logs = [&shards, &merger] {
    std::vector<std::vector<ShardSample>> logs(shards.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
      logs[k] = std::move(shards[k]->log);
      shards[k]->log.clear();
    }
    merger.merge(logs);
  };

  // Barrier watchdog: a stalled window becomes a per-shard progress dump
  // (and an abort when fatal) instead of an undiagnosable hang.
  WatchdogConfig watchdog;
  watchdog.timeout = std::chrono::milliseconds(options.watchdog_ms);
  watchdog.fatal = options.watchdog_fatal;
  watchdog.on_stall = [&shards] {
    std::ostringstream os;
    os << "replay_sharded: barrier stalled; per-shard progress:\n";
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const ShardState& shard = *shards[k];
      os << "  shard " << k << ": " << shard.clusters.size() << " clusters, "
         << shard.queue.fired_count() << " events fired, sim time "
         << shard.queue.approx_now();
      if (shard.engine.has_value()) {
        os << ", " << shard.engine->in_flight() << " migrations in flight";
      }
      os << '\n';
    }
    std::fputs(os.str().c_str(), stderr);
    std::fflush(stderr);
  };
  const WatchdogConfig* dog = options.watchdog_ms > 0 ? &watchdog : nullptr;

  ParallelRunner runner(options.threads);
  const std::size_t windows = std::max<std::size_t>(1, options.barriers);
  for (std::size_t b = 1; b < windows; ++b) {
    const core::SimTime deadline =
        horizon * static_cast<double>(b) / static_cast<double>(windows);
    pump_until(deadline);
    runner.for_each(
        shards.size(),
        [&shards, deadline](std::size_t k) { shards[k]->queue.run_until(deadline); },
        dog);
    merge_logs();
    for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
      dc.cluster(c).flush_index();
    }
    debug_audit_check(dc);
  }
  pump_until(std::numeric_limits<core::SimTime>::infinity());
  runner.for_each(
      shards.size(), [&shards](std::size_t k) { shards[k]->queue.run(); }, dog);
  merge_logs();
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs) {
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.size();
  }
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(total);
  std::vector<std::size_t> pos(logs.size(), 0);
  while (order.size() < total) {
    // Lowest time wins; the strict < keeps the first (lowest-index) shard
    // on ties, and within a shard the log is consumed in order.
    std::size_t best = logs.size();
    for (std::size_t k = 0; k < logs.size(); ++k) {
      if (pos[k] < logs[k].size() &&
          (best == logs.size() || logs[k][pos[k]].time < logs[best][pos[best]].time)) {
        best = k;
      }
    }
    SLACKVM_ASSERT(best < logs.size());
    order.emplace_back(best, pos[best]++);
  }
  return order;
}

RunResult replay_sharded(Datacenter& dc, EventSource& source,
                         const ShardOptions& options) {
  const std::size_t shard_count = std::max<std::size_t>(1, options.shards);
  const FaultConfig* faults =
      options.faults != nullptr && options.faults->enabled() ? options.faults : nullptr;
  const RebalanceOptions* rebalance =
      options.rebalance.has_value() ? &*options.rebalance : nullptr;
  if (rebalance != nullptr) {
    rebalance->validate();
  }
  UsageMonitor* const monitor = options.usage_monitor;
  if (monitor != nullptr && shard_count > 1) {
    SLACKVM_THROW(
        "replay: a usage monitor samples every cluster at once, so it needs "
        "shards == 1");
  }

  // Barrier windows and control schedules are laid out before the first
  // event fires; a plain one-shard replay finds the horizon by observation.
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  if (!horizon_hint.has_value() && (shard_count > 1 || rebalance != nullptr ||
                                    monitor != nullptr || faults != nullptr)) {
    SLACKVM_THROW(
        "replay: barrier windows and rebalance/usage-monitor/fault schedules "
        "need the trace horizon up-front, but this event source has no "
        "horizon hint; pre-scan the file (TraceReader::scan) or materialize "
        "the trace");
  }
  const core::SimTime horizon = horizon_hint.value_or(0.0);

  if (const std::optional<std::size_t> rows = source.size_hint()) {
    dc.reserve(*rows);
  }

  // The run ends at the later of the horizon and the last observation
  // (fault repairs and retries may fire past the horizon).
  SampleMerger merger(shard_count, horizon);

  // Deal clusters round-robin: shard k owns {c : c % shards == k}.
  Shards shards;
  shards.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    shards.push_back(std::make_unique<ShardState>(dc, merger, k, shard_count));
    ShardState& shard = *shards.back();
    const auto observe = [&shard](core::SimTime t) { shard.observe(t); };
    if (faults != nullptr) {
      shard.injector.emplace(dc, shard.queue, *faults, shard.partial, observe,
                             ShardScope{k, shard_count});
    }
    if (rebalance != nullptr && rebalance->migration.enabled) {
      // Flight state is per-cluster, so scoped engines act as one.
      shard.engine.emplace(dc, shard.queue, rebalance->migration, shard.partial,
                           observe, ShardScope{k, shard_count});
      if (shard.injector.has_value()) {
        // Faults must abort/reroute the flights they touch *before* they
        // mutate the fleet (sim/migration.hpp failure semantics).
        shard.injector->set_migration_engine(&*shard.engine);
      }
    }
  }

  // The control schedules, in a fixed insertion order on the control lane:
  // every consolidation tick, then every heat tick (so a coincident tick
  // rebalances against the previous window's heat), then the usage
  // samples, then the fault timetable.
  const auto rebalance_tick = [rebalance](ShardState& shard, core::SimTime now) {
    for (const std::size_t c : shard.clusters) {
      control_tick(shard, c, *rebalance, now);
    }
    if (!shard.engine.has_value()) {
      shard.observe(now);  // engine mode observes inside request()
    }
  };
  // Heat refresh: cluster-local (race-free across shards) and unobserved,
  // so the sample stream matches a heat-free run; demand caches only with
  // the index on (--index=off keeps the naive sample as the reference).
  const auto heat_tick = [rebalance](ShardState& shard, core::SimTime now) {
    const sched::InterferenceOptions& itf = rebalance->interference;
    for (const std::size_t c : shard.clusters) {
      sched::VCluster& cluster = shard.dc.cluster(c);
      DemandCache* cache = cluster.index_enabled() ? &shard.heat_caches[c] : nullptr;
      shard.partial.heat_updates +=
          update_cluster_heat(cluster, now, itf.heat_alpha, itf.heat_bucket, cache);
    }
    shard.audit();
  };
  if (rebalance != nullptr) {
    schedule_every(shards, rebalance->interval, rebalance->interval, horizon,
                   rebalance_tick);
    if (rebalance->interference.enabled) {
      const core::SimTime heat = rebalance->interference.heat_interval;
      schedule_every(shards, heat, heat, horizon, heat_tick);
    }
  }
  if (monitor != nullptr) {
    for (core::SimTime t = monitor->interval() / 2; t < horizon; t += monitor->interval()) {
      shards.front()->queue.schedule(t, [&dc, monitor](core::SimTime now) {
        monitor->record(sample_usage(dc, now));
      });
    }
  }
  // Armed last so a fault colliding with a workload event fires after it
  // and control-lane ties with the schedules above resolve the same way on
  // every run.
  for (const auto& shard : shards) {
    if (shard->injector.has_value()) {
      shard->injector->arm(horizon);
    }
  }

  if (shard_count == 1) {
    // No windows: before an event at T fires every row arriving <= T is
    // scheduled, and no later row is, so the queue holds the active window.
    EventQueue& queue = shards.front()->queue;
    do {
      while (const core::VmInstance* row = source.peek()) {
        if (!queue.empty() && row->arrival > queue.next_time()) {
          break;
        }
        route_row(shards, *row);
        source.advance();
      }
    } while (queue.step());
  } else {
    run_windows(dc, source, shards, merger, horizon, options);
  }
  debug_audit_check(dc);

  RunResult result;
  for (const auto& shard : shards) {
    if (shard->engine.has_value()) {
      // Every intent is terminal now; re-derive the counter identity and
      // the reservation <-> flight bijection.
      SLACKVM_ASSERT(shard->engine->in_flight() == 0 &&
                     shard->engine->pending_intents() == 0);
      const std::vector<std::string> violations = shard->engine->audit();
      if (!violations.empty()) {
        std::string message = "replay: migration audit failed:";
        for (const std::string& v : violations) {
          message += "\n  " + v;
        }
        SLACKVM_THROW(message);
      }
    }
    for (std::size_t RunResult::*counter : kShardCounters) {
      result.*counter += shard->partial.*counter;
    }
  }
  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  merger.finish(result);
  return result;
}

RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                         const ShardOptions& options) {
  MaterializedSource source(trace);
  return replay_sharded(dc, source, options);
}

}  // namespace slackvm::sim
