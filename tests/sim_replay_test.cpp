#include "sim/replay.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/error.hpp"
#include "sched/policy.hpp"
#include "sim/shard.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/generator.hpp"

namespace slackvm::sim {
namespace {

using core::gib;
using core::OversubLevel;

const core::Resources kWorker{32, gib(128)};

core::VmInstance make_vm(std::uint64_t id, core::SimTime arrival, core::SimTime departure,
                         core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  core::VmInstance vm;
  vm.id = core::VmId{id};
  vm.spec.vcpus = vcpus;
  vm.spec.mem_mib = mem;
  vm.spec.level = OversubLevel{ratio};
  vm.arrival = arrival;
  vm.departure = departure;
  return vm;
}

TEST(ReplayTest, PlacesEveryVm) {
  const workload::Trace trace({
      make_vm(1, 0, 100, 4, gib(8), 1),
      make_vm(2, 10, 50, 2, gib(4), 1),
      make_vm(3, 60, 90, 8, gib(16), 1),
  });
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace);
  EXPECT_EQ(result.placed_vms, 3U);
  EXPECT_EQ(result.opened_pms, 1U);
  EXPECT_EQ(result.peak_vms, 2U);  // VM 2 departs before VM 3 arrives
}

TEST(ReplayTest, DeparturesAllowReuse) {
  // Two 32-core VMs with disjoint lifetimes fit one PM sequentially.
  const workload::Trace trace({
      make_vm(1, 0, 100, 32, gib(8), 1),
      make_vm(2, 100, 200, 32, gib(8), 1),
  });
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace);
  EXPECT_EQ(result.opened_pms, 1U);
}

TEST(ReplayTest, OverlappingLifetimesOpenSecondPm) {
  const workload::Trace trace({
      make_vm(1, 0, 150, 32, gib(8), 1),
      make_vm(2, 100, 200, 32, gib(8), 1),
  });
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace);
  EXPECT_EQ(result.opened_pms, 2U);
}

TEST(ReplayTest, UnallocSharesAreSane) {
  const workload::Trace trace({make_vm(1, 0, 100, 16, gib(64), 1)});
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace);
  // Half of the single PM is allocated the whole time.
  EXPECT_NEAR(result.avg_unalloc_cpu_share, 0.5, 1e-9);
  EXPECT_NEAR(result.avg_unalloc_mem_share, 0.5, 1e-9);
  EXPECT_NEAR(result.peak_unalloc_cpu_share, 0.5, 1e-9);
}

TEST(ReplayTest, EmptyTraceYieldsZeroResult) {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, workload::Trace{});
  EXPECT_EQ(result.opened_pms, 0U);
  EXPECT_EQ(result.placed_vms, 0U);
  EXPECT_DOUBLE_EQ(result.avg_unalloc_cpu_share, 0.0);
}

TEST(ReplayTest, DeterministicAcrossRuns) {
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::distribution('F'),
                          {.target_population = 60,
                           .horizon = 2.0 * 24 * 3600,
                           .mean_lifetime = 1.0 * 24 * 3600,
                           .seed = 11})
          .generate();
  Datacenter a = Datacenter::shared(kWorker, sched::make_progress_policy);
  Datacenter b = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult ra = replay(a, trace);
  const RunResult rb = replay(b, trace);
  EXPECT_EQ(ra.opened_pms, rb.opened_pms);
  EXPECT_DOUBLE_EQ(ra.avg_unalloc_cpu_share, rb.avg_unalloc_cpu_share);
  EXPECT_DOUBLE_EQ(ra.avg_unalloc_mem_share, rb.avg_unalloc_mem_share);
}

TEST(ReplayTest, FirstFitAndProgressBothPlaceAll) {
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::distribution('E'),
                          {.target_population = 50,
                           .horizon = 2.0 * 24 * 3600,
                           .mean_lifetime = 1.0 * 24 * 3600,
                           .seed = 12})
          .generate();
  Datacenter ff = Datacenter::shared(kWorker, sched::make_first_fit);
  Datacenter prog = Datacenter::shared(kWorker, sched::make_progress_policy);
  EXPECT_EQ(replay(ff, trace).placed_vms, trace.size());
  EXPECT_EQ(replay(prog, trace).placed_vms, trace.size());
}

// A pass schedule over a non-positive or non-finite interval would never
// end; the engine rejects the options on entry, whichever way it is called.
TEST(ReplayTest, RejectsNonPositiveOrNonFiniteRebalanceInterval) {
  const workload::Trace trace({make_vm(1, 0, 7200, 4, gib(8), 1)});
  for (const double interval : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("interval " + std::to_string(interval));
    RebalanceOptions rebalance;
    rebalance.interval = interval;
    EXPECT_THROW(rebalance.validate(), core::SlackError);
    Datacenter serial = Datacenter::shared(kWorker, sched::make_progress_policy);
    EXPECT_THROW((void)replay(serial, trace, rebalance), core::SlackError);
    Datacenter sharded =
        Datacenter::shared_sharded(kWorker, sched::make_progress_policy, 2);
    ShardOptions options;
    options.shards = 2;
    options.rebalance = rebalance;
    EXPECT_THROW((void)replay_sharded(sharded, trace, options), core::SlackError);
  }
}

// sample_usage() reads every cluster at once, which only a one-shard run
// may do mid-window.
TEST(ReplayTest, UsageMonitorNeedsOneShard) {
  const workload::Trace trace({make_vm(1, 0, 7200, 4, gib(8), 1)});
  UsageMonitor monitor(600.0);
  Datacenter dc = Datacenter::shared_sharded(kWorker, sched::make_progress_policy, 2);
  ShardOptions options;
  options.shards = 2;
  options.usage_monitor = &monitor;
  EXPECT_THROW((void)replay_sharded(dc, trace, options), core::SlackError);
  options.shards = 1;
  (void)replay_sharded(dc, trace, options);
  EXPECT_EQ(monitor.report().samples, 12U);  // t = 300, 900, ..., 6900
}

}  // namespace
}  // namespace slackvm::sim
