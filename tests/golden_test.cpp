// Golden fingerprints: pins the RunResults of real runs against
// tests/golden/fingerprints.txt, so a change to code shared by both sides
// of a differential test cannot move the paper's numbers unnoticed.
//
// Each line of the file is `<run> <fnv1a-64> <headline fields>`, where the
// fingerprint covers every RunResult field (run_result_testing.hpp). The
// runs are every scenarios/*.scn file, the Fig. 3/4 distribution sweep of
// both providers at the paper's population, and the reference runs of the
// differential suites (the serial-replay anchors among them) plus a few
// multi-shard control-plane runs. A mismatch prints the headline fields
// that moved.
//
// `golden_tests --regenerate` recomputes every run and rewrites the file;
// justify each regeneration in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "perf/contention.hpp"
#include "run_result_testing.hpp"
#include "sched/policy.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm {
namespace {

using core::gib;
using sim::Datacenter;
using sim::RunResult;

const core::Resources kWorker{32, gib(128)};

/// One pinned run: name, fingerprint, and the headline fields as text.
struct Golden {
  std::string name;
  std::uint64_t hash = 0;
  std::string headline;
};
using Runs = std::vector<Golden>;

constexpr const char* kRunHeadline[] = {
    "opened_pms",      "peak_active_pms",       "placed_vms",
    "migrations",      "avg_unalloc_cpu_share", "avg_unalloc_mem_share",
    "avg_active_pms",  "host_failures",         "mig_committed",
    "itf_evictions"};

template <class R>
Golden pin(std::string name, const R& r) {
  std::string headline;
  for (const auto& [field, text] : testutil::describe(r)) {
    if constexpr (std::is_same_v<R, RunResult>) {
      if (std::find_if(std::begin(kRunHeadline), std::end(kRunHeadline),
                       [&field](const char* h) { return field == h; }) ==
          std::end(kRunHeadline)) {
        continue;
      }
    }
    headline += (headline.empty() ? "" : " ") + field + "=" + text;
  }
  return Golden{std::move(name), testutil::fingerprint(r), std::move(headline)};
}

void pin_comparison(Runs& runs, const std::string& name,
                    const sim::PackingComparison& cmp) {
  runs.push_back(pin(name + "/baseline", cmp.baseline));
  runs.push_back(pin(name + "/slackvm", cmp.slackvm));
}

workload::Trace generate(const workload::Catalog& catalog, workload::LevelMix mix,
                         std::size_t population, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  return workload::Generator(catalog, std::move(mix), cfg).generate();
}

std::string write_trace(const workload::Trace& trace, const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  workload::write_csv_fast(trace, out);
  return path;
}

// --- every shipped scenario ---------------------------------------------------

Runs scenario_runs() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(SLACKVM_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  Runs runs;
  for (const auto& file : files) {
    std::ifstream in(file);
    sim::Scenario scenario = sim::parse_scenario(in);
    std::string trace_file;
    if (!scenario.config.trace_path.empty()) {
      // The shipped file points at a user-generated capture; pin the
      // streaming path on a small deterministic trace instead.
      trace_file = write_trace(generate(workload::azure_catalog(),
                                        workload::distribution('F'), 200, 42),
                               "golden_real_trace.csv");
      scenario.config.trace_path = trace_file;
    }
    pin_comparison(runs, "scenario/" + file.stem().string(), scenario.run());
    if (!trace_file.empty()) {
      std::remove(trace_file.c_str());
    }
  }
  return runs;
}

// --- Fig. 3/4: both providers' distribution sweeps ----------------------------

Runs sweep_runs() {
  sim::ExperimentConfig config;  // 500 VMs over one week, as in the paper
  config.generator.seed = 42;
  config.repetitions = 3;
  config.parallelism = 0;  // bit-identical at every value
  Runs runs;
  for (const workload::Catalog* catalog :
       {&workload::azure_catalog(), &workload::ovhcloud_catalog()}) {
    for (const sim::PackingComparison& cmp :
         sim::run_distribution_sweep(*catalog, config)) {
      pin_comparison(runs, "sweep/" + cmp.provider + "/" + cmp.distribution, cmp);
    }
  }
  return runs;
}

// --- reference runs of the differential suites -------------------------------

sim::FaultConfig faults(std::size_t count, core::SimTime repair_delay) {
  sim::FaultConfig f;
  f.count = count;
  f.seed = 777;
  f.repair_delay = repair_delay;
  return f;
}

core::VmSpec make_spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  core::VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = core::OversubLevel{ratio};
  s.usage = core::UsageClass::kSteady;
  return s;
}

// Long-lived steady victims sharing 3:1 hosts with heavyweight polluters
// that arrive once the fleet is warm (the interference QoS case).
workload::Trace polluter_trace(std::uint64_t seed) {
  core::SplitMix64 rng(seed);
  std::vector<core::VmInstance> vms;
  std::uint64_t id = 1;
  const core::SimTime horizon = 2.0 * 24 * 3600;
  for (int i = 0; i < 34; ++i) {
    const bool polluter = i >= 28;
    core::VmInstance vm;
    vm.id = core::VmId{id++};
    vm.spec = polluter ? make_spec(16, gib(8), 3) : make_spec(4, gib(4), 3);
    vm.arrival = (polluter ? 3600.0 : 0.0) + rng.uniform(0.0, 1800.0);
    vm.departure = horizon - rng.uniform(0.0, 1800.0);
    vms.push_back(vm);
  }
  return workload::Trace(std::move(vms));
}

sim::RebalanceOptions interference_rebalance(bool engine) {
  sim::RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;
  reb.migration.enabled = engine;
  reb.interference.enabled = true;
  reb.interference.heat_interval = 1800.0;
  reb.interference.heat_alpha = 0.5;
  reb.interference.heat_bucket = 0.25;
  reb.interference.heat_weight = 4.0;
  reb.interference.threshold = 1.02;
  reb.interference.evictions_per_pass = 4;
  return reb;
}

Runs anchor_runs() {
  Runs runs;
  const workload::LevelMix even = workload::make_mix(34, 33, 33);

  {  // one-shard runs: shared/dedicated x index x faults
    const workload::Trace trace = generate(workload::azure_catalog(), even, 120, 7);
    const sim::FaultConfig fault_cfg = faults(40, 3600.0);
    for (const bool shared : {true, false}) {
      for (const bool index : {true, false}) {
        for (const bool inject : {false, true}) {
          Datacenter dc =
              shared ? Datacenter::shared(kWorker, sched::make_progress_policy)
                     : Datacenter::dedicated(
                           kWorker,
                           {core::OversubLevel{1}, core::OversubLevel{2},
                            core::OversubLevel{3}, core::OversubLevel{4}},
                           sched::make_progress_policy);
          dc.set_index_enabled(index);
          const RunResult r = sim::replay(dc, trace, std::nullopt, nullptr,
                                          inject ? &fault_cfg : nullptr);
          runs.push_back(pin(std::string("anchor/one_shard/") +
                                 (shared ? "shared" : "dedicated") + "/index" +
                                 std::to_string(index) + "/faults" +
                                 std::to_string(inject),
                             r));
        }
      }
    }
  }
  {  // interference acceptance: instant and engine mode, 4 shared cells
    const workload::Trace trace =
        generate(workload::azure_catalog(), workload::make_mix(10, 30, 60), 120, 42);
    for (const bool engine : {false, true}) {
      Datacenter dc = Datacenter::shared_sharded(
          kWorker, [] { return sched::make_interference_policy(4.0); }, 4);
      const RunResult r = sim::replay(dc, trace, interference_rebalance(engine));
      runs.push_back(
          pin(std::string("anchor/interference/") + (engine ? "engine" : "instant"), r));
    }
  }
  {  // >= 100 failures against the engine-driven rebalance loop
    const workload::Trace trace = generate(workload::azure_catalog(), even, 120, 42);
    const sim::FaultConfig fault_cfg = faults(250, 1800.0);
    sim::RebalanceOptions reb;
    reb.interval = 2.0 * 3600;
    reb.budget_per_pass = 16;
    reb.migration.enabled = true;
    reb.migration.bandwidth_mibps = 64.0;
    reb.migration.max_retries = 2;
    reb.migration.backoff_base = 300.0;
    Datacenter dc = Datacenter::shared_sharded(kWorker, sched::make_progress_policy, 4);
    runs.push_back(pin("anchor/migration_hundred_failures",
                       sim::replay(dc, trace, reb, nullptr, &fault_cfg)));
  }
  {  // serial streaming without hints vs the materialized trace
    const workload::Trace trace = generate(workload::azure_catalog(), even, 100, 7);
    const std::string path = write_trace(trace, "golden_stream.csv");
    for (const bool index : {true, false}) {
      const std::string name = "anchor/stream_serial/index" + std::to_string(index);
      Datacenter materialized = Datacenter::shared(kWorker, sched::make_progress_policy);
      materialized.set_index_enabled(index);
      runs.push_back(pin(name + "/materialized", sim::replay(materialized, trace)));
      Datacenter streamed = Datacenter::shared(kWorker, sched::make_progress_policy);
      streamed.set_index_enabled(index);
      sim::StreamingTraceSource source =
          sim::StreamingTraceSource::open(path, {}, /*pre_scan=*/false);
      runs.push_back(pin(name + "/streamed", sim::replay(streamed, source)));
    }
    std::remove(path.c_str());
  }
  {  // multi-shard cell fleets: faults, and instant rebalance on 4 cells
    const workload::Trace trace = generate(workload::azure_catalog(), even, 120, 42);
    const sim::FaultConfig fault_cfg = faults(40, 3600.0);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
      Datacenter dc =
          Datacenter::shared_sharded(kWorker, sched::make_progress_policy, shards);
      sim::ShardOptions options;
      options.shards = shards;
      options.faults = &fault_cfg;
      runs.push_back(pin("anchor/sharded/shards" + std::to_string(shards) + "/faults",
                         sim::replay_sharded(dc, trace, options)));
    }
    Datacenter dc = Datacenter::shared_sharded(kWorker, sched::make_progress_policy, 4);
    sim::ShardOptions options;
    options.shards = 4;
    options.rebalance = sim::RebalanceOptions{6.0 * 3600, 16};
    runs.push_back(
        pin("anchor/sharded/shards4/rebalance", sim::replay_sharded(dc, trace, options)));
    // The whole control plane across shards: engine-mode polluter passes
    // and consolidation, heat ticks and faults on 4 interference cells.
    Datacenter itf_dc = Datacenter::shared_sharded(
        kWorker, [] { return sched::make_interference_policy(4.0); }, 4);
    options.rebalance = interference_rebalance(true);
    options.faults = &fault_cfg;
    runs.push_back(pin("anchor/sharded/shards4/engine_interference_faults",
                       sim::replay_sharded(itf_dc, trace, options)));
  }
  {  // usage-monitor samples during a plain replay
    const workload::Trace trace =
        generate(workload::azure_catalog(), workload::distribution('E'), 60, 7);
    Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
    sim::UsageMonitor monitor(3600.0);
    runs.push_back(pin("anchor/usage_monitor/run",
                       sim::replay(dc, trace, std::nullopt, &monitor)));
    runs.push_back(pin("anchor/usage_monitor/report", monitor.report()));
  }
  {  // usage-monitor samples interleaved with heat ticks and polluter passes
    const workload::Trace trace = polluter_trace(11);
    const perf::ContentionModel model;
    for (const bool interference : {false, true}) {
      Datacenter dc = Datacenter::shared(kWorker, [interference] {
        return interference ? sched::make_interference_policy(4.0)
                            : sched::make_progress_policy();
      });
      dc.set_max_hosts_per_cluster(4);
      sim::RebalanceOptions reb = interference_rebalance(false);
      reb.interference.enabled = interference;
      reb.interference.heat_interval = 900.0;
      reb.interference.threshold = 1.05;
      sim::UsageMonitor monitor(900.0);
      monitor.track_inflation(&model);
      const std::string name =
          std::string("anchor/polluter_qos/") + (interference ? "interference" : "progress");
      runs.push_back(pin(name + "/run", sim::replay(dc, trace, reb, &monitor)));
      runs.push_back(pin(name + "/report", monitor.report()));
    }
  }
  return runs;
}

// --- the fingerprint file -------------------------------------------------------

std::map<std::string, Golden> load_golden() {
  std::map<std::string, Golden> golden;
  std::ifstream in(SLACKVM_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    Golden g;
    std::string hash;
    fields >> g.name >> hash;
    g.hash = std::stoull(hash, nullptr, 16);
    std::getline(fields >> std::ws, g.headline);
    golden[g.name] = g;
  }
  return golden;
}

std::string format(const Golden& g) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, g.hash);
  return g.name + " " + hash + " " + g.headline;
}

/// Headline tokens (`field=value`) that differ between two runs.
std::string headline_diff(const std::string& golden, const std::string& now) {
  std::map<std::string, std::string> before;
  std::istringstream in(golden);
  for (std::string token; in >> token;) {
    before[token.substr(0, token.find('='))] = token.substr(token.find('=') + 1);
  }
  std::string diff;
  std::istringstream cur(now);
  for (std::string token; cur >> token;) {
    const std::string key = token.substr(0, token.find('='));
    const std::string value = token.substr(token.find('=') + 1);
    if (before[key] != value) {
      diff += "\n    " + key + ": golden " + before[key] + ", now " + value;
    }
  }
  return diff.empty() ? "\n    (headline unchanged; a non-headline field moved)" : diff;
}

/// Every computed run must match its golden line, and every golden line
/// under `prefix` must still be computed.
void expect_golden(const std::string& prefix, const Runs& runs) {
  std::map<std::string, Golden> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "no fingerprints in " << SLACKVM_GOLDEN_FILE;
  for (const Golden& run : runs) {
    const auto it = golden.find(run.name);
    if (it == golden.end()) {
      ADD_FAILURE() << run.name << ": no golden entry (golden_tests --regenerate)";
      continue;
    }
    EXPECT_EQ(it->second.hash, run.hash)
        << run.name << ": fingerprint moved" << headline_diff(it->second.headline,
                                                              run.headline);
    golden.erase(it);
  }
  for (const auto& [name, g] : golden) {
    EXPECT_NE(name.rfind(prefix, 0), 0U) << name << ": golden entry no longer computed";
  }
}

TEST(Golden, Scenarios) { expect_golden("scenario/", scenario_runs()); }
TEST(Golden, DistributionSweeps) { expect_golden("sweep/", sweep_runs()); }
TEST(Golden, ReferenceRuns) { expect_golden("anchor/", anchor_runs()); }

int regenerate() {
  std::ofstream out(SLACKVM_GOLDEN_FILE, std::ios::trunc);
  out << "# Golden RunResult fingerprints (tests/golden_test.cpp):\n"
         "#   <run> <FNV-1a 64 over every RunResult field> <headline fields>\n"
         "# Rewritten only by `golden_tests --regenerate`; justify every\n"
         "# regeneration in CHANGES.md.\n";
  for (const auto& group : {scenario_runs, sweep_runs, anchor_runs}) {
    for (const Golden& run : group()) {
      out << format(run) << '\n';
    }
  }
  return out.good() ? 0 : 1;
}

}  // namespace
}  // namespace slackvm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regenerate") {
      return slackvm::regenerate();
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
