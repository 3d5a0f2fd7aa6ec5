#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <tuple>

#include "checks.hpp"
#include "core/error.hpp"
#include "core/oversub.hpp"
#include "sched/policy.hpp"
#include "sched/scorer.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "tracing.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"
#include "workload/trace_reader.hpp"

namespace perfbench {

namespace core = slackvm::core;
namespace sched = slackvm::sched;
namespace sim = slackvm::sim;
namespace wl = slackvm::workload;

namespace {

// ---------------------------------------------------------------------------
// Workload parameters. The seed is the only input that varies between runs.

const core::Resources kHost{32, core::gib(128)};  // the paper's PM (§VII-B1)
constexpr double kDay = 24.0 * 3600;
constexpr double kHorizon = 7 * kDay;  // one simulated week

// paper_grid: run_distribution_sweep for both providers at 10x the paper's
// 500-VM population, 3 repetitions per distribution, fanned out 4 ways.
constexpr std::size_t kGridPopulation = 5000;
constexpr std::size_t kGridReps = 3;
constexpr std::size_t kGridParallelism = 4;
const std::array<std::string, 2> kProviders{"azure", "ovhcloud"};
// The provider whose sweep is rerun serially for the thread-identity check.
const std::string kIdentityProvider = "azure";

// Streamed traces, generated like tools/trace_synth: --rows via Little's law.
struct TraceShape {
  const char* provider;
  char distribution;
  std::size_t rows;
  double lifetime_days;
};
constexpr TraceShape kStreamShape{"ovhcloud", 'F', 1'000'000, 2.0};
constexpr TraceShape kControlShape{"azure", 'J', 600'000, 14.0};

// control_plane: sharded replay with every control-plane mechanism armed.
constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 4;
constexpr double kRebalanceInterval = 3600;
constexpr std::size_t kRebalanceBudget = 16;
constexpr double kHeatWeight = 4.0;
constexpr double kHeatAlpha = 0.5;
constexpr double kItfThreshold = 1.02;
constexpr std::size_t kItfEvictions = 4;
constexpr std::size_t kFaultCount = 300;

// The traced run reports the median of this many scan pre-passes.
constexpr int kScanReps = 5;
// The measured loop always repeats the replay at least this often, so the
// repeat-run identity check always has a pair to compare.
constexpr std::size_t kMinReps = 2;

// Every per-layer metric with its unit, in report order (BENCHMARK.json lists
// the same). A traced run reports 0 for a layer its workload does not use.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr std::array kLayerMetrics{
    LayerMetric{"workload.pull_s", "s"},         LayerMetric{"workload.scan_s", "s"},
    LayerMetric{"workload.generate_s", "s"},     LayerMetric{"workload.spec_classes", "count"},
    LayerMetric{"workload.peak_vms", "count"},   LayerMetric{"sched.score_calls", "count"},
    LayerMetric{"sched.score_calls_per_vm", "count"},
    LayerMetric{"sched.score_s", "s"},           LayerMetric{"sched.deploy_s", "s"},
    LayerMetric{"sched.remove_s", "s"},          LayerMetric{"sim.observe_s", "s"},
    LayerMetric{"sim.engine_s", "s"},            LayerMetric{"sim.replay_dedicated_s", "s"},
    LayerMetric{"sim.replay_shared_s", "s"},     LayerMetric{"sim.cell_p50_ms", "ms"},
    LayerMetric{"sim.cell_p90_ms", "ms"},        LayerMetric{"sim.parallel_eff", "ratio"},
    LayerMetric{"sim.shard_speedup", "ratio"},   LayerMetric{"sim.pm_saving_pct", "%"},
    LayerMetric{"ctl.faults_s", "s"},            LayerMetric{"ctl.rebalance_s", "s"},
    LayerMetric{"ctl.migration_s", "s"},         LayerMetric{"ctl.interference_s", "s"},
    LayerMetric{"mig.planned", "count"},         LayerMetric{"mig.commit_share", "ratio"},
    LayerMetric{"mig.retries", "count"},         LayerMetric{"itf.evictions", "count"},
    LayerMetric{"itf.heat_updates", "count"},    LayerMetric{"evac.evacuated", "count"},
    LayerMetric{"evac.replaced_share", "ratio"}, LayerMetric{"trace.overhead_pct", "%"},
};

/// Put the per-layer metrics a traced run added into kLayerMetrics order,
/// with 0 for every one it did not add.
void complete_layer_metrics(Report& report) {
  std::vector<Metric> ordered;
  std::size_t found = 0;
  for (const LayerMetric& layer : kLayerMetrics) {
    const auto it = std::find_if(report.metrics.begin(), report.metrics.end(),
                                 [&](const Metric& m) { return m.name == layer.name; });
    if (it == report.metrics.end()) {
      ordered.push_back({layer.name, 0, layer.unit});
    } else {
      ordered.push_back(*it);
      ++found;
    }
  }
  SLACKVM_ASSERT(found == report.metrics.size());  // every added name is listed
  report.metrics = std::move(ordered);
}

// ---------------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> values) {
  SLACKVM_ASSERT(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> values, double q) {
  SLACKVM_ASSERT(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double share(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Median host seconds of `reps` calls of `work`.
double median_seconds(int reps, const std::function<void()>& work) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    work();
    samples.push_back(seconds_between(start, Clock::now()));
  }
  return median(std::move(samples));
}

struct Timing {
  sim::RunResult result;
  double seconds = 0;
};

Timing time_replay(const std::function<sim::RunResult()>& replay) {
  const Clock::time_point start = Clock::now();
  Timing timing;
  timing.result = replay();
  timing.seconds = seconds_between(start, Clock::now());
  return timing;
}

/// The measured section of an end-to-end run: `setup` and then
/// `repetition` (which times its own replay, set-up excluded) repeat until
/// `seconds` have passed and at least kMinReps ran. Set-up is timed before
/// every repetition, so its median spans the whole run rather than one
/// moment of it. Peak RSS is read after the first repetition, so it does not
/// depend on how many repetitions fit into the run.
///
/// Throughput is taken from the fastest repetition. The replays are
/// deterministic and memory-bound; on a shared host, contention from other
/// tenants only ever slows a repetition down, by 10-30 % and for seconds at
/// a time, so the fastest repetition is the steadiest estimate of the
/// code's own speed. The median and the slowest are printed beside it.
struct Measured {
  std::vector<double> walls;
  std::vector<double> setups;
  double peak_rss_mib = 0;
};

Measured measure(double seconds, const std::function<void()>& setup,
                 const std::function<double()>& repetition) {
  Measured measured;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (measured.walls.size() < kMinReps || Clock::now() < deadline) {
    const Clock::time_point start = Clock::now();
    setup();
    measured.setups.push_back(seconds_between(start, Clock::now()));
    measured.walls.push_back(repetition());
    if (measured.walls.size() == 1) {
      measured.peak_rss_mib = peak_rss_mib();
    }
  }
  std::vector<double> sorted = measured.walls;
  std::sort(sorted.begin(), sorted.end());
  std::printf("  %zu timed repetitions: fastest %.4f s, median %.4f s, slowest %.4f s\n",
              sorted.size(), sorted.front(), median(sorted), sorted.back());
  return measured;
}

/// measure() over single replays: every repetition is audited against the
/// input's `rows` and compared with the first, whose result is returned.
std::pair<Measured, sim::RunResult> measure_replays(const std::string& what,
                                                    std::size_t rows, double seconds,
                                                    Report& report,
                                                    const std::function<void()>& setup,
                                                    const std::function<Timing()>& replay) {
  std::optional<sim::RunResult> first;
  Measured measured = measure(seconds, setup, [&] {
    const Timing run = replay();
    std::vector<std::string> problems = audit_result(run.result, rows);
    if (first) {
      for (const std::string& f : diff_results(run.result, *first)) {
        problems.push_back("differs from the first run: " + f);
      }
    } else {
      first = run.result;
    }
    report.check(what, problems);
    return run.seconds;
  });
  return {std::move(measured), *first};
}

/// The end-to-end metrics every workload reports.
void add_e2e(Report& report, double events, const Measured& measured, double opened_pms,
             double avg_active_pms) {
  report.add("events_per_s",
             events / *std::min_element(measured.walls.begin(), measured.walls.end()),
             "1/s");
  report.add("setup_s", median(measured.setups), "s");
  report.add("peak_rss_mib", measured.peak_rss_mib, "MiB");
  report.add("opened_pms", opened_pms, "count");
  report.add("avg_active_pms", avg_active_pms, "count");
}

std::vector<std::string> prefixed(const std::string& prefix,
                                  const std::vector<std::string>& fields) {
  std::vector<std::string> out;
  for (const std::string& field : fields) {
    out.push_back(prefix + field);
  }
  return out;
}

/// Two runs of `replay`: the first also warms the process up, the second
/// must agree with it bit for bit. Returns the first result with the faster
/// of the two walls.
Timing fastest_of_two(const std::string& what, Report& report,
                      const std::function<Timing()>& replay) {
  Timing first = replay();
  const Timing second = replay();
  report.check(what + " repeated", prefixed("differs from the first run: ",
                                            diff_results(second.result, first.result)));
  first.seconds = std::min(first.seconds, second.seconds);
  return first;
}

/// Input properties of one or more traces: distinct VM specs across all of
/// them and the highest peak concurrency of any one (departures at an
/// arrival's timestamp leave first, as in the replay).
class InputProfile {
 public:
  void add(const wl::Trace& trace) {
    departures_ = {};
    for (const core::VmInstance& vm : trace.vms()) {
      add(vm);
    }
  }
  [[nodiscard]] std::size_t spec_classes() const { return specs_.size(); }
  [[nodiscard]] std::size_t peak_vms() const { return peak_; }

 private:
  void add(const core::VmInstance& vm) {
    specs_.emplace(vm.spec.vcpus, vm.spec.mem_mib, vm.spec.level.ratio());
    while (!departures_.empty() && departures_.top() <= vm.arrival) {
      departures_.pop();
    }
    departures_.push(vm.departure);
    peak_ = std::max(peak_, departures_.size());
  }

  std::set<std::tuple<core::VcpuCount, core::MemMib, std::uint8_t>> specs_;
  std::priority_queue<core::SimTime, std::vector<core::SimTime>, std::greater<>>
      departures_;
  std::size_t peak_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs on disk: the generated trace (trace workloads) and inputs.txt, a
// "key value..." file with the seed, the row counts the checks use and the
// input properties the traced run reports.

struct Inputs {
  std::uint64_t seed = 0;
  std::size_t rows = 0;  ///< trace workloads: rows in trace.csv
  std::size_t spec_classes = 0;
  std::size_t peak_vms = 0;
  /// paper_grid: rows of each (provider, distribution) repetition's trace.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> cell_rows;
};

std::filesystem::path trace_path(const std::filesystem::path& dir) {
  return dir / "trace.csv";
}

Inputs read_inputs(const std::filesystem::path& dir) {
  std::ifstream in(dir / "inputs.txt");
  if (!in) {
    SLACKVM_THROW("cannot read " + (dir / "inputs.txt").string() +
                  "; write the inputs first");
  }
  Inputs inputs;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "seed") {
      fields >> inputs.seed;
    } else if (key == "rows") {
      fields >> inputs.rows;
    } else if (key == "spec_classes") {
      fields >> inputs.spec_classes;
    } else if (key == "peak_vms") {
      fields >> inputs.peak_vms;
    } else if (key == "cell") {
      std::string provider;
      std::string mix;
      fields >> provider >> mix;
      std::vector<std::size_t>& rows = inputs.cell_rows[{provider, mix}];
      for (std::size_t r = 0; fields >> r;) {
        rows.push_back(r);
      }
    }
  }
  return inputs;
}

void add_input_properties(Report& report, const Inputs& inputs) {
  report.add("workload.spec_classes", static_cast<double>(inputs.spec_classes), "count");
  report.add("workload.peak_vms", static_cast<double>(inputs.peak_vms), "count");
}

void check_scan(const wl::TraceReader::ScanInfo& scan, const Inputs& inputs) {
  if (scan.rows != inputs.rows) {
    SLACKVM_THROW("scan found " + std::to_string(scan.rows) + " rows, the input has " +
                  std::to_string(inputs.rows));
  }
}

sim::ExperimentConfig grid_config(std::uint64_t seed, std::size_t parallelism) {
  sim::ExperimentConfig config;
  config.host_config = kHost;
  config.generator.target_population = kGridPopulation;
  config.generator.seed = seed;
  config.repetitions = kGridReps;
  config.parallelism = parallelism;
  return config;
}

wl::GeneratorConfig cell_generator(const sim::ExperimentConfig& config, std::size_t rep) {
  wl::GeneratorConfig gen = config.generator;
  gen.seed = config.generator.seed + rep;  // as sim::run_distribution_sweep seeds cells
  return gen;
}

void write_trace(const TraceShape& shape, std::uint64_t seed,
                 const std::filesystem::path& dir, std::ofstream& meta,
                 InputProfile& profile) {
  wl::GeneratorConfig cfg;
  cfg.horizon = kHorizon;
  cfg.mean_lifetime = shape.lifetime_days * kDay;
  cfg.seed = seed;
  cfg.target_population = static_cast<std::size_t>(static_cast<double>(shape.rows) *
                                                   cfg.mean_lifetime / cfg.horizon);
  const wl::Generator gen(wl::catalog_by_name(shape.provider),
                          wl::distribution(shape.distribution), cfg);
  const wl::Trace trace = gen.generate();
  profile.add(trace);
  std::ofstream out(trace_path(dir), std::ios::binary);
  wl::write_csv_fast(trace, out, wl::TraceFormat::kNative);
  out.flush();
  if (!out) {
    SLACKVM_THROW("cannot write " + trace_path(dir).string());
  }
  meta << "rows " << trace.size() << '\n';
}

// ---------------------------------------------------------------------------
// paper_grid

std::vector<core::OversubLevel> levels_present(const wl::LevelMix& mix) {
  std::vector<core::OversubLevel> levels;
  for (const std::uint8_t ratio : core::kPaperLevelRatios) {
    const core::OversubLevel level{ratio};
    if (mix.share(level) > 0.0) {
      levels.push_back(level);
    }
  }
  return levels;
}

using Sweep = std::vector<sim::PackingComparison>;

/// Rounded mean of a distribution's repetition row counts, the way
/// sim::mean_result rounds placed_vms.
std::size_t mean_rows(const std::vector<std::size_t>& rows) {
  double sum = 0;
  for (const std::size_t r : rows) {
    sum += static_cast<double>(r);
  }
  return static_cast<std::size_t>(sum / static_cast<double>(rows.size()) + 0.5);
}

std::vector<std::string> audit_sweep(const Sweep& sweep, const std::string& provider,
                                     const Inputs& inputs) {
  std::vector<std::string> problems;
  if (sweep.size() != wl::paper_distributions().size()) {
    problems.emplace_back("sweep has " + std::to_string(sweep.size()) + " rows");
    return problems;
  }
  for (const sim::PackingComparison& row : sweep) {
    const auto rows = inputs.cell_rows.find({provider, row.distribution});
    if (rows == inputs.cell_rows.end() || rows->second.size() != kGridReps) {
      problems.push_back("no input rows for " + provider + " " + row.distribution);
      continue;
    }
    const std::size_t expected = mean_rows(rows->second);
    const std::string where = provider + " " + row.distribution;
    for (const std::string& p : audit_result(row.baseline, expected)) {
      problems.push_back(where + " dedicated: " + p);
    }
    for (const std::string& p : audit_result(row.slackvm, expected)) {
      problems.push_back(where + " shared: " + p);
    }
  }
  return problems;
}

std::vector<std::string> diff_sweeps(const Sweep& a, const Sweep& b) {
  std::vector<std::string> problems;
  if (a.size() != b.size()) {
    problems.emplace_back("row count differs");
    return problems;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string where = a[i].provider + " " + a[i].distribution;
    for (const std::string& f : diff_results(a[i].baseline, b[i].baseline)) {
      problems.push_back(where + " dedicated." + f);
    }
    for (const std::string& f : diff_results(a[i].slackvm, b[i].slackvm)) {
      problems.push_back(where + " shared." + f);
    }
  }
  return problems;
}

constexpr std::size_t sweep_replays() {
  // 15 distributions x repetitions x (dedicated + shared)
  return 15 * kGridReps * 2;
}

std::size_t grid_replayed_rows(const Inputs& inputs) {
  std::size_t rows = 0;
  for (const auto& [key, reps] : inputs.cell_rows) {
    for (const std::size_t r : reps) {
      rows += 2 * r;  // each trace is replayed by both organisations
    }
  }
  return rows;
}

/// Everything a sweep builds before its first replay, per cell.
void grid_setup(const sim::ExperimentConfig& config) {
  for (const std::string& provider : kProviders) {
    const wl::Catalog& catalog = wl::catalog_by_name(provider);
    for (const wl::LevelMix& mix : wl::paper_distributions()) {
      for (std::size_t rep = 0; rep < kGridReps; ++rep) {
        const wl::Generator gen(catalog, mix, cell_generator(config, rep));
        const sim::Datacenter dedicated = sim::Datacenter::dedicated(
            config.host_config, levels_present(mix), sched::make_first_fit);
        const sim::Datacenter shared =
            sim::Datacenter::shared(config.host_config, sched::make_progress_policy);
      }
    }
  }
}

/// Both providers' sweeps, in kProviders order.
std::vector<Sweep> run_grid(const sim::ExperimentConfig& config) {
  std::vector<Sweep> sweeps;
  for (const std::string& provider : kProviders) {
    sweeps.push_back(sim::run_distribution_sweep(wl::catalog_by_name(provider), config));
  }
  return sweeps;
}

void paper_grid_e2e(const Inputs& inputs, const RunOptions& options, Report& report) {
  const sim::ExperimentConfig config = grid_config(inputs.seed, kGridParallelism);
  std::vector<Sweep> reference;
  const auto setup = [&config] { grid_setup(config); };
  const Measured measured = measure(options.seconds, setup, [&] {
    const Clock::time_point start = Clock::now();
    std::vector<Sweep> sweeps = run_grid(config);
    const double wall = seconds_between(start, Clock::now());
    for (std::size_t p = 0; p < kProviders.size(); ++p) {
      std::vector<std::string> problems = audit_sweep(sweeps[p], kProviders[p], inputs);
      if (!reference.empty()) {
        for (const std::string& d : diff_sweeps(sweeps[p], reference[p])) {
          problems.push_back("differs from the first run: " + d);
        }
      }
      report.check("paper_grid " + kProviders[p] + " sweep", problems, sweep_replays());
    }
    if (reference.empty()) {
      reference = std::move(sweeps);
    }
    return wall;
  });

  // Thread identity: one provider's sweep again, serially.
  const std::size_t id = static_cast<std::size_t>(
      std::find(kProviders.begin(), kProviders.end(), kIdentityProvider) -
      kProviders.begin());
  const Sweep serial = sim::run_distribution_sweep(
      wl::catalog_by_name(kIdentityProvider), grid_config(inputs.seed, 1));
  report.check("paper_grid " + kIdentityProvider + " sweep at parallelism 1",
               prefixed("differs from parallelism 4: ", diff_sweeps(serial, reference[id])),
               sweep_replays());

  double opened = 0;
  double active = 0;
  double saving = 0;
  std::size_t comparisons = 0;
  for (const Sweep& sweep : reference) {
    for (const sim::PackingComparison& row : sweep) {
      opened += static_cast<double>(row.slackvm.opened_pms);
      active += row.slackvm.avg_active_pms;
      saving += row.pm_saving_pct();
      ++comparisons;
    }
  }
  std::printf("paper_grid: %zu comparisons, %zu replayed rows per grid, mean PM saving "
              "%.3f %%\n",
              comparisons, grid_replayed_rows(inputs),
              saving / static_cast<double>(comparisons));
  add_e2e(report, 2.0 * static_cast<double>(grid_replayed_rows(inputs)), measured, opened,
          active);
}

/// One traced (distribution, repetition) cell: both organisations replayed
/// through probes, with the cell's timings.
struct TracedCell {
  sim::RunResult baseline;
  sim::RunResult slackvm;
  double generate_s = 0;
  double dedicated_s = 0;
  double shared_s = 0;
  double task_s = 0;
  Span pull;
  Span score;
};

TracedCell traced_cell(const wl::Catalog& catalog, const wl::LevelMix& mix,
                       const sim::ExperimentConfig& config, std::size_t rep) {
  const Clock::time_point task_start = Clock::now();
  TracedCell cell;
  Clock::time_point start = Clock::now();
  const wl::Trace trace = wl::Generator(catalog, mix, cell_generator(config, rep)).generate();
  cell.generate_s = seconds_between(start, Clock::now());

  {
    sim::Datacenter dc = sim::Datacenter::dedicated(config.host_config, levels_present(mix),
                                                    sched::make_first_fit);
    dc.set_index_enabled(config.use_index);
    sim::MaterializedSource inner(trace);
    TracedSource source(inner);
    start = Clock::now();
    cell.baseline = sim::replay(dc, source);
    cell.dedicated_s = seconds_between(start, Clock::now());
    cell.pull += source.span();
  }
  {
    ScorerProbe probe;
    sim::Datacenter dc = sim::Datacenter::shared(
        config.host_config,
        probe.factory([] { return std::make_unique<sched::ProgressScorer>(); }));
    dc.set_index_enabled(config.use_index);
    sim::MaterializedSource inner(trace);
    TracedSource source(inner);
    start = Clock::now();
    cell.slackvm = sim::replay(dc, source);
    cell.shared_s = seconds_between(start, Clock::now());
    cell.pull += source.span();
    cell.score += probe.total();
  }
  cell.task_s = seconds_between(task_start, Clock::now());
  return cell;
}

void paper_grid_traced(const Inputs& inputs, Report& report) {
  const sim::ExperimentConfig config = grid_config(inputs.seed, kGridParallelism);
  // The first grid warms the process up (catalogs, allocator, threads); the
  // second is the untraced wall the traced loop is compared with.
  const std::vector<Sweep> reference = run_grid(config);
  const Clock::time_point untraced_start = Clock::now();
  const std::vector<Sweep> repeat = run_grid(config);
  const double untraced_s = seconds_between(untraced_start, Clock::now());
  for (std::size_t p = 0; p < kProviders.size(); ++p) {
    report.check("paper_grid " + kProviders[p] + " sweep",
                 audit_sweep(reference[p], kProviders[p], inputs), sweep_replays());
    report.check("paper_grid " + kProviders[p] + " repeated sweep",
                 prefixed("differs from the first run: ",
                          diff_sweeps(repeat[p], reference[p])),
                 sweep_replays());
  }

  // The sweep's cell loop, once per provider, with every replay probed.
  const std::vector<wl::LevelMix>& mixes = wl::paper_distributions();
  std::vector<TracedCell> cells;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t p = 0; p < kProviders.size(); ++p) {
    const wl::Catalog& catalog = wl::catalog_by_name(kProviders[p]);
    sim::ParallelRunner runner(config.parallelism);
    std::vector<TracedCell> provider_cells = runner.map<TracedCell>(
        mixes.size() * kGridReps, [&](std::size_t t) {
          return traced_cell(catalog, mixes[t / kGridReps], config, t % kGridReps);
        });
    // Reduce like the sweep and compare against its rows.
    std::vector<std::string> problems;
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      std::vector<sim::RunResult> baseline;
      std::vector<sim::RunResult> slackvm;
      for (std::size_t rep = 0; rep < kGridReps; ++rep) {
        const TracedCell& cell = provider_cells[m * kGridReps + rep];
        baseline.push_back(cell.baseline);
        slackvm.push_back(cell.slackvm);
      }
      const std::string where = kProviders[p] + " " + mixes[m].name;
      for (const std::string& f :
           diff_results(sim::mean_result(baseline), reference[p][m].baseline)) {
        problems.push_back(where + " dedicated." + f);
      }
      for (const std::string& f :
           diff_results(sim::mean_result(slackvm), reference[p][m].slackvm)) {
        problems.push_back(where + " shared." + f);
      }
    }
    report.check("paper_grid " + kProviders[p] + " traced cell loop",
                 prefixed("traced mean_result differs from the sweep: ", problems),
                 sweep_replays());
    std::move(provider_cells.begin(), provider_cells.end(), std::back_inserter(cells));
  }
  const double traced_s = seconds_between(traced_start, Clock::now());

  Span pull;
  Span score;
  std::size_t placed = 0;
  double generate_s = 0;
  double dedicated_s = 0;
  double shared_s = 0;
  double task_s = 0;
  std::vector<double> replay_ms;
  for (const TracedCell& cell : cells) {
    pull += cell.pull;
    score += cell.score;
    placed += cell.slackvm.placed_vms;
    generate_s += cell.generate_s;
    dedicated_s += cell.dedicated_s;
    shared_s += cell.shared_s;
    task_s += cell.task_s;
    replay_ms.push_back(cell.dedicated_s * 1e3);
    replay_ms.push_back(cell.shared_s * 1e3);
  }
  double saving = 0;
  std::size_t comparisons = 0;
  for (const Sweep& sweep : reference) {
    for (const sim::PackingComparison& row : sweep) {
      saving += row.pm_saving_pct();
      ++comparisons;
    }
  }
  report.add("workload.pull_s", pull.net_seconds(), "s");
  report.add("workload.generate_s", generate_s, "s");
  add_input_properties(report, inputs);
  report.add("sched.score_calls", static_cast<double>(score.calls), "count");
  report.add("sched.score_calls_per_vm", share(score.calls, placed), "count");
  report.add("sched.score_s", score.net_seconds(), "s");
  report.add("sim.replay_dedicated_s", dedicated_s, "s");
  report.add("sim.replay_shared_s", shared_s, "s");
  report.add("sim.cell_p50_ms", percentile(replay_ms, 50), "ms");
  report.add("sim.cell_p90_ms", percentile(replay_ms, 90), "ms");
  report.add("sim.parallel_eff",
             task_s / (static_cast<double>(config.parallelism) * traced_s), "ratio");
  report.add("sim.pm_saving_pct", saving / static_cast<double>(comparisons), "%");
  report.add("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%");
}

// ---------------------------------------------------------------------------
// trace_stream

sim::Datacenter stream_datacenter(const sim::PolicyFactory& factory) {
  return sim::Datacenter::shared(kHost, factory);
}

sim::RunResult stream_replay(const std::string& path,
                             const wl::TraceReader::ScanInfo& scan) {
  sim::Datacenter dc = stream_datacenter(sched::make_progress_policy);
  sim::StreamingTraceSource source(wl::TraceReader(path), scan);
  return sim::replay(dc, source);
}

void trace_stream_e2e(const Inputs& inputs, const RunOptions& options, Report& report) {
  const std::string path = trace_path(options.dir).string();
  wl::TraceReader::ScanInfo scan;
  const auto setup = [&] {
    scan = wl::TraceReader::scan(path);
    const sim::Datacenter dc = stream_datacenter(sched::make_progress_policy);
  };
  const auto [measured, first] = measure_replays(
      "trace_stream replay", inputs.rows, options.seconds, report, setup, [&] {
        sim::Datacenter dc = stream_datacenter(sched::make_progress_policy);
        sim::StreamingTraceSource source(wl::TraceReader(path), scan);
        return time_replay([&] { return sim::replay(dc, source); });
      });
  check_scan(scan, inputs);
  std::printf("trace_stream: %zu rows, %zu PMs, %zu peak VMs\n", inputs.rows,
              first.opened_pms, first.peak_vms);
  add_e2e(report, 2.0 * static_cast<double>(inputs.rows), measured,
          static_cast<double>(first.opened_pms), first.avg_active_pms);
}

struct DirectSpans {
  Span deploy;
  Span remove;
  Span observe;
};

/// The serial replay of a plain trace, rebuilt from the Datacenter and
/// MetricsCollector public calls without the event queue: deploy/remove in
/// (time, row, arrival-before-departure) order — the queue's order for a
/// workload-lane-only replay — each followed by the replay's observation.
sim::RunResult direct_replay(const std::string& path,
                             const wl::TraceReader::ScanInfo& scan, DirectSpans& spans) {
  sim::Datacenter dc = stream_datacenter(sched::make_progress_policy);
  dc.reserve(scan.rows);  // what replay() does with the source's size hint
  sim::MetricsCollector metrics;
  sim::RunResult result;
  core::SimTime end_time = scan.horizon;

  const auto observe = [&](core::SimTime t) {
    const Timed timed(spans.observe);
    end_time = std::max(end_time, t);
    const std::size_t active = dc.active_pms();
    metrics.observe(t, dc.total_alloc(), dc.total_config(), dc.vm_count(), active);
    result.peak_active_pms = std::max(result.peak_active_pms, active);
  };
  // Pending departures, earliest first; equal times leave in row order.
  using Departure = std::tuple<core::SimTime, std::size_t, core::VmId>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;
  const auto depart_until = [&](core::SimTime limit) {
    while (!departures.empty() && std::get<0>(departures.top()) <= limit) {
      const auto [t, row, id] = departures.top();
      departures.pop();
      {
        const Timed timed(spans.remove);
        dc.remove(id);
      }
      observe(t);
    }
  };

  wl::TraceReader reader(path);
  core::VmInstance vm;
  for (std::size_t row = 0; reader.next(vm); ++row) {
    depart_until(vm.arrival);  // every pending departure belongs to an earlier row
    {
      const Timed timed(spans.deploy);
      dc.deploy(vm.id, vm.spec);
    }
    ++result.placed_vms;
    observe(vm.arrival);
    departures.emplace(vm.departure, row, vm.id);
  }
  depart_until(std::numeric_limits<core::SimTime>::infinity());

  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  metrics.finish(end_time, result);
  return result;
}

void trace_stream_traced(const Inputs& inputs, const RunOptions& options, Report& report) {
  const std::string path = trace_path(options.dir).string();
  wl::TraceReader::ScanInfo scan;
  const double scan_s =
      median_seconds(kScanReps, [&] { scan = wl::TraceReader::scan(path); });

  const Timing untraced = fastest_of_two("trace_stream replay", report, [&] {
    return time_replay([&] { return stream_replay(path, scan); });
  });
  std::vector<std::string> problems = audit_result(untraced.result, inputs.rows);
  if (inputs.peak_vms != untraced.result.peak_vms) {
    problems.push_back("peak VMs " + std::to_string(untraced.result.peak_vms) +
                       " != input peak " + std::to_string(inputs.peak_vms));
  }
  report.check("trace_stream replay", problems);

  ScorerProbe probe;
  Span pull;
  const Timing traced = time_replay([&] {
    sim::Datacenter dc = stream_datacenter(
        probe.factory([] { return std::make_unique<sched::ProgressScorer>(); }));
    sim::StreamingTraceSource inner(wl::TraceReader(path), scan);
    TracedSource source(inner);
    sim::RunResult result = sim::replay(dc, source);
    pull = source.span();
    return result;
  });
  report.check("trace_stream traced replay",
               prefixed("traced differs from untraced: ",
                        diff_results(traced.result, untraced.result)));

  DirectSpans spans;
  const sim::RunResult direct = direct_replay(path, scan, spans);
  const bool direct_ok =
      report.check("trace_stream direct driver",
                   prefixed("direct driver differs from the replay: ",
                            diff_results(direct, untraced.result)));
  const double deploy_s = spans.deploy.net_seconds();
  const double remove_s = spans.remove.net_seconds();
  const double observe_s = spans.observe.net_seconds();
  const double engine_s =
      direct_ok ? untraced.seconds - pull.net_seconds() - deploy_s - remove_s - observe_s
                : 0.0;

  report.add("workload.pull_s", pull.net_seconds(), "s");
  report.add("workload.scan_s", scan_s, "s");
  add_input_properties(report, inputs);
  const Span score = probe.total();
  report.add("sched.score_calls", static_cast<double>(score.calls), "count");
  report.add("sched.score_calls_per_vm", share(score.calls, untraced.result.placed_vms),
             "count");
  report.add("sched.score_s", score.net_seconds(), "s");
  report.add("sched.deploy_s", deploy_s, "s");
  report.add("sched.remove_s", remove_s, "s");
  report.add("sim.observe_s", observe_s, "s");
  report.add("sim.engine_s", engine_s, "s");
  report.add("sim.replay_shared_s", untraced.seconds, "s");
  report.add("sim.cell_p50_ms", untraced.seconds * 1e3, "ms");
  report.add("sim.cell_p90_ms", untraced.seconds * 1e3, "ms");
  report.add("trace.overhead_pct",
             100.0 * (traced.seconds - untraced.seconds) / untraced.seconds, "%");
}

// ---------------------------------------------------------------------------
// control_plane

/// The ladder of control-plane configurations; kFull is the workload itself.
enum class Ladder { kNone, kFaults, kInstant, kEngine, kFull };

std::optional<sim::RebalanceOptions> control_rebalance(Ladder step) {
  if (step < Ladder::kInstant) {
    return std::nullopt;
  }
  sim::RebalanceOptions rebalance;
  rebalance.interval = kRebalanceInterval;
  rebalance.budget_per_pass = kRebalanceBudget;
  rebalance.migration.enabled = step >= Ladder::kEngine;
  if (step == Ladder::kFull) {
    sched::InterferenceOptions& itf = rebalance.interference;
    itf.enabled = true;
    itf.heat_weight = kHeatWeight;
    itf.heat_alpha = kHeatAlpha;
    itf.threshold = kItfThreshold;
    itf.evictions_per_pass = kItfEvictions;
  }
  return rebalance;
}

sim::FaultConfig control_faults(std::uint64_t seed) {
  sim::FaultConfig faults;
  faults.count = kFaultCount;
  return sim::resolve_fault_seed(faults, seed);
}

/// The shared policy's scorer, heat-aware once interference is armed (as
/// the experiment harness does).
std::unique_ptr<sched::Scorer> make_control_scorer(Ladder step) {
  if (step == Ladder::kFull) {
    return std::make_unique<sched::InterferenceScorer>(kHeatWeight);
  }
  return std::make_unique<sched::ProgressScorer>();
}

sim::Datacenter control_datacenter(const sim::PolicyFactory& factory) {
  return sim::Datacenter::shared_sharded(kHost, factory, kShards);
}

sim::PolicyFactory control_policy(Ladder step) {
  return [step]() -> std::unique_ptr<sched::PlacementPolicy> {
    return std::make_unique<sched::ScorePolicy>(make_control_scorer(step));
  };
}

struct ControlRun {
  std::string path;
  wl::TraceReader::ScanInfo scan;
  sim::FaultConfig faults;

  [[nodiscard]] sim::ShardOptions options(Ladder step, std::size_t threads) const {
    sim::ShardOptions opts;
    opts.shards = kShards;
    opts.threads = threads;
    opts.rebalance = control_rebalance(step);
    opts.faults = step >= Ladder::kFaults ? &faults : nullptr;
    return opts;
  }

  [[nodiscard]] Timing replay(Ladder step, std::size_t threads) const {
    sim::Datacenter dc = control_datacenter(control_policy(step));
    sim::StreamingTraceSource source(wl::TraceReader(path), scan);
    const sim::ShardOptions opts = options(step, threads);
    return time_replay([&] { return sim::replay_sharded(dc, source, opts); });
  }
};

void control_plane_e2e(const Inputs& inputs, const RunOptions& options, Report& report) {
  ControlRun run;
  run.path = trace_path(options.dir).string();
  const auto setup = [&] {
    run.scan = wl::TraceReader::scan(run.path);
    run.faults = control_faults(inputs.seed);
    const sim::Datacenter dc = control_datacenter(control_policy(Ladder::kFull));
  };
  const auto [measured, first] =
      measure_replays("control_plane replay", inputs.rows, options.seconds, report, setup,
                      [&] { return run.replay(Ladder::kFull, kThreads); });
  check_scan(run.scan, inputs);
  const Timing serial = run.replay(Ladder::kFull, 1);
  std::vector<std::string> problems = audit_result(serial.result, inputs.rows);
  for (const std::string& f : diff_results(serial.result, first)) {
    problems.push_back("1 thread differs from 4 threads: " + f);
  }
  report.check("control_plane replay at 1 thread", problems);

  std::printf("control_plane: %zu rows, %zu PMs, %zu flights, %zu polluter evictions, "
              "%zu evacuations\n",
              inputs.rows, first.opened_pms, first.mig_planned, first.itf_evictions,
              first.evacuated_vms);
  add_e2e(report, 2.0 * static_cast<double>(inputs.rows), measured,
          static_cast<double>(first.opened_pms), first.avg_active_pms);
}

void control_plane_traced(const Inputs& inputs, const RunOptions& options, Report& report) {
  ControlRun run;
  run.path = trace_path(options.dir).string();
  run.faults = control_faults(inputs.seed);
  const double scan_s = median_seconds(
      kScanReps, [&] { run.scan = wl::TraceReader::scan(run.path); });

  const Timing full = fastest_of_two("control_plane replay", report,
                                     [&] { return run.replay(Ladder::kFull, kThreads); });
  report.check("control_plane replay", audit_result(full.result, inputs.rows));

  ScorerProbe probe;
  Span pull;
  const Timing traced = time_replay([&] {
    sim::Datacenter dc = control_datacenter(
        probe.factory([] { return make_control_scorer(Ladder::kFull); }));
    sim::StreamingTraceSource inner(wl::TraceReader(run.path), run.scan);
    TracedSource source(inner);
    const sim::ShardOptions opts = run.options(Ladder::kFull, kThreads);
    sim::RunResult result = sim::replay_sharded(dc, source, opts);
    pull = source.span();
    return result;
  });
  report.check("control_plane traced replay",
               prefixed("traced differs from untraced: ",
                        diff_results(traced.result, full.result)));

  const Timing serial = run.replay(Ladder::kFull, 1);
  report.check("control_plane replay at 1 thread",
               prefixed("1 thread differs from 4 threads: ",
                        diff_results(serial.result, full.result)));

  // The ladder: each step enables one more mechanism.
  std::array<double, 5> walls{};
  walls[static_cast<std::size_t>(Ladder::kFull)] = full.seconds;
  for (const Ladder step : {Ladder::kNone, Ladder::kFaults, Ladder::kInstant, Ladder::kEngine}) {
    const std::string what =
        "control_plane ladder step " + std::to_string(static_cast<int>(step));
    const Timing timing =
        fastest_of_two(what, report, [&] { return run.replay(step, kThreads); });
    report.check(what, audit_result(timing.result, inputs.rows));
    walls[static_cast<std::size_t>(step)] = timing.seconds;
  }

  const sim::RunResult& r = full.result;
  const Span score = probe.total();
  report.add("workload.pull_s", pull.net_seconds(), "s");
  report.add("workload.scan_s", scan_s, "s");
  add_input_properties(report, inputs);
  report.add("sched.score_calls", static_cast<double>(score.calls), "count");
  report.add("sched.score_calls_per_vm", share(score.calls, r.placed_vms), "count");
  report.add("sched.score_s", score.net_seconds(), "s");
  report.add("sim.replay_shared_s", full.seconds, "s");
  report.add("sim.cell_p50_ms", full.seconds * 1e3, "ms");
  report.add("sim.cell_p90_ms", full.seconds * 1e3, "ms");
  report.add("sim.parallel_eff", serial.seconds / (static_cast<double>(kThreads) * full.seconds),
             "ratio");
  report.add("sim.shard_speedup", serial.seconds / full.seconds, "ratio");
  report.add("ctl.faults_s", walls[1] - walls[0], "s");
  report.add("ctl.rebalance_s", walls[2] - walls[1], "s");
  report.add("ctl.migration_s", walls[3] - walls[2], "s");
  report.add("ctl.interference_s", walls[4] - walls[3], "s");
  report.add("mig.planned", static_cast<double>(r.mig_planned), "count");
  report.add("mig.commit_share", share(r.mig_committed, r.mig_planned), "ratio");
  report.add("mig.retries", static_cast<double>(r.mig_retries), "count");
  report.add("itf.evictions", static_cast<double>(r.itf_evictions), "count");
  report.add("itf.heat_updates", static_cast<double>(r.heat_updates), "count");
  report.add("evac.evacuated", static_cast<double>(r.evacuated_vms), "count");
  report.add("evac.replaced_share", share(r.evac_replaced, r.evacuated_vms), "ratio");
  report.add("trace.overhead_pct",
             100.0 * (traced.seconds - full.seconds) / full.seconds, "%");
}

}  // namespace

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

bool Report::check(const std::string& what, const std::vector<std::string>& problems,
                   std::size_t replays) {
  attempted += replays;
  if (problems.empty()) {
    return true;
  }
  failed += replays;
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), problem.c_str());
  }
  return false;
}

bool is_workload(const std::string& name) {
  return name == "paper_grid" || name == "trace_stream" || name == "control_plane";
}

void write_inputs(const std::string& workload, std::uint64_t seed,
                  const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream meta(dir / "inputs.txt");
  meta << "seed " << seed << '\n';
  InputProfile profile;
  if (workload == "trace_stream") {
    write_trace(kStreamShape, seed, dir, meta, profile);
  } else if (workload == "control_plane") {
    write_trace(kControlShape, seed, dir, meta, profile);
  } else {
    const sim::ExperimentConfig config = grid_config(seed, 1);
    for (const std::string& provider : kProviders) {
      const wl::Catalog& catalog = wl::catalog_by_name(provider);
      for (const wl::LevelMix& mix : wl::paper_distributions()) {
        meta << "cell " << provider << ' ' << mix.name;
        for (std::size_t rep = 0; rep < kGridReps; ++rep) {
          const wl::Trace trace =
              wl::Generator(catalog, mix, cell_generator(config, rep)).generate();
          profile.add(trace);
          meta << ' ' << trace.size();
        }
        meta << '\n';
      }
    }
  }
  meta << "spec_classes " << profile.spec_classes() << '\n';
  meta << "peak_vms " << profile.peak_vms() << '\n';
  meta.flush();
  if (!meta) {
    SLACKVM_THROW("cannot write " + (dir / "inputs.txt").string());
  }
}

void run_workload(const std::string& workload, const RunOptions& options,
                  Report& report) {
  const Inputs inputs = read_inputs(options.dir);
  if (workload == "paper_grid") {
    options.trace ? paper_grid_traced(inputs, report)
                  : paper_grid_e2e(inputs, options, report);
  } else if (workload == "trace_stream") {
    options.trace ? trace_stream_traced(inputs, options, report)
                  : trace_stream_e2e(inputs, options, report);
  } else {
    options.trace ? control_plane_traced(inputs, options, report)
                  : control_plane_e2e(inputs, options, report);
  }
  if (options.trace) {
    complete_layer_metrics(report);
  }
}

}  // namespace perfbench
