// The benchmark's three workloads (README.md): paper_grid, trace_stream and
// control_plane. Each has an input writer, an untraced run that measures the
// end-to-end metrics, and a traced run that measures the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run measured and checked.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  ///< replays run
  std::size_t failed = 0;     ///< replays that failed a check

  void add(std::string name, double value, std::string unit);
  /// Count `replays` replays described by `what`; they fail when `problems`
  /// is non-empty (each problem is printed to stderr). Returns true on pass.
  bool check(const std::string& what, const std::vector<std::string>& problems,
             std::size_t replays = 1);
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Write the inputs of `workload` for `seed` into `dir` (created if absent).
void write_inputs(const std::string& workload, std::uint64_t seed,
                  const std::filesystem::path& dir);

struct RunOptions {
  std::filesystem::path dir;  ///< where write_inputs put the inputs
  double seconds = 10;        ///< length of the measured replay loop
  bool trace = false;         ///< per-layer run instead of the end-to-end run
};

/// Run `workload` on the inputs in options.dir, appending to `report`.
/// Throws on a replay that throws; the caller counts it as failed.
void run_workload(const std::string& workload, const RunOptions& options,
                  Report& report);

}  // namespace perfbench
