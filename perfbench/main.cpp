// perfbench_e2e — the end-to-end replay benchmark's driver binary.
//
//   perfbench_e2e inputs --workload W --seed N --dir D
//       write the workload's inputs (trace CSV and/or inputs.txt) into D
//   perfbench_e2e run --workload W --dir D --seconds S --trace 0|1
//       run the workload on the inputs in D; print one line per metric and,
//       last, one JSON object {correct, attempted, failed, metrics}
//
// run.py drives both steps; README.md describes the workloads and metrics.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e inputs --workload W --seed N --dir D\n"
               "       perfbench_e2e run --workload W --dir D --seconds S --trace 0|1\n"
               "workloads: paper_grid | trace_stream | control_plane\n");
  return 2;
}

/// Shortest decimal that reads back as exactly `value`.
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

void print_report(const perfbench::Report& report) {
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-26s %s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  %-26s %zu / %zu replays\n", "fail_share", report.failed, report.attempted);
  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  std::string workload;
  std::string dir;
  std::string seed;
  std::string seconds = "10";
  std::string trace = "0";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--dir") {
      dir = value;
    } else if (key == "--seed") {
      seed = value;
    } else if (key == "--seconds") {
      seconds = value;
    } else if (key == "--trace") {
      trace = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 0 || !perfbench::is_workload(workload) || dir.empty()) {
    return usage();
  }

  if (command == "inputs") {
    if (seed.empty()) {
      return usage();
    }
    try {
      perfbench::write_inputs(workload, std::strtoull(seed.c_str(), nullptr, 10), dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (command != "run" || (trace != "0" && trace != "1")) {
    return usage();
  }

  perfbench::RunOptions options;
  options.dir = dir;
  options.seconds = std::strtod(seconds.c_str(), nullptr);
  options.trace = trace == "1";
  perfbench::Report report;
  try {
    perfbench::run_workload(workload, options, report);
  } catch (const std::exception& e) {
    // A replay that throws is a failed replay; the run reports no metrics.
    std::fprintf(stderr, "FAIL %s: %s\n", workload.c_str(), e.what());
    ++report.attempted;
    ++report.failed;
    report.metrics.clear();
  }
  print_report(report);
  return 0;
}
