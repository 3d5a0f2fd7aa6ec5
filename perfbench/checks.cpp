#include "checks.hpp"

#include <bit>
#include <cstdint>

namespace perfbench {

using slackvm::sim::RunResult;

namespace {

// Every RunResult field, so a diff names what moved.
#define PERFBENCH_COUNT_FIELDS(X)                                                    \
  X(opened_pms) X(peak_active_pms) X(migrations) X(placed_vms) X(peak_vms)          \
  X(host_failures) X(host_repairs) X(drained_hosts) X(evacuated_vms)                \
  X(evac_replaced) X(evac_migrated) X(evac_retries) X(evac_departed)                \
  X(degraded_vms) X(deferred_arrivals) X(arrivals_dropped) X(mig_planned)           \
  X(mig_committed) X(mig_cancelled) X(mig_rolled_back) X(mig_timed_out)             \
  X(mig_degraded) X(mig_retries) X(heat_updates) X(itf_passes) X(itf_hot_hosts)     \
  X(itf_evictions) X(itf_applied) X(itf_requested) X(itf_skipped)

#define PERFBENCH_REAL_FIELDS(X)                                                     \
  X(avg_unalloc_cpu_share) X(avg_unalloc_mem_share) X(peak_unalloc_cpu_share)       \
  X(peak_unalloc_mem_share) X(duration) X(avg_active_pms) X(avg_alloc_cores)

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::vector<std::string> diff_results(const RunResult& a, const RunResult& b) {
  std::vector<std::string> fields;
#define PERFBENCH_DIFF_COUNT(f) \
  if (a.f != b.f) fields.emplace_back(#f);
#define PERFBENCH_DIFF_REAL(f) \
  if (!same_bits(a.f, b.f)) fields.emplace_back(#f);
  PERFBENCH_COUNT_FIELDS(PERFBENCH_DIFF_COUNT)
  PERFBENCH_REAL_FIELDS(PERFBENCH_DIFF_REAL)
#undef PERFBENCH_DIFF_COUNT
#undef PERFBENCH_DIFF_REAL
  if (a.opened_per_cluster != b.opened_per_cluster) {
    fields.emplace_back("opened_per_cluster");
  }
  return fields;
}

std::vector<std::string> audit_result(const RunResult& r, std::size_t rows) {
  std::vector<std::string> problems;
  if (r.placed_vms + r.arrivals_dropped != rows) {
    problems.push_back("rows: placed " + std::to_string(r.placed_vms) + " + dropped " +
                       std::to_string(r.arrivals_dropped) + " != " + std::to_string(rows));
  }
  if (r.mig_planned != r.mig_committed + r.mig_cancelled + r.mig_rolled_back +
                           r.mig_timed_out + r.mig_degraded) {
    problems.emplace_back("migration counter identity");
  }
  if (r.itf_evictions != r.itf_applied + r.itf_requested + r.itf_skipped) {
    problems.emplace_back("interference counter identity");
  }
  if (r.evacuated_vms != r.evac_replaced + r.evac_departed + r.degraded_vms) {
    problems.emplace_back("evacuation counter identity");
  }
  return problems;
}

}  // namespace perfbench
