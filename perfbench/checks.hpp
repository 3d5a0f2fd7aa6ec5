// Output checks shared by every workload: a replay counts as failed when
// one of these finds a problem.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

/// Names of the RunResult fields on which `a` and `b` differ. Floating-point
/// fields are compared bit for bit, so an empty result means bit-identical.
[[nodiscard]] std::vector<std::string> diff_results(const slackvm::sim::RunResult& a,
                                                    const slackvm::sim::RunResult& b);

/// Accounting violations of one replay of `rows` input rows:
///   rows             placed_vms + arrivals_dropped == rows
///   migration        mig_planned == committed + cancelled + rolled_back
///                                   + timed_out + degraded
///   interference     itf_evictions == itf_applied + itf_requested + itf_skipped
///   evacuation       evacuated_vms == evac_replaced + evac_departed + degraded_vms
[[nodiscard]] std::vector<std::string> audit_result(const slackvm::sim::RunResult& r,
                                                    std::size_t rows);

}  // namespace perfbench
