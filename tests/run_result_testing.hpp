// Shared RunResult helpers for the test suites: one visitor over every
// RunResult field, a bit-exact equality with a per-field diff, and the
// FNV-1a fingerprint the golden suite (golden_test.cpp) pins.
//
// The visitor destructures RunResult with a structured binding that names
// every member, so a field added to RunResult stops this header compiling
// until it is listed here too — no comparison can silently skip it.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/usage_monitor.hpp"

namespace slackvm::testutil {

/// Calls f(name, value) for every RunResult field, in declaration order.
template <class F>
void for_each_field(const sim::RunResult& r, F&& f) {
  const auto& [opened_pms, peak_active_pms, migrations, opened_per_cluster, placed_vms,
               peak_vms, avg_unalloc_cpu_share, avg_unalloc_mem_share,
               peak_unalloc_cpu_share, peak_unalloc_mem_share, duration, avg_active_pms,
               avg_alloc_cores, host_failures, host_repairs, drained_hosts,
               evacuated_vms, evac_replaced, evac_migrated, evac_retries, evac_departed,
               degraded_vms, deferred_arrivals, arrivals_dropped, mig_planned,
               mig_committed, mig_cancelled, mig_rolled_back, mig_timed_out,
               mig_degraded, mig_retries, heat_updates, itf_passes, itf_hot_hosts,
               itf_evictions, itf_applied, itf_requested, itf_skipped] = r;
  f("opened_pms", opened_pms);
  f("peak_active_pms", peak_active_pms);
  f("migrations", migrations);
  f("opened_per_cluster", opened_per_cluster);
  f("placed_vms", placed_vms);
  f("peak_vms", peak_vms);
  f("avg_unalloc_cpu_share", avg_unalloc_cpu_share);
  f("avg_unalloc_mem_share", avg_unalloc_mem_share);
  f("peak_unalloc_cpu_share", peak_unalloc_cpu_share);
  f("peak_unalloc_mem_share", peak_unalloc_mem_share);
  f("duration", duration);
  f("avg_active_pms", avg_active_pms);
  f("avg_alloc_cores", avg_alloc_cores);
  f("host_failures", host_failures);
  f("host_repairs", host_repairs);
  f("drained_hosts", drained_hosts);
  f("evacuated_vms", evacuated_vms);
  f("evac_replaced", evac_replaced);
  f("evac_migrated", evac_migrated);
  f("evac_retries", evac_retries);
  f("evac_departed", evac_departed);
  f("degraded_vms", degraded_vms);
  f("deferred_arrivals", deferred_arrivals);
  f("arrivals_dropped", arrivals_dropped);
  f("mig_planned", mig_planned);
  f("mig_committed", mig_committed);
  f("mig_cancelled", mig_cancelled);
  f("mig_rolled_back", mig_rolled_back);
  f("mig_timed_out", mig_timed_out);
  f("mig_degraded", mig_degraded);
  f("mig_retries", mig_retries);
  f("heat_updates", heat_updates);
  f("itf_passes", itf_passes);
  f("itf_hot_hosts", itf_hot_hosts);
  f("itf_evictions", itf_evictions);
  f("itf_applied", itf_applied);
  f("itf_requested", itf_requested);
  f("itf_skipped", itf_skipped);
}

/// Same contract for the usage monitor's report.
template <class F>
void for_each_field(const sim::UsageReport& r, F&& f) {
  const auto& [samples, avg_fleet_utilization, avg_alloc_heat, overload_host_hours,
               peak_fleet_utilization, p90_inflation, inflation_samples] = r;
  f("samples", samples);
  f("avg_fleet_utilization", avg_fleet_utilization);
  f("avg_alloc_heat", avg_alloc_heat);
  f("overload_host_hours", overload_host_hours);
  f("peak_fleet_utilization", peak_fleet_utilization);
  f("p90_inflation", p90_inflation);
  f("inflation_samples", inflation_samples);
}

/// Exact text of one field value: integers in decimal, doubles with 17
/// significant digits (distinct doubles never print alike, and -0 prints
/// as such), per-cluster maps in key order.
inline std::string exact_text(std::size_t v) { return std::to_string(v); }
inline std::string exact_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string exact_text(const std::map<std::string, std::size_t>& m) {
  std::string out = "{";
  for (const auto& [key, count] : m) {
    out += (out.size() > 1 ? "," : "") + key + ":" + std::to_string(count);
  }
  return out + "}";
}

/// (name, exact text) of every field of `r`, in declaration order.
template <class R>
std::vector<std::pair<std::string, std::string>> describe(const R& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for_each_field(r, [&out](const char* name, const auto& value) {
    out.emplace_back(name, exact_text(value));
  });
  return out;
}

/// Bit-exact equality over every field; the failure message lists each
/// differing field with both values.
template <class R>
::testing::AssertionResult identical(const R& a, const R& b) {
  const auto da = describe(a);
  const auto db = describe(b);
  std::string diff;
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (da[i].second != db[i].second) {
      diff += "\n  " + da[i].first + ": " + da[i].second + " vs " + db[i].second;
    }
  }
  if (diff.empty()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "results differ:" << diff;
}

/// The one RunResult equality of the test suites.
inline void expect_identical(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_TRUE(identical(a, b));
}

/// 64-bit FNV-1a over every field: integers and doubles by their 64-bit
/// pattern, per-cluster maps as (size, then key bytes + count per entry in
/// key order).
template <class R>
std::uint64_t fingerprint(const R& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_byte = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  const auto mix_u64 = [&mix_byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  };
  for_each_field(r, [&](const char*, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, double>) {
      mix_u64(std::bit_cast<std::uint64_t>(value));
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      mix_u64(value);
    } else {
      mix_u64(value.size());
      for (const auto& [key, count] : value) {
        for (const char c : key) {
          mix_byte(static_cast<unsigned char>(c));
        }
        mix_byte(0);
        mix_u64(count);
      }
    }
  });
  return h;
}

}  // namespace slackvm::testutil
