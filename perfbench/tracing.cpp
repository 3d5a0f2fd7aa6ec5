#include "tracing.hpp"

#include <algorithm>
#include <array>

namespace perfbench {

double timer_bias() {
  static const double bias = [] {
    constexpr int kBatches = 9;
    constexpr int kCalls = 20000;
    std::array<double, kBatches> per_call{};
    for (double& sample : per_call) {
      Span span;
      for (int i = 0; i < kCalls; ++i) {
        const Timed timed(span);
      }
      sample = std::chrono::duration<double>(span.busy).count() / kCalls;
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[kBatches / 2];
  }();
  return bias;
}

}  // namespace perfbench
