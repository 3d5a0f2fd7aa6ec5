// Layer-boundary probes for the traced benchmark run.
//
// Everything here wraps a public interface of the simulator from the
// outside — nothing under src/ knows it is being measured:
//
//  * TracedSource decorates a sim::EventSource and times every peek() and
//    advance() the replay engine makes (the trace parse/pump layer);
//  * TracedScorer decorates a sched::Scorer and counts/times every score()
//    call, both overloads. It forwards supports_cols() and name(), so the
//    placement index and the rebalance planners take exactly the paths they
//    take with the bare scorer;
//  * ScorerProbe builds sim::PolicyFactory instances whose policies score
//    through a TracedScorer, one Span per policy instance. Each cluster owns
//    one policy and each cluster is driven by one thread (sim/shard.hpp), so
//    a Span is never touched by two threads.
//
// A timed call records what lies between two Clock::now() reads, which
// includes part of the reads themselves. Span::net_seconds subtracts that
// bias (timer_bias(): what an empty timed call records, measured once per
// process) so per-layer figures are not inflated by millions of timer reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sched/policy.hpp"
#include "sched/scorer.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start,
                                            Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Host seconds an empty timed call records: the median over several
/// batches of empty Timed guards. Computed on first use.
[[nodiscard]] double timer_bias();

/// Busy time and call count accumulated at one layer boundary.
struct Span {
  std::uint64_t calls = 0;
  Clock::duration busy{};

  void add(Clock::time_point start, Clock::time_point end) {
    ++calls;
    busy += end - start;
  }
  Span& operator+=(const Span& other) {
    calls += other.calls;
    busy += other.busy;
    return *this;
  }
  /// Busy seconds minus the timer bias of every call. The bias is an
  /// estimate, so calls about as cheap as the timer reads can come out
  /// slightly negative; those read as 0.
  [[nodiscard]] double net_seconds() const {
    const double raw = std::chrono::duration<double>(busy).count();
    return std::max(0.0, raw - static_cast<double>(calls) * timer_bias());
  }
};

/// Adds the lifetime of the guard to a Span.
class Timed {
 public:
  explicit Timed(Span& span) : span_(span), start_(Clock::now()) {}
  ~Timed() { span_.add(start_, Clock::now()); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& span_;
  Clock::time_point start_;
};

class TracedSource final : public slackvm::sim::EventSource {
 public:
  explicit TracedSource(slackvm::sim::EventSource& inner) : inner_(inner) {}

  [[nodiscard]] const slackvm::core::VmInstance* peek() override {
    const Timed timed(span_);
    return inner_.peek();
  }
  void advance() override {
    const Timed timed(span_);
    inner_.advance();
  }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }
  [[nodiscard]] std::optional<slackvm::core::SimTime> horizon_hint() const override {
    return inner_.horizon_hint();
  }

  [[nodiscard]] const Span& span() const noexcept { return span_; }

 private:
  slackvm::sim::EventSource& inner_;
  Span span_;
};

class TracedScorer final : public slackvm::sched::Scorer {
 public:
  TracedScorer(std::unique_ptr<slackvm::sched::Scorer> inner, Span& span)
      : inner_(std::move(inner)), span_(span) {}

  [[nodiscard]] double score(const slackvm::sched::HostState& host,
                             const slackvm::core::VmSpec& spec) const override {
    const Timed timed(span_);
    return inner_->score(host, spec);
  }
  [[nodiscard]] double score(const slackvm::sched::HostCols& host,
                             const slackvm::core::VmSpec& spec) const override {
    const Timed timed(span_);
    return inner_->score(host, spec);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool supports_cols() const noexcept override {
    return inner_->supports_cols();
  }

 private:
  std::unique_ptr<slackvm::sched::Scorer> inner_;
  Span& span_;
};

/// Policy factories whose ScorePolicy scores through a TracedScorer. The
/// probe must outlive every policy it hands out.
class ScorerProbe {
 public:
  using ScorerFactory = std::function<std::unique_ptr<slackvm::sched::Scorer>()>;

  /// A factory for ScorePolicy(TracedScorer(make())). Calls to the returned
  /// factory must not race with each other (Datacenter construction is
  /// single-threaded).
  [[nodiscard]] slackvm::sim::PolicyFactory factory(ScorerFactory make) {
    return [this, make = std::move(make)]() -> std::unique_ptr<slackvm::sched::PlacementPolicy> {
      Span& span = spans_.emplace_back();
      return std::make_unique<slackvm::sched::ScorePolicy>(
          std::make_unique<TracedScorer>(make(), span));
    };
  }

  [[nodiscard]] Span total() const {
    Span sum;
    for (const Span& span : spans_) {
      sum += span;
    }
    return sum;
  }

 private:
  std::deque<Span> spans_;  ///< deque: stable addresses as policies are added
};

}  // namespace perfbench
