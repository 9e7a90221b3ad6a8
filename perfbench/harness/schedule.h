// Open-loop arrival schedule with due-time accounting. Request i is due at
// start + i / rate; latency is measured from that due time, so a stall in
// the system also charges the requests queued behind it. The generator's
// own lateness (issue time minus due time, for submissions that never block
// on the system) is tracked separately: when it exceeds the bound the run
// measured the generator, not the system, and is invalid.
#ifndef PERFBENCH_HARNESS_SCHEDULE_H_
#define PERFBENCH_HARNESS_SCHEDULE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), interval_ns_(1e9 / rate_per_s) {}

  /// Due time of request `i` (0-based).
  Clock::time_point Due(uint64_t i) const {
    return start_ + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * interval_ns_));
  }

  /// Records that request `i` was handed to the system at `issued`.
  void NoteIssued(uint64_t i, Clock::time_point issued) {
    const double lag_ms =
        std::max(0.0, std::chrono::duration<double, std::milli>(
                          issued - Due(i))
                          .count());
    lags_ms_.push_back(lag_ms);
  }

  size_t issued() const { return lags_ms_.size(); }
  double lag_p99_ms() const { return Percentile(lags_ms_, 99); }
  double lag_max_ms() const {
    return lags_ms_.empty()
               ? 0.0
               : *std::max_element(lags_ms_.begin(), lags_ms_.end());
  }

  /// The generator kept up: its p99 lateness stayed within `bound_ms`.
  bool WithinBound(double bound_ms) const { return lag_p99_ms() <= bound_ms; }

 private:
  Clock::time_point start_;
  double interval_ns_;
  std::vector<double> lags_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SCHEDULE_H_
