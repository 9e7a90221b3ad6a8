// The three benchmark workloads. Each builds its own system from the seed,
// measures for the requested time, checks every result it can against a
// reference, and returns the metrics: end-to-end ones in a plain run,
// per-layer ones in a traced run.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// point_rw only: measure closed-loop capacity instead of the fixed-rate
  /// run (used once to choose the fixed rates).
  bool capacity = false;
};

Outcome RunAnalyticFig8(const Options& options);
Outcome RunPointRw(const Options& options);
Outcome RunAdhocPolicyChurn(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
