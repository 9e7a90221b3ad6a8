// What one benchmark run reports: the statement tally, the correctness
// verdict, free-form notes and the named metrics (each with its unit and
// the source it was measured from).
#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string source;
};

struct Outcome {
  /// Statements the benchmark sent (SELECT and DML), and those that failed:
  /// errors, kUnavailable rejections and wrong results.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False once any output disagreed with its reference.
  bool correct = true;
  /// Non-empty when the run measured the load generator rather than the
  /// system (it fell behind its schedule); such a run prints no result.
  std::string invalid;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& source) {
    metrics.push_back(Metric{name, value, unit, source});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a wrong result (or audit-trail discrepancy) and fails the run.
  void Mismatch(const std::string& what, uint64_t statements = 1) {
    correct = false;
    failed += statements;
    if (mismatches_noted_++ < 20) notes.push_back("MISMATCH " + what);
  }

 private:
  int mismatches_noted_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
