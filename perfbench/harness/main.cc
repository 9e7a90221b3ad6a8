// Enforcement benchmark: runs one workload for a fixed time and
// prints its metrics. Usage:
//
//   perfbench --workload analytic_fig8|point_rw|adhoc_policy_churn
//             --seed N --seconds S --trace 0|1 [--capacity]
//
// Every line but the last is a human-readable note prefixed with "# " (one
// per metric, naming its unit and source). The last line is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Exit status: 0 for a correct run, 1 when any result disagreed
// with its reference (the JSON line says so), 2 for bad arguments or a
// failed set-up, 3 when the load generator fell behind its schedule (no
// result: the run measured the generator, not the system).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "analytic_fig8|point_rw|adhoc_policy_churn --seed N "
               "--seconds S --trace 0|1 [--capacity]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t n = 0;
    if (arg == "--capacity") {
      opt.capacity = true;
    } else if (arg == "--workload" && value != nullptr) {
      opt.workload = value;
      ++i;
    } else if (arg == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      opt.seconds = static_cast<int>(n);
      have_seconds = true;
      ++i;
    } else if (arg == "--trace" && ParseUint(value, &n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
      ++i;
    } else {
      return Usage(("bad argument '" + arg + "'").c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  perfbench::Outcome out;
  if (opt.workload == "analytic_fig8") {
    out = perfbench::RunAnalyticFig8(opt);
  } else if (opt.workload == "point_rw") {
    out = perfbench::RunPointRw(opt);
  } else if (opt.workload == "adhoc_policy_churn") {
    out = perfbench::RunAdhocPolicyChurn(opt);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const auto& m : out.metrics) {
    std::printf("# %-34s %16.6f %-6s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.source.c_str());
  }
  if (out.attempted > 0) {
    std::printf("# failed_frac = %.6f (%llu of %llu statements)\n",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
  }
  if (!out.invalid.empty()) {
    std::printf("# INVALID RUN: %s\n", out.invalid.c_str());
    std::fflush(stdout);
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += out.correct && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
