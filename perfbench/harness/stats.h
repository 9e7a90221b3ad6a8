// Sample statistics shared by every workload: nearest-rank percentiles and
// the "highest percentile with at least ten samples beyond it" rule that
// decides which tail a run is large enough to report.
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-th percentile (q in 1..100) of n samples:
/// ceil(q * n / 100), at least 1. Integer arithmetic, so p99 of 1000
/// samples is exactly rank 990.
inline size_t PercentileRank(size_t n, int q) {
  const size_t rank = (static_cast<size_t>(q) * n + 99) / 100;
  return std::max<size_t>(rank, 1);
}

/// Samples ranked strictly above the q-th percentile.
inline size_t SamplesBeyond(size_t n, int q) {
  return n == 0 ? 0 : n - std::min(n, PercentileRank(n, q));
}

/// Highest whole percentile, at most `cap`, with at least `min_beyond`
/// samples above it; 0 when even the median lacks them.
inline int HighestSupportedPercentile(size_t n, int cap,
                                      size_t min_beyond = 10) {
  for (int q = cap; q >= 50; --q) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0;
}

/// Nearest-rank percentile of `samples` (need not be sorted); 0 when empty.
inline double Percentile(std::vector<double> samples, int q) {
  if (samples.empty()) return 0;
  const size_t rank = PercentileRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}

/// A latency distribution as reported: median plus one tail percentile,
/// with the sample counts that back them.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  int tail_q = 0;
  double tail = 0;
  size_t beyond = 0;
};

inline LatencySummary Summarize(const std::vector<double>& samples,
                                int tail_q) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Median(samples);
  s.tail_q = tail_q;
  s.tail = Percentile(samples, tail_q);
  s.beyond = SamplesBeyond(samples.size(), tail_q);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
