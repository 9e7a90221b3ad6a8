// Self-tests of the benchmark's own machinery: the percentile and
// "highest percentile with ten samples beyond it" rules, the open-loop
// schedule's due times and lateness bound, and the seeded key streams.
// Build and run: ctest in the benchmark's build directory, or
// `python3 perfbench/run.py --selftest`.
#include <chrono>
#include <cstdio>
#include <vector>

#include "harness/schedule.h"
#include "harness/stats.h"
#include "harness/zipf.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void TestPercentiles() {
  using namespace perfbench;
  Expect(PercentileRank(1000, 99) == 990, "p99 of 1000 is rank 990");
  Expect(PercentileRank(100, 50) == 50, "p50 of 100 is rank 50");
  Expect(PercentileRank(3, 50) == 2, "p50 of 3 is rank 2");
  Expect(PercentileRank(1, 99) == 1, "p99 of 1 is rank 1");
  Expect(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Expect(SamplesBeyond(999, 99) == 9, "9 samples beyond p99 of 999");
  Expect(HighestSupportedPercentile(1000, 99) == 99, "1000 samples support p99");
  Expect(HighestSupportedPercentile(999, 99) == 98, "999 samples support p98");
  Expect(HighestSupportedPercentile(112, 99) == 91, "112 samples support p91");
  Expect(HighestSupportedPercentile(100, 99) == 90, "100 samples support p90");
  Expect(HighestSupportedPercentile(19, 99) == 0, "19 samples support no tail");
  Expect(HighestSupportedPercentile(20, 99) == 50, "20 samples support p50");
  Expect(HighestSupportedPercentile(5000, 95) == 95, "cap applies");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  Expect(Percentile(v, 99) == 990, "p99 of 1..1000 unsorted is 990");
  Expect(Median(v) == 500, "median of 1..1000 is 500");
  Expect(Percentile({}, 50) == 0, "empty percentile is 0");
  const LatencySummary s = Summarize(v, 99);
  Expect(s.n == 1000 && s.beyond == 10 && s.tail == 990 && s.p50 == 500,
         "Summarize reports n, p50, tail and samples beyond");
}

void TestSchedule() {
  using perfbench::OpenLoopSchedule;
  using Clock = OpenLoopSchedule::Clock;
  using std::chrono::microseconds;
  using std::chrono::milliseconds;
  const Clock::time_point t0 = Clock::now();
  OpenLoopSchedule s(t0, 1000);  // One request per millisecond.
  Expect(s.Due(0) == t0, "first request due at start");
  Expect(s.Due(1) - t0 == milliseconds(1), "second request due 1 ms later");
  Expect(s.Due(1500) - t0 == milliseconds(1500), "no drift over 1500 requests");
  OpenLoopSchedule slow(t0, 1.5);
  Expect(slow.Due(3) - t0 == milliseconds(2000), "1.5/s: request 3 at 2 s");
  // 98 requests on time, 2 very late: p99 lateness stays within bound.
  for (uint64_t i = 0; i < 98; ++i) s.NoteIssued(i, s.Due(i) + microseconds(50));
  s.NoteIssued(98, s.Due(98) + milliseconds(30));
  s.NoteIssued(99, s.Due(99) + milliseconds(40));
  Expect(s.issued() == 100, "every issue is counted");
  Expect(s.lag_max_ms() >= 39.9 && s.lag_max_ms() <= 40.1, "max lateness");
  Expect(s.lag_p99_ms() >= 29.9 && s.lag_p99_ms() <= 30.1,
         "p99 lateness is the 99th of 100");
  Expect(!s.WithinBound(5.0), "30 ms p99 lateness breaks a 5 ms bound");
  OpenLoopSchedule early(t0, 1000);
  early.NoteIssued(0, t0 - milliseconds(1));
  Expect(early.lag_max_ms() == 0, "issuing early is not negative lateness");
  Expect(early.WithinBound(5.0), "a punctual generator is within bound");
}

void TestZipf() {
  perfbench::ZipfKeys a(10000, 0.99, 42), b(10000, 0.99, 42), c(10000, 0.99, 43);
  std::vector<size_t> counts(10000, 0);
  bool same = true, differs = false;
  for (int i = 0; i < 20000; ++i) {
    const size_t ka = a.Next();
    same = same && ka == b.Next();
    differs = differs || ka != c.Next();
    ++counts[ka];
  }
  Expect(same, "same seed, same key stream");
  Expect(differs, "another seed, another key stream");
  size_t hottest = 0;
  for (size_t n : counts) hottest = n > hottest ? n : hottest;
  // Rank 1 of Zipf(0.99) over 10^4 keys draws about 10% of requests.
  Expect(hottest > 1400 && hottest < 2600, "hottest key draws about 10%");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSchedule();
  TestZipf();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
