// Seeded Zipf sampler over n keys: rank r (0-based) is drawn with
// probability proportional to 1 / (r + 1)^s. Ranks map to keys through a
// seeded permutation, so which watches are hot changes with the seed while
// the skew does not.
#ifndef PERFBENCH_HARNESS_ZIPF_H_
#define PERFBENCH_HARNESS_ZIPF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace perfbench {

class ZipfKeys {
 public:
  ZipfKeys(size_t n, double s, uint64_t seed) : rng_(seed), keys_(n) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
    std::iota(keys_.begin(), keys_.end(), size_t{0});
    std::shuffle(keys_.begin(), keys_.end(), rng_);
  }

  size_t Next() {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return keys_[std::min(rank, keys_.size() - 1)];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
  std::vector<size_t> keys_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ZIPF_H_
