// Set-up of the system under test and the small helpers every workload
// shares: seeds, timing, result digests, peak memory, statement shapes and
// generated policies.
#ifndef PERFBENCH_HARNESS_WORLD_H_
#define PERFBENCH_HARNESS_WORLD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/monitor.h"
#include "core/policy_manager.h"
#include "engine/database.h"
#include "engine/exec.h"
#include "server/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Server worker threads in every workload: at most 4, the nproc of the
/// 4-vCPU machine the workloads are sized for.
inline constexpr size_t kServerThreads = 4;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t) {
  return MsBetween(t, Clock::now());
}

/// Independent 64-bit seed for one input stream (data, policies, keys,
/// schedules, ...) of a run: splitmix64 over (seed, stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

struct WorldConfig {
  size_t patients = 0;
  size_t samples = 0;
  /// §6.1 scattered-policy selectivity.
  double selectivity = 0.4;
  /// Hash index on sensed_data(watch_id), created through SQL DDL.
  bool watch_index = false;
  /// Start an EnforcementServer (audit trail on) over the monitor.
  bool serve = true;
  uint64_t seed = 0;
};

/// One fully set-up system: database, access-control catalog, monitor,
/// policy manager and (optionally) the server. Members are destroyed in
/// reverse order, so the server shuts down before what it wraps.
struct World {
  std::unique_ptr<aapac::engine::Database> db;
  std::unique_ptr<aapac::core::AccessControlCatalog> catalog;
  std::unique_ptr<aapac::core::EnforcementMonitor> monitor;
  std::unique_ptr<aapac::core::PolicyManager> policies;
  std::unique_ptr<aapac::server::EnforcementServer> server;
};

/// Builds one world; aborts the process with a message on any set-up error
/// (a benchmark that cannot set up has nothing to report).
std::unique_ptr<World> BuildWorld(const WorldConfig& config);

/// Builds the world several times, discarding each before the next, and
/// returns the last one with the median build time in seconds.
std::unique_ptr<World> BuildWorldTimed(const WorldConfig& config,
                                       double* median_s);

/// Order-sensitive FNV-1a digest of a result's column names and rows.
uint64_t Digest(const aapac::engine::ResultSet& rs);

/// Makes the calling thread's sleep_until wake on time (Linux timer slack
/// of 1 ns instead of 50 us); load generators call it before sending on a
/// schedule.
void UsePreciseSleeps();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// True when the statement nests a SELECT (sub-query or derived table).
bool HasSubquery(const std::string& sql);

/// Fig. 5 shape class of a generated query, from its description.
enum class Shape { kSingle, kJoin, kAggregate };
Shape ShapeOf(const std::string& description);

/// A random, valid policy text for a patients table: 1-3 rules over random
/// purpose subsets. When `must_allow` names a purpose, the policy also lets
/// it read and filter every column (so that purpose's UPDATE and DELETE of
/// the tuple succeed).
std::string RandomPolicyText(std::mt19937_64& rng,
                             const std::string& must_allow);

/// Parses `text` into a policy for `table`; aborts on error.
aapac::core::Policy ParsePolicyOrDie(const aapac::core::AccessControlCatalog&
                                         catalog,
                                     const std::string& table,
                                     const std::string& text);

/// Purpose ids p1..p8 of the patients configuration.
const std::vector<std::string>& PurposeIds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORLD_H_
