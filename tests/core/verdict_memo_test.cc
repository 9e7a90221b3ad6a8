// Property coverage for per-query verdict memoization (the policy-interning
// dictionary's executor side): a memoized compliance conjunct must be a pure
// cache over complies_with. Randomized policies x randomized queries are
// executed with the verdict table forced off (every tuple through the full
// CompliesWithPacked sweep) and on, asserting row-for-row identical results
// and identical logical check counts — memo hits bump the Fig. 6 tally
// exactly like computed checks. A morsel-parallel leg shares one verdict
// table across worker threads (TSan covers it in CI), and an accounting
// test pins hits + misses to the logical check count when every stored
// policy is interned.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/monitor.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "tests/util/query_gen.h"
#include "util/task_pool.h"
#include "workload/patients.h"
#include "workload/policies.h"
#include "workload/queries.h"

namespace aapac::core {
namespace {

std::string RenderRows(const engine::ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    for (const auto& v : row) {
      out += v.is_null() ? "NULL" : v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

struct Instance {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<AccessControlCatalog> catalog;
  std::unique_ptr<EnforcementMonitor> monitor;

  explicit Instance(uint64_t policy_seed, double selectivity) {
    db = std::make_unique<engine::Database>();
    workload::PatientsConfig config;
    config.num_patients = 30;
    config.samples_per_patient = 40;  // 1200 sensed_data rows.
    EXPECT_TRUE(workload::BuildPatientsDatabase(db.get(), config).ok());
    catalog = std::make_unique<AccessControlCatalog>(db.get());
    EXPECT_TRUE(catalog->Initialize().ok());
    EXPECT_TRUE(workload::ConfigurePatientsAccessControl(catalog.get()).ok());
    workload::ScatteredPolicyConfig sp;
    sp.seed = policy_seed;
    sp.selectivity = selectivity;
    EXPECT_TRUE(workload::ApplyScatteredPolicies(catalog.get(), sp).ok());
    monitor = std::make_unique<EnforcementMonitor>(db.get(), catalog.get());
  }
};

/// Runs `sql` under `purpose` and returns (rendered rows, checks spent).
std::pair<std::string, uint64_t> RunQuery(EnforcementMonitor* monitor,
                                     const std::string& sql,
                                     const std::string& purpose) {
  const uint64_t before = monitor->compliance_checks();
  auto rs = monitor->ExecuteQuery(sql, purpose);
  EXPECT_TRUE(rs.ok()) << sql << "\n  " << rs.status();
  if (!rs.ok()) return {"<error>", 0};
  return {RenderRows(*rs), monitor->compliance_checks() - before};
}

TEST(VerdictMemoTest, RandomQueriesAgreeWithDirectChecksAtEqualCount) {
  // Three policy distributions (varying seed and selectivity) x 50 random
  // queries each; results and logical check counts must be invariant under
  // the memo toggle.
  const struct {
    uint64_t seed;
    double selectivity;
  } kDists[] = {{11, 0.0}, {22, 0.35}, {33, 0.6}};
  for (const auto& dist : kDists) {
    Instance inst(dist.seed, dist.selectivity);
    testutil::QueryGenerator gen(/*seed=*/dist.seed * 7919);
    for (size_t i = 0; i < 50; ++i) {
      const testutil::GenQuery q = gen.Next();
      const std::string ctx = "policy_seed=" + std::to_string(dist.seed) +
                              " query#" + std::to_string(i) + " sql=" + q.sql;

      inst.monitor->SetVerdictMemoEnabled(false);
      const auto direct = RunQuery(inst.monitor.get(), q.sql, q.purpose);
      inst.monitor->SetVerdictMemoEnabled(true);
      const auto memoized = RunQuery(inst.monitor.get(), q.sql, q.purpose);

      ASSERT_EQ(memoized.first, direct.first) << ctx;
      ASSERT_EQ(memoized.second, direct.second)
          << ctx << "\n  memoization changed the logical check count";
    }
  }
}

TEST(VerdictMemoTest, ParallelSharedVerdictTableMatchesSerialDirect) {
  // Morsel workers fill and read one verdict table concurrently; results
  // and check accounting must equal the serial un-memoized reference.
  Instance inst(/*policy_seed=*/7, /*selectivity=*/0.35);
  util::TaskPool pool(3);
  for (const auto& q : workload::PaperQueries()) {
    inst.monitor->SetParallelism(nullptr, 1);
    inst.monitor->SetVerdictMemoEnabled(false);
    const auto reference = RunQuery(inst.monitor.get(), q.sql, "p3");

    inst.monitor->SetVerdictMemoEnabled(true);
    inst.monitor->SetParallelism(&pool, 4, /*morsel_rows=*/64);
    const auto parallel = RunQuery(inst.monitor.get(), q.sql, "p3");
    inst.monitor->SetParallelism(nullptr, 1);

    ASSERT_EQ(parallel.first, reference.first) << q.name;
    ASSERT_EQ(parallel.second, reference.second) << q.name;
  }
}

TEST(VerdictMemoTest, HitsPlusMissesAccountForEveryCheckOnInternedPolicies) {
  // Scattered policies intern every stored mask, so each compliance check at
  // a memoized call site is either a memo hit or a memo fill — the two
  // counters must partition the logical count exactly.
  Instance inst(/*policy_seed=*/5, /*selectivity=*/0.2);
  auto* metrics = inst.monitor->metrics().get();
  const std::string sql = "SELECT user_id FROM users";

  const uint64_t hits0 = metrics->counter(obs::kVerdictMemoHits)->value();
  const uint64_t miss0 = metrics->counter(obs::kVerdictMemoMisses)->value();
  const auto run = RunQuery(inst.monitor.get(), sql, "p3");
  const uint64_t hits = metrics->counter(obs::kVerdictMemoHits)->value() - hits0;
  const uint64_t misses =
      metrics->counter(obs::kVerdictMemoMisses)->value() - miss0;

  ASSERT_GT(run.second, 0u);
  EXPECT_EQ(hits + misses, run.second);
  // The users table holds far fewer distinct masks than rows, so the table
  // must have answered most checks from memo.
  EXPECT_GT(hits, misses);

  // With the memo disabled neither counter moves.
  inst.monitor->SetVerdictMemoEnabled(true);
  const uint64_t hits1 = metrics->counter(obs::kVerdictMemoHits)->value();
  inst.monitor->SetVerdictMemoEnabled(false);
  (void)RunQuery(inst.monitor.get(), sql, "p3");
  inst.monitor->SetVerdictMemoEnabled(true);
  EXPECT_EQ(metrics->counter(obs::kVerdictMemoHits)->value(), hits1);
}

TEST(VerdictMemoTest, ContendedSlotsFillOncePerIdAtAnyDop) {
  // One-row morsels on eight lanes make many lanes meet each new policy id
  // at once. Each verdict slot must still be filled exactly once per
  // statement, every other lane taking the stored verdict as a hit, so the
  // miss count is the DOP-1 count and hits + misses is still the logical
  // check count. Static verdicts and zone maps are off so every tuple
  // reaches the memo; both executors share the memo and are covered.
  Instance inst(/*policy_seed=*/11, /*selectivity=*/0.3);
  inst.monitor->SetStaticVerdictEnabled(false);
  inst.monitor->SetZoneMapEnabled(false);
  auto* metrics = inst.monitor->metrics().get();
  struct Counts {
    uint64_t hits, misses, checks;
  };
  const auto run = [&](const std::string& sql) {
    const uint64_t hits0 = metrics->counter(obs::kVerdictMemoHits)->value();
    const uint64_t miss0 = metrics->counter(obs::kVerdictMemoMisses)->value();
    const uint64_t checks = RunQuery(inst.monitor.get(), sql, "p3").second;
    return Counts{metrics->counter(obs::kVerdictMemoHits)->value() - hits0,
                  metrics->counter(obs::kVerdictMemoMisses)->value() - miss0,
                  checks};
  };
  util::TaskPool pool(7);
  for (const bool vec : {true, false}) {
    inst.monitor->SetVectorEnabled(vec);
    for (const auto& q : workload::PaperQueries()) {
      const std::string where = q.name + (vec ? " (vector)" : " (row)");
      inst.monitor->SetParallelism(nullptr, 1);
      const Counts serial = run(q.sql);
      inst.monitor->SetParallelism(&pool, 8, /*morsel_rows=*/1);
      const Counts parallel = run(q.sql);
      inst.monitor->SetParallelism(nullptr, 1);

      EXPECT_EQ(parallel.misses, serial.misses) << where;
      EXPECT_EQ(serial.hits + serial.misses, serial.checks) << where;
      EXPECT_EQ(parallel.hits + parallel.misses, parallel.checks) << where;
      EXPECT_EQ(parallel.checks, serial.checks) << where;
    }
  }
}

}  // namespace
}  // namespace aapac::core
