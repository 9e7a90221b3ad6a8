// Regression coverage for operator-level profile accounting. The profiler
// follows the CheckTally discipline — thread-local tallies, morsel-driver
// folds at operator close — so per-operator check and row counts must be
// identical at any degree of parallelism and under the vector / zone-map
// executor toggles, and the per-op exclusive checks must sum to exactly the
// statement total the audit log records.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/monitor.h"
#include "engine/database.h"
#include "obs/profile.h"
#include "util/task_pool.h"
#include "workload/patients.h"
#include "workload/policies.h"
#include "workload/queries.h"

namespace aapac::core {
namespace {

struct Instance {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<AccessControlCatalog> catalog;
  std::unique_ptr<EnforcementMonitor> monitor;

  Instance() {
    db = std::make_unique<engine::Database>();
    workload::PatientsConfig config;
    config.num_patients = 30;
    config.samples_per_patient = 40;  // 1200 sensed_data rows.
    EXPECT_TRUE(workload::BuildPatientsDatabase(db.get(), config).ok());
    catalog = std::make_unique<AccessControlCatalog>(db.get());
    EXPECT_TRUE(catalog->Initialize().ok());
    EXPECT_TRUE(workload::ConfigurePatientsAccessControl(catalog.get()).ok());
    workload::ScatteredPolicyConfig sp;
    sp.selectivity = 0.3;
    EXPECT_TRUE(workload::ApplyScatteredPolicies(catalog.get(), sp).ok());
    monitor = std::make_unique<EnforcementMonitor>(db.get(), catalog.get());
  }
};

/// One operator's accounting signature: everything that must be invariant
/// under DOP (time is excluded — it is the one legitimately varying field).
struct OpSig {
  std::string label;
  std::string detail;
  int depth = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t checks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t zone_checks = 0;
  uint64_t rows_zone_skipped = 0;

  bool operator==(const OpSig& o) const {
    return label == o.label && detail == o.detail && depth == o.depth &&
           rows_in == o.rows_in && rows_out == o.rows_out &&
           checks == o.checks && memo_hits == o.memo_hits &&
           memo_misses == o.memo_misses && zone_checks == o.zone_checks &&
           rows_zone_skipped == o.rows_zone_skipped;
  }
};

std::vector<OpSig> SignatureOf(const obs::QueryProfile& p) {
  std::vector<OpSig> out;
  for (const auto& op : p.ops) {
    OpSig s;
    s.label = op.label;
    s.detail = op.detail;
    s.depth = op.depth;
    s.rows_in = op.rows_in;
    s.rows_out = op.rows_out;
    s.checks = op.checks;
    s.memo_hits = op.tally.memo_hits;
    s.memo_misses = op.tally.memo_misses;
    s.zone_checks = op.tally.zone_checks;
    s.rows_zone_skipped = op.tally.rows_zone_skipped;
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t SumChecks(const obs::QueryProfile& p) {
  uint64_t sum = 0;
  for (const auto& op : p.ops) sum += op.checks;
  return sum;
}

TEST(ProfileTallyTest, PerOperatorCountsIdenticalAcrossDop) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "built with AAPAC_OBS_OFF";
  Instance inst;
  util::TaskPool pool(3);
  for (const auto& q : workload::PaperQueries()) {
    inst.monitor->SetParallelism(nullptr, 1);
    // Warm-up pass: warms the table's zone-map state, so both measured
    // runs see the same zone summaries. The verdict memo is per statement
    // execution, so each measured run still starts it cold and reports its
    // own misses.
    ASSERT_TRUE(inst.monitor->ExecuteQuery(q.sql, "p3").ok()) << q.name;
    ASSERT_TRUE(inst.monitor->ExecuteQuery(q.sql, "p3").ok()) << q.name;
    auto serial = inst.monitor->profiles()->Last();
    ASSERT_TRUE(serial.ok()) << q.name;
    ASSERT_FALSE(serial->ops.empty()) << q.name;

    inst.monitor->SetParallelism(&pool, 4, /*morsel_rows=*/64);
    ASSERT_TRUE(inst.monitor->ExecuteQuery(q.sql, "p3").ok()) << q.name;
    auto parallel = inst.monitor->profiles()->Last();
    ASSERT_TRUE(parallel.ok()) << q.name;

    EXPECT_NE(serial->id, parallel->id);
    EXPECT_EQ(SignatureOf(*serial), SignatureOf(*parallel))
        << q.name << ": per-operator accounting drifted with DOP";
    EXPECT_EQ(serial->total_checks, parallel->total_checks) << q.name;
  }
}

TEST(ProfileTallyTest, OperatorChecksSumToAuditTotalAtBothDops) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "built with AAPAC_OBS_OFF";
  Instance inst;
  ASSERT_TRUE(inst.monitor->EnableAuditLog().ok());
  util::TaskPool pool(3);
  for (const bool parallel : {false, true}) {
    if (parallel) {
      inst.monitor->SetParallelism(&pool, 4, /*morsel_rows=*/64);
    } else {
      inst.monitor->SetParallelism(nullptr, 1);
    }
    for (const auto& q : workload::PaperQueries()) {
      inst.monitor->ResetComplianceChecks();
      ASSERT_TRUE(inst.monitor->ExecuteQuery(q.sql, "p3").ok()) << q.name;
      const uint64_t statement_checks = inst.monitor->compliance_checks();
      auto prof = inst.monitor->profiles()->Last();
      ASSERT_TRUE(prof.ok()) << q.name;
      // Exclusive attribution: the operator checks are a partition of the
      // statement total — the acceptance bar for \analyze output.
      EXPECT_EQ(SumChecks(*prof), statement_checks)
          << q.name << (parallel ? " (dop 4)" : " (dop 1)");
      EXPECT_EQ(prof->total_checks, statement_checks) << q.name;

      // The audit row carries the same checks value and this profile's id.
      auto audit = inst.monitor->ExecuteUnrestricted(
          "select seq, checks, profile from audit_log "
          "order by seq desc limit 1");
      ASSERT_TRUE(audit.ok()) << audit.status();
      ASSERT_EQ(audit->rows.size(), 1u);
      EXPECT_EQ(audit->rows[0][1].ToString(),
                std::to_string(statement_checks))
          << q.name;
      EXPECT_EQ(audit->rows[0][2].ToString(), std::to_string(prof->id))
          << q.name << ": audit profile id does not match the published one";
    }
  }
}

TEST(ProfileTallyTest, CountsStableUnderVectorAndZoneMapToggles) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "built with AAPAC_OBS_OFF";
  Instance inst;
  const std::string sql = workload::PaperQueries()[0].sql;
  // Logical check counts must not depend on the executor strategy; rows
  // in/out per operator must match as well (the detail string legitimately
  // differs — it names the strategy — so compare the numeric fields only).
  struct Totals {
    uint64_t checks;
    std::vector<std::pair<uint64_t, uint64_t>> rows;
  };
  std::vector<Totals> runs;
  for (const bool vec : {false, true}) {
    for (const bool zone : {false, true}) {
      inst.monitor->SetVectorEnabled(vec);
      inst.monitor->SetZoneMapEnabled(zone);
      inst.monitor->ResetComplianceChecks();
      ASSERT_TRUE(inst.monitor->ExecuteQuery(sql, "p3").ok());
      auto prof = inst.monitor->profiles()->Last();
      ASSERT_TRUE(prof.ok());
      EXPECT_EQ(SumChecks(*prof), inst.monitor->compliance_checks())
          << "vec=" << vec << " zone=" << zone;
      Totals t;
      t.checks = inst.monitor->compliance_checks();
      for (const auto& op : prof->ops) {
        t.rows.emplace_back(op.rows_in, op.rows_out);
      }
      runs.push_back(std::move(t));
    }
  }
  inst.monitor->SetVectorEnabled(true);
  inst.monitor->SetZoneMapEnabled(true);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].checks, runs[0].checks) << "toggle combination " << i;
    EXPECT_EQ(runs[i].rows, runs[0].rows) << "toggle combination " << i;
  }
}

TEST(ProfileTallyTest, LedgerReconcilesWithEnforceCounters) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "built with AAPAC_OBS_OFF";
  Instance inst;
  for (const auto& q : workload::PaperQueries()) {
    ASSERT_TRUE(inst.monitor->ExecuteQuery(q.sql, "p3").ok()) << q.name;
  }
  // One denial and one prepare error land in their "-" buckets.
  EXPECT_FALSE(inst.monitor->ExecuteQuery("select 1 from pr", "p99").ok());
  EXPECT_FALSE(inst.monitor->ExecuteQuery("selec nothing", "p3").ok());

  uint64_t checks = 0, allowed = 0, denied = 0, errors = 0, hits = 0,
           misses = 0, skipped = 0, bulk = 0, mixed = 0;
  for (const auto& e : inst.monitor->ledger().Snapshot()) {
    checks += e.checks;
    allowed += e.allowed;
    denied += e.denied;
    errors += e.errors;
    hits += e.tally.memo_hits;
    misses += e.tally.memo_misses;
    skipped += e.tally.blocks_skipped;
    bulk += e.tally.blocks_bulk;
    mixed += e.tally.blocks_mixed;
  }
  // The ledger is fed from the same per-statement deltas as the enforce.*
  // counters, so its column sums reconcile with them exactly.
  const auto& m = inst.monitor->metrics();
  EXPECT_EQ(checks, m->counter("enforce.compliance_checks")->value());
  EXPECT_EQ(allowed, m->counter("enforce.ok")->value());
  EXPECT_EQ(denied, m->counter("enforce.denied")->value());
  EXPECT_EQ(errors, m->counter("enforce.error")->value());
  EXPECT_EQ(hits, m->counter(obs::kVerdictMemoHits)->value());
  EXPECT_EQ(misses, m->counter(obs::kVerdictMemoMisses)->value());
  EXPECT_EQ(skipped, m->counter(obs::kZoneBlocksSkipped)->value());
  EXPECT_EQ(bulk, m->counter(obs::kZoneBlocksBulkAccepted)->value());
  EXPECT_EQ(mixed, m->counter(obs::kZoneBlocksMixed)->value());
  // And the published running totals match the snapshot.
  EXPECT_EQ(inst.monitor->ledger().checks_counter()->load(), checks);
}

TEST(ProfileTallyTest, DisabledProfilingStillCountsChecksExactly) {
  Instance inst;
  const std::string sql = workload::PaperQueries()[0].sql;
  inst.monitor->ResetComplianceChecks();
  ASSERT_TRUE(inst.monitor->ExecuteQuery(sql, "p3").ok());
  const uint64_t expected = inst.monitor->compliance_checks();

  obs::SetProfilingEnabled(false);
  inst.monitor->ResetComplianceChecks();
  ASSERT_TRUE(inst.monitor->ExecuteQuery(sql, "p3").ok());
  obs::SetProfilingEnabled(true);
  // The kill switch drops the profile tree, never the enforcement math.
  EXPECT_EQ(inst.monitor->compliance_checks(), expected);
}

}  // namespace
}  // namespace aapac::core
