// The enforcement monitor's audit trail: enabled on demand, records ok /
// denied / error outcomes with per-statement check counts, queryable as SQL,
// and written exactly once on every statement exit path.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/monitor.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "workload/patients.h"
#include "workload/policies.h"

namespace aapac::core {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>();
    workload::PatientsConfig config;
    config.num_patients = 5;
    config.samples_per_patient = 2;
    ASSERT_TRUE(workload::BuildPatientsDatabase(db_.get(), config).ok());
    catalog_ = std::make_unique<AccessControlCatalog>(db_.get());
    ASSERT_TRUE(catalog_->Initialize().ok());
    ASSERT_TRUE(workload::ConfigurePatientsAccessControl(catalog_.get()).ok());
    workload::ScatteredPolicyConfig sp;
    sp.selectivity = 0.0;
    ASSERT_TRUE(workload::ApplyScatteredPolicies(catalog_.get(), sp).ok());
    monitor_ = std::make_unique<EnforcementMonitor>(db_.get(), catalog_.get());
  }

  engine::ResultSet Audit(const std::string& where = "") {
    auto rs = monitor_->ExecuteUnrestricted(
        "select seq, ui, ap, outcome, checks, rows from audit_log" + where);
    EXPECT_TRUE(rs.ok()) << rs.status();
    return rs.ok() ? std::move(*rs) : engine::ResultSet{};
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<AccessControlCatalog> catalog_;
  std::unique_ptr<EnforcementMonitor> monitor_;
};

TEST_F(AuditTest, DisabledByDefault) {
  EXPECT_FALSE(monitor_->audit_enabled());
  ASSERT_TRUE(monitor_->ExecuteQuery("select user_id from users", "p1").ok());
  EXPECT_EQ(db_->FindTable(EnforcementMonitor::kAuditTable), nullptr);
}

TEST_F(AuditTest, RecordsSuccessfulQueries) {
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());  // Idempotent.
  ASSERT_TRUE(
      monitor_->ExecuteQuery("select user_id from users", "p1").ok());
  auto audit = Audit();
  ASSERT_EQ(audit.rows.size(), 1u);
  EXPECT_EQ(audit.rows[0][0].AsInt(), 1);            // seq.
  EXPECT_EQ(audit.rows[0][2].AsString(), "p1");      // ap.
  EXPECT_EQ(audit.rows[0][3].AsString(), "ok");      // outcome.
  EXPECT_EQ(audit.rows[0][4].AsInt(), 5);            // checks: 5 tuples.
  EXPECT_EQ(audit.rows[0][5].AsInt(), 5);            // rows.
}

TEST_F(AuditTest, RecordsDenialsAndErrors) {
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());
  // Denied: unauthorized user.
  auto rs = monitor_->ExecuteQuery("select user_id from users", "p1", "eve");
  EXPECT_FALSE(rs.ok());
  // Error: bad SQL.
  rs = monitor_->ExecuteQuery("select nope from users", "p1", "");
  EXPECT_FALSE(rs.ok());
  auto audit = Audit();
  ASSERT_EQ(audit.rows.size(), 2u);
  EXPECT_EQ(audit.rows[0][3].AsString(), "denied");
  EXPECT_EQ(audit.rows[0][1].AsString(), "eve");
  EXPECT_EQ(audit.rows[1][3].AsString(), "error");
}

TEST_F(AuditTest, RecordsInserts) {
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());
  auto n = monitor_->ExecuteInsert("insert into pr values ('p9', 'x')", "p1");
  ASSERT_TRUE(n.ok()) << n.status();
  auto audit = Audit();
  ASSERT_EQ(audit.rows.size(), 1u);
  EXPECT_EQ(audit.rows[0][3].AsString(), "ok");
  EXPECT_EQ(audit.rows[0][5].AsInt(), 1);
}

TEST_F(AuditTest, SequenceNumbersAreMonotonic) {
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor_->ExecuteQuery("select user_id from users", "p1").ok());
  }
  auto audit = Audit(" order by seq");
  ASSERT_EQ(audit.rows.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(audit.rows[static_cast<size_t>(i)][0].AsInt(), i + 1);
  }
}

TEST_F(AuditTest, AuditTableIsPlainSql) {
  ASSERT_TRUE(monitor_->EnableAuditLog().ok());
  ASSERT_TRUE(monitor_->ExecuteQuery("select user_id from users", "p1").ok());
  ASSERT_TRUE(monitor_->ExecuteQuery("select user_id from users", "p6").ok());
  auto rs = monitor_->ExecuteUnrestricted(
      "select ap, count(*) from audit_log group by ap order by ap");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "p1");
}

// Complete mediation of the audit trail: whichever way a statement leaves
// the monitor — success, authorization denial, unknown purpose, parse
// error, execution error, or a DML-specific refusal — it writes exactly one
// audit row and one ledger record and moves exactly one outcome counter,
// through the direct monitor and through a server session alike.
TEST_F(AuditTest, EveryExitPathWritesOneAuditRowAndOneLedgerEntry) {
  enum class Kind { kSelect, kInsert, kUpdate, kDelete };
  enum class Exit { kOk, kUnauthorized, kUnknownPurpose, kOther };
  struct Case {
    const char* name;
    Kind kind;
    Exit exit;
    const char* sql;
    const char* outcome;
  };
  const Case kCases[] = {
      {"select ok", Kind::kSelect, Exit::kOk, "select user_id from users",
       "ok"},
      {"select unauthorized", Kind::kSelect, Exit::kUnauthorized,
       "select user_id from users", "denied"},
      {"select unknown purpose", Kind::kSelect, Exit::kUnknownPurpose,
       "select user_id from users", "error"},
      {"select parse error", Kind::kSelect, Exit::kOther,
       "selec user_id from users", "error"},
      {"select execute error", Kind::kSelect, Exit::kOther,
       "select user_id from users where 1 / 0 = 1", "error"},
      {"insert ok", Kind::kInsert, Exit::kOk,
       "insert into pr values ('p9', 'x')", "ok"},
      {"insert unauthorized", Kind::kInsert, Exit::kUnauthorized,
       "insert into pr values ('p9', 'x')", "denied"},
      {"insert unknown purpose", Kind::kInsert, Exit::kUnknownPurpose,
       "insert into pr values ('p9', 'x')", "error"},
      {"insert parse error", Kind::kInsert, Exit::kOther, "insert into pr",
       "error"},
      {"insert execute error", Kind::kInsert, Exit::kOther,
       "insert into pr values ('p9')", "error"},
      {"insert without policy", Kind::kInsert, Exit::kOther,
       "insert into users values ('u9', 'w9', 'n9')", "denied"},
      {"update ok", Kind::kUpdate, Exit::kOk,
       "update users set watch_id = 'w' where user_id like 'user1'", "ok"},
      {"update unauthorized", Kind::kUpdate, Exit::kUnauthorized,
       "update users set watch_id = 'w'", "denied"},
      {"update unknown purpose", Kind::kUpdate, Exit::kUnknownPurpose,
       "update users set watch_id = 'w'", "error"},
      {"update parse error", Kind::kUpdate, Exit::kOther,
       "update users watch_id = 'w'", "error"},
      {"update execute error", Kind::kUpdate, Exit::kOther,
       "update users set watch_id = 'w' where 1 / 0 = 1", "error"},
      {"update policy column", Kind::kUpdate, Exit::kOther,
       "update users set policy = null", "denied"},
      {"delete ok", Kind::kDelete, Exit::kOk,
       "delete from users where user_id like 'user1'", "ok"},
      {"delete unauthorized", Kind::kDelete, Exit::kUnauthorized,
       "delete from users", "denied"},
      {"delete unknown purpose", Kind::kDelete, Exit::kUnknownPurpose,
       "delete from users", "error"},
      {"delete parse error", Kind::kDelete, Exit::kOther, "delete users",
       "error"},
      {"delete execute error", Kind::kDelete, Exit::kOther,
       "delete from users where 1 / 0 = 1", "error"},
  };
  constexpr const char* kUnknownPurpose = "no_such_purpose";

  for (const bool via_server : {false, true}) {
    for (const Case& c : kCases) {
      SCOPED_TRACE(std::string(via_server ? "server: " : "direct: ") +
                   c.name);
      // A fresh database per case: DML must not leak across cases.
      monitor_.reset();
      catalog_.reset();
      SetUp();
      ASSERT_TRUE(monitor_->EnableAuditLog().ok());
      ASSERT_TRUE(catalog_->AuthorizeUser("alice", "p1").ok());
      const std::string user =
          c.exit == Exit::kUnauthorized && !via_server ? "eve" : "alice";
      const std::string purpose =
          c.exit == Exit::kUnknownPurpose ? kUnknownPurpose : "p1";
      obs::MetricsRegistry* reg = monitor_->metrics().get();
      const auto outcomes = [reg] {
        return reg->counter("enforce.ok")->value() +
               reg->counter("enforce.denied")->value() +
               reg->counter("enforce.error")->value();
      };
      const auto ledger_statements = [this] {
        return monitor_->ledger().statements_counter()->load();
      };

      Status status;
      uint64_t outcomes_before = 0;
      uint64_t ledger_before = 0;
      if (!via_server) {
        outcomes_before = outcomes();
        ledger_before = ledger_statements();
        switch (c.kind) {
          case Kind::kSelect:
            status = monitor_->ExecuteQuery(c.sql, purpose, user).status();
            break;
          case Kind::kInsert:
            status =
                monitor_->ExecuteInsert(c.sql, purpose, nullptr, user).status();
            break;
          case Kind::kUpdate:
            status = monitor_->ExecuteUpdate(c.sql, purpose, user).status();
            break;
          case Kind::kDelete:
            status = monitor_->ExecuteDelete(c.sql, purpose, user).status();
            break;
        }
      } else {
        server::ServerOptions options;
        options.audit_fold_ms = 3600 * 1000;  // Shutdown folds, not a timer.
        server::EnforcementServer server(monitor_.get(), options);
        if (c.exit == Exit::kUnknownPurpose) {
          // Sessions resolve the purpose up front: the open is the exit.
          outcomes_before = outcomes();
          ledger_before = ledger_statements();
          status = server.OpenSession(user, purpose).status();
        } else {
          auto sid = server.OpenSession(user, purpose);
          ASSERT_TRUE(sid.ok()) << sid.status();
          if (c.exit == Exit::kUnauthorized) {
            ASSERT_TRUE(server
                            .WithExclusive([&] {
                              return catalog_->RevokeUser("alice", "p1");
                            })
                            .ok());
          }
          outcomes_before = outcomes();
          ledger_before = ledger_statements();
          switch (c.kind) {
            case Kind::kSelect:
              status = server.Execute(*sid, c.sql).status();
              break;
            case Kind::kInsert:
              status = server.ExecuteInsert(*sid, c.sql).status();
              break;
            case Kind::kUpdate:
              status = server.ExecuteUpdate(*sid, c.sql).status();
              break;
            case Kind::kDelete:
              status = server.ExecuteDelete(*sid, c.sql).status();
              break;
          }
        }
        server.Shutdown();  // Folds staged audit records into the table.
      }

      EXPECT_EQ(status.ok(), c.exit == Exit::kOk) << status;
      EXPECT_EQ(outcomes() - outcomes_before, 1u);
      if (obs::kObsCompiledIn) {  // The ledger compiles out with obs.
        EXPECT_EQ(ledger_statements() - ledger_before, 1u);
      }
      auto audit = Audit();
      EXPECT_EQ(audit.rows.size(), 1u);
      if (audit.rows.size() != 1) continue;
      EXPECT_EQ(audit.rows[0][3].AsString(), c.outcome);
      EXPECT_EQ(audit.rows[0][1].AsString(), user);
      EXPECT_EQ(audit.rows[0][2].AsString(), purpose);
    }
  }
}

}  // namespace
}  // namespace aapac::core
