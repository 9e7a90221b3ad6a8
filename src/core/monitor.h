#ifndef AAPAC_CORE_MONITOR_H_
#define AAPAC_CORE_MONITOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/audit_buffer.h"
#include "core/catalog.h"
#include "core/rewriter.h"
#include "core/static_verdict.h"
#include "engine/exec.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/result.h"

namespace aapac::core {

class RoleManager;

/// The Enforcement Monitor of the paper's architecture (Fig. 1): it accepts
/// a SQL query together with its declared access purpose (and optionally the
/// issuing user), enforces access control by rewriting the query (§5.5) and
/// runs the rewritten query against the secured database.
///
/// Construction registers the `complies_with` UDF — the C++ analogue of the
/// paper's PostgreSQL user-defined C function — into the database's function
/// registry; the UDF counts its invocations, which is exactly the complexity
/// metric of the paper's Figure 6.
class EnforcementMonitor {
 public:
  EnforcementMonitor(engine::Database* db, AccessControlCatalog* catalog);
  ~EnforcementMonitor();

  EnforcementMonitor(const EnforcementMonitor&) = delete;
  EnforcementMonitor& operator=(const EnforcementMonitor&) = delete;

  /// Parses, access-checks, rewrites and executes `sql` with `purpose`.
  /// When `user` is non-empty, the user must hold a purpose authorization
  /// (table Pa) for `purpose`, else kPermissionDenied.
  ///
  /// Every enforced statement — this and the INSERT/UPDATE/DELETE entry
  /// points below — passes through one envelope: whichever way it exits,
  /// it moves exactly one of enforce.ok/denied/error and writes exactly one
  /// ledger record and (with the audit log on) one audit row. "denied" is
  /// an unauthorized user, a protected INSERT without a policy or an
  /// assignment to the policy column; every other failure is "error".
  Result<engine::ResultSet> ExecuteQuery(const std::string& sql,
                                         const std::string& purpose,
                                         const std::string& user = "");

  /// Executes `sql` without enforcement (the "original query" runs of the
  /// paper's experiments).
  Result<engine::ResultSet> ExecuteUnrestricted(const std::string& sql);

  /// Executes an INSERT statement (§5.3: users "insert new records (which
  /// already include the policies)"). For a protected target table a
  /// `policy` must be supplied; it is validated, encoded under the table's
  /// current mask layout and stamped into the policy column of every new
  /// tuple. For INSERT ... SELECT the source query is rewritten first, so
  /// reads stay purpose-enforced. Returns the number of rows inserted.
  Result<size_t> ExecuteInsert(const std::string& sql,
                               const std::string& purpose,
                               const Policy* policy = nullptr,
                               const std::string& user = "");

  /// Executes an UPDATE under enforcement (a write-side extension of the
  /// paper's read-only model, with select-equivalent semantics): a tuple may
  /// be updated iff its policy would admit a SELECT, under the same purpose,
  /// that reads every assignment right-hand side and names every assigned
  /// column directly, filtered by the UPDATE's WHERE clause. Sub-queries in
  /// the WHERE/right-hand sides are rewritten as usual. Returns the number
  /// of rows updated.
  Result<size_t> ExecuteUpdate(const std::string& sql,
                               const std::string& purpose,
                               const std::string& user = "");

  /// Executes a DELETE under enforcement, with SELECT-*-equivalent
  /// semantics: a tuple may be deleted iff its policy would admit reading
  /// the full tuple (direct access to every column) under the purpose,
  /// filtered by the DELETE's WHERE clause. Returns rows removed.
  Result<size_t> ExecuteDelete(const std::string& sql,
                               const std::string& purpose,
                               const std::string& user = "");

  /// Returns the rewritten SQL text without executing it.
  Result<std::string> Rewrite(const std::string& sql,
                              const std::string& purpose) const {
    return rewriter_.RewriteSql(sql, purpose);
  }

  // --- Server path (src/server). --------------------------------------------
  //
  // The concurrent enforcement service splits ExecuteQuery's pipeline so it
  // can memoize the expensive middle stage (parse + signature derivation +
  // rewrite) in a policy-versioned cache:
  //
  //   CheckAccess -> [RewriteCache lookup | Prepare] -> ExecutePrepared

  /// Resolves `purpose` and checks `user`'s authorization for it (empty
  /// user skips the check, as in ExecuteQuery). Success writes nothing and
  /// returns the purpose id. Failure settles `sql_for_audit` like any
  /// statement — "denied" for an unauthorized user, "error" for an unknown
  /// purpose — under ledger action "select" ("access" if `sql_for_audit`
  /// is empty: a session open).
  Result<std::string> CheckAccess(const std::string& purpose,
                                  const std::string& user,
                                  const std::string& sql_for_audit = "");

  /// Parses and enforcement-rewrites `sql` for an already-resolved purpose
  /// id, without executing it; writes nothing either way. The returned
  /// statement is immutable from the executor's point of view, so it may be
  /// executed concurrently by many workers (and cached across them).
  Result<std::unique_ptr<sql::SelectStmt>> Prepare(
      const std::string& sql, const std::string& purpose_id) const;

  /// Settles a failed Prepare as ExecuteQuery does: one "error" outcome,
  /// ledger record and audit row. Returns `status`.
  Status SettlePrepareFailure(const Status& status, const std::string& sql,
                              const std::string& purpose_id,
                              const std::string& user);

  /// Executes an already-rewritten SELECT with the same check accounting and
  /// audit trail as ExecuteQuery — exactly one audit row and ledger record,
  /// success or not; `sql` is the original text recorded in the audit log.
  /// Safe to call from multiple threads provided every table access
  /// resolves through a stable version: the server installs an
  /// epoch-pinned engine::TableSnapshot for the statement (or, with epoch
  /// concurrency off, holds its readers-writer lock).
  Result<engine::ResultSet> ExecutePrepared(const sql::SelectStmt& stmt,
                                            const std::string& sql,
                                            const std::string& purpose_id,
                                            const std::string& user);

  /// Same, with an explicit per-statement parallelism request overriding
  /// the monitor-wide SetParallelism configuration. The server uses this to
  /// pass its pool handle and per-query thread cap so query workers and
  /// morsel workers draw from one thread budget.
  Result<engine::ResultSet> ExecutePrepared(
      const sql::SelectStmt& stmt, const std::string& sql,
      const std::string& purpose_id, const std::string& user,
      const engine::ParallelSpec& parallel);

  /// Enables intra-query morsel parallelism for every SELECT this monitor
  /// executes (ExecuteQuery and the pool-less ExecutePrepared overload):
  /// each statement may fan out to `pool` with at most `max_threads`
  /// workers including the calling thread. nullptr or max_threads <= 1
  /// restores the serial path. Configure at setup time, not while
  /// statements are in flight; the pool must outlive them.
  /// `morsel_rows` sets the scan-split granularity (scans smaller than two
  /// morsels stay serial).
  void SetParallelism(util::TaskPool* pool, size_t max_threads,
                      size_t morsel_rows = 2048);
  const engine::ParallelSpec& parallel_spec() const { return parallel_; }

  /// Human-readable enforcement report for a query, without executing it:
  /// the derived query signature tree, the encoded action-signature masks,
  /// the §5.6 complexity upper bound, the rewritten SQL, and a compliance
  /// analysis — for every action signature × distinct stored policy mask of
  /// each protected table, whether tuples comply, and on denial exactly
  /// which action-signature bits each policy rule fails to cover (named via
  /// MaskLayout::DescribeBit: the failing column/purpose/action bit and its
  /// policy component).
  Result<std::string> ExplainQuery(const std::string& sql,
                                   const std::string& purpose) const;

  /// Number of complies_with invocations since the last reset — the Fig. 6
  /// "policy compliance checks" measure. Thin wrapper over the
  /// enforce.compliance_checks registry counter (the one stats surface);
  /// atomic, so the metric stays exact when queries run concurrently through
  /// the server.
  uint64_t compliance_checks() const { return check_counter_->value(); }
  void ResetComplianceChecks() { check_counter_->Reset(); }

  /// The metrics registry every enforcement layer records into (stage
  /// histograms, outcome counters, cache/server/engine counters) and the
  /// ring buffer of recent per-statement traces. Shared pointers: the server
  /// and shell hold them beyond individual statements.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }
  const std::shared_ptr<obs::TraceStore>& traces() const { return traces_; }

  /// Ring of recent operator-level query profiles (\analyze, \profile) and
  /// the per-(table, purpose, action) enforcement decision ledger
  /// (\ledger); both are fed by every enforced statement this monitor runs.
  const std::shared_ptr<obs::ProfileStore>& profiles() const {
    return profiles_;
  }
  obs::DecisionLedger& ledger() { return ledger_; }
  const obs::DecisionLedger& ledger() const { return ledger_; }

  engine::ExecStats& exec_stats() { return executor_.stats(); }
  const QueryRewriter& rewriter() const { return rewriter_; }
  AccessControlCatalog* catalog() { return catalog_; }

  /// Forwarded to the executor; see engine::Executor::set_pushdown_enabled.
  void SetPushdownEnabled(bool enabled) {
    executor_.set_pushdown_enabled(enabled);
  }

  /// Forwarded to the executor; see
  /// engine::Executor::set_verdict_memo_enabled. Disabling forces every
  /// compliance check through the full CompliesWithPacked sweep (the
  /// pre-dictionary path); results and check counts must not change, which
  /// the differential harness asserts.
  void SetVerdictMemoEnabled(bool enabled) {
    executor_.set_verdict_memo_enabled(enabled);
  }
  bool verdict_memo_enabled() const {
    return executor_.verdict_memo_enabled();
  }

  /// Forwarded to the executor; see engine::Executor::set_zone_map_enabled.
  /// Disabling forces the per-tuple path even over blocks whose policy ids
  /// are uniformly decided (results and check counts must not change —
  /// asserted by the differential harness and bench_zone_skip). Also
  /// settable at construction via the AAPAC_ZONEMAP_OFF environment knob.
  void SetZoneMapEnabled(bool enabled) {
    executor_.set_zone_map_enabled(enabled);
  }
  bool zone_map_enabled() const { return executor_.zone_map_enabled(); }

  /// Forwarded to the executor; see engine::Executor::set_vector_enabled.
  /// Disabling forces every filter pass through the row-at-a-time path
  /// (results and check counts must not change — asserted by the
  /// differential harness). Also settable at construction via the
  /// AAPAC_VECTOR_OFF environment knob.
  void SetVectorEnabled(bool enabled) {
    executor_.set_vector_enabled(enabled);
  }
  bool vector_enabled() const { return executor_.vector_enabled(); }

  /// Forwarded to the executor; see
  /// engine::Executor::set_index_scans_enabled. Disabling forces every
  /// sargable point/range scan through the full scan machinery (results and
  /// check counts must not change — asserted by the differential harness's
  /// index-off leg and bench_point_lookup's self-check). Also settable at
  /// construction via the AAPAC_INDEX_OFF environment knob.
  void SetIndexScansEnabled(bool enabled) {
    executor_.set_index_scans_enabled(enabled);
  }
  bool index_scans_enabled() const { return executor_.index_scans_enabled(); }

  /// Forwarded to the executor; see engine::Executor::set_batch_rows.
  /// 0 (the default) selects the AAPAC_BATCH_ROWS value.
  void SetBatchRows(size_t rows) { executor_.set_batch_rows(rows); }
  size_t batch_rows() const { return executor_.batch_rows(); }

  /// Kill switch for the bind-time StaticVerdict pass, set on BOTH sides:
  /// the rewriter stops stamping static classes onto fresh conjuncts, and
  /// the executor ignores classes already stamped onto cached ASTs — so
  /// flipping the switch takes effect even for statements the server's
  /// rewrite cache prepared earlier. Results and check counts must not
  /// change (asserted by the differential harness and its static-off leg).
  /// Also settable at construction via the AAPAC_STATIC_OFF environment
  /// knob.
  void SetStaticVerdictEnabled(bool enabled) {
    rewriter_.SetStaticVerdictEnabled(enabled);
    executor_.set_static_verdict_enabled(enabled);
  }
  bool static_verdict_enabled() const {
    return rewriter_.static_verdict_enabled();
  }

  /// The StaticVerdict pass (decision cache + stats); owned by the monitor,
  /// shared with the rewriter.
  const StaticVerdictPass& static_pass() const { return static_pass_; }
  StaticVerdictPass& static_pass() { return static_pass_; }

  /// Enables role-based purpose authorization: users may then hold a
  /// purpose either directly (table Pa) or through a role (tables Rr/Ur).
  /// Pass nullptr to disable again. The manager must outlive the monitor.
  void SetRoleManager(const RoleManager* roles) { roles_ = roles; }

  /// Name of the audit trail table created by EnableAuditLog.
  static constexpr const char* kAuditTable = "audit_log";

  /// Enables the audit trail, in the spirit of the Hippocratic-database
  /// lineage the paper builds on: every enforced statement — whatever its
  /// outcome — appends one row to
  /// audit_log(seq, ui, ap, qy, outcome, checks, rows, trace, profile) —
  /// sequence number, user, purpose id (the supplied text when it does not
  /// resolve), SQL text, "ok"/"denied"/"error",
  /// compliance checks spent on the statement, result/inserted row count,
  /// the statement's trace id (0 when tracing is off) and its profile id (0
  /// when profiling is off), joinable against the \trace and \profile rings
  /// while retained. The audit table is ordinary SQL-queryable state.
  Status EnableAuditLog();
  bool audit_enabled() const { return audit_enabled_; }

  /// Routes audit appends through a sharded staging buffer instead of
  /// inserting into audit_log directly — the epoch-mode server enables this
  /// so readers can append without any table write, and folds the buffer
  /// into the table under its writer mutex (core/audit_buffer.h has the
  /// ordering argument). Sequence numbering continues seamlessly from the
  /// direct path. Idempotent; safe to call before EnableAuditLog (appends
  /// stay gated on audit_enabled_ either way).
  void EnableAuditBuffering(size_t shards);

  /// Reverts to direct inserts, adopting the buffer's sequence counter so
  /// numbering stays dense. Call only after a final fold has drained the
  /// buffer (the server's Shutdown does); un-folded records would be lost.
  void DisableAuditBuffering();

  /// The active buffer, or nullptr when appends go straight to the table.
  AuditBuffer* audit_buffer() {
    return audit_buffer_.load(std::memory_order_acquire);
  }

 private:
  // The statement envelope (monitor.cc). Every enforced statement runs
  // Admit -> its kind's prepare step -> ExecuteStage -> Settle; the
  // server-path entry points above are built from the same parts.
  struct Envelope;

  template <class Stmt, class PrepareFn, class ExecFn>
  auto RunEnforced(const char* action, const std::string& sql,
                   const std::string& purpose, const std::string& user,
                   PrepareFn&& prepare, ExecFn&& exec);

  Status Admit(Envelope& env) const;
  template <class Fn>
  auto ExecuteStage(Envelope& env, Fn&& fn);
  void Settle(Envelope& env, const Status& status, uint64_t rows);

  /// Appends one audit row; best effort (audit failures do not mask the
  /// query's own status).
  void AppendAudit(const std::string& user, const std::string& purpose,
                   const std::string& sql, const char* outcome,
                   uint64_t checks, int64_t rows);

  engine::Database* db_;
  AccessControlCatalog* catalog_;
  // Declared before rewriter_: the constructor attaches a pointer to it.
  StaticVerdictPass static_pass_;
  QueryRewriter rewriter_;
  engine::Executor executor_;
  // Monitor-wide parallelism default (serial unless SetParallelism).
  engine::ParallelSpec parallel_;
  // Observability surface. The registry owns the metric storage; the raw
  // pointers below are cached lookups, stable for the registry's lifetime.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::TraceStore> traces_;
  std::shared_ptr<obs::ProfileStore> profiles_;
  obs::DecisionLedger ledger_;
  obs::Counter* check_counter_;
  obs::Counter* ok_counter_;
  obs::Counter* denied_counter_;
  obs::Counter* error_counter_;
  obs::Histogram* parse_hist_;
  obs::Histogram* rewrite_hist_;
  obs::Histogram* execute_hist_;
  const RoleManager* roles_ = nullptr;
  bool audit_enabled_ = false;
  // Sequence numbering and table appends form one critical section so that
  // concurrent workers never interleave seq allocation with row insertion.
  std::mutex audit_mutex_;
  uint64_t audit_seq_ = 0;
  // Sharded staging for epoch mode; the atomic raw pointer is the hot-path
  // routing check (AppendAudit), the unique_ptr the owner.
  std::unique_ptr<AuditBuffer> audit_buffer_owned_;
  std::atomic<AuditBuffer*> audit_buffer_{nullptr};
};

}  // namespace aapac::core

#endif  // AAPAC_CORE_MONITOR_H_
