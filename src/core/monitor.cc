#include "core/monitor.h"

#include <cstdlib>
#include <optional>

#include "core/compliance.h"
#include "core/complexity.h"
#include "core/policy_manager.h"
#include "core/rbac.h"
#include "core/signature_builder.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/env.h"

namespace aapac::core {

using engine::Value;
using engine::ValueType;

// Statement check accounting rides on engine::CheckTally, a per-thread
// counter the complies_with UDF bumps: a before/after delta on the calling
// thread isolates one statement's checks even while other workers run
// concurrently, and the engine's morsel driver folds pool-thread deltas
// back into the calling thread so the delta stays exact under intra-query
// parallelism. The enforce.compliance_checks registry counter is fed that
// per-statement delta once at statement close — one atomic add per
// statement instead of one per scanned tuple.

EnforcementMonitor::EnforcementMonitor(engine::Database* db,
                                       AccessControlCatalog* catalog)
    : db_(db),
      catalog_(catalog),
      static_pass_(catalog),
      rewriter_(catalog),
      executor_(db),
      metrics_(std::make_shared<obs::MetricsRegistry>()),
      traces_(std::make_shared<obs::TraceStore>()),
      profiles_(std::make_shared<obs::ProfileStore>()),
      check_counter_(metrics_->counter("enforce.compliance_checks")),
      ok_counter_(metrics_->counter("enforce.ok")),
      denied_counter_(metrics_->counter("enforce.denied")),
      error_counter_(metrics_->counter("enforce.error")),
      parse_hist_(metrics_->histogram(obs::kStageParse)),
      rewrite_hist_(metrics_->histogram(obs::kStageRewrite)),
      execute_hist_(metrics_->histogram(obs::kStageExecute)) {
  rewriter_.BindMetrics(metrics_.get());
  rewriter_.AttachStaticVerdict(&static_pass_);
  // Executor counters join the registry surface as external views; the
  // executor is a member, so they are unregistered in the destructor before
  // any shared registry holder could read freed storage.
  const engine::ExecStats& es = executor_.stats();
  metrics_->RegisterExternalCounter("engine.rows_scanned", &es.rows_scanned);
  metrics_->RegisterExternalCounter("engine.rows_materialized",
                                    &es.rows_materialized);
  metrics_->RegisterExternalCounter("engine.groups_built", &es.groups_built);
  metrics_->RegisterExternalCounter("engine.rows_output", &es.rows_output);
  metrics_->RegisterExternalCounter("engine.statements", &es.statements);
  // Secondary-index access-path counters (engine/index.h): probes served,
  // rows the index let the scan skip entirely, and candidates settled inside
  // all-denied zone blocks without materialization.
  metrics_->RegisterExternalCounter(obs::kIndexProbes, &es.index_probes);
  metrics_->RegisterExternalCounter(obs::kIndexRowsPruned,
                                    &es.index_rows_pruned);
  metrics_->RegisterExternalCounter(obs::kIndexDeniedSkipped,
                                    &es.index_denied_skipped);
  // The decision ledger's running totals join the same surface so
  // metrics_diff can gate on them; `sum(ledger checks) == ledger_checks ==
  // (checks of ledger-recorded statements)` is the reconciliation handle.
  metrics_->RegisterExternalCounter("enforce.ledger_entries",
                                    ledger_.entries_counter());
  metrics_->RegisterExternalCounter("enforce.ledger_checks",
                                    ledger_.checks_counter());
  metrics_->RegisterExternalCounter("enforce.ledger_statements",
                                    ledger_.statements_counter());
  // The UDF keeps the registry alive through its capture: a database that
  // outlives the monitor must not invoke a dangling counter.
  auto registry = metrics_;
  engine::ScalarFunction complies{
      QueryRewriter::kCompliesWithFunction, 2,
      [registry](const std::vector<Value>& args) -> Result<Value> {
        engine::CheckTally::Bump();
        // A tuple without a policy complies with nothing: deny by default.
        if (args[1].is_null()) return Value::Bool(false);
        if (args[0].type() != ValueType::kBytes ||
            args[1].type() != ValueType::kBytes) {
          return Status::ExecutionError(
              "complies_with expects two bit-string arguments");
        }
        return Value::Bool(CompliesWithPacked(args[0].AsBytes(),
                                              args[1].AsBytes()));
      }};
  // Verdict memoization (engine/policy_dict.h): the executor may replay a
  // cached verdict per interned policy id instead of re-invoking the UDF.
  // A hit still bumps CheckTally — it IS a logical compliance check — so
  // Fig. 6 counts and the audit `checks` column are identical with the
  // dictionary on and off; the callbacks additionally publish the memo's
  // own hit/miss counters and fill-time histogram. They may run on morsel
  // worker threads: everything touched is atomic or thread-local.
  complies.memoize_verdicts = true;
  obs::Counter* memo_hits = metrics_->counter(obs::kVerdictMemoHits);
  obs::Counter* memo_misses = metrics_->counter(obs::kVerdictMemoMisses);
  obs::Histogram* fill_hist = metrics_->histogram(obs::kVerdictFill);
  complies.on_memo_hit = [registry, memo_hits] {
    engine::CheckTally::Bump();
    memo_hits->Add(1);
    obs::ProfileTally::MemoHit();
  };
  complies.on_memo_fill = [registry, memo_misses, fill_hist](uint64_t ns) {
    memo_misses->Add(1);
    fill_hist->Record(ns);
    obs::ProfileTally::MemoMiss();
  };
  // Zone-map block settlement (engine/zone_map.h): when a scan decides a
  // whole block against the verdict tables, the per-tuple checks it settles
  // in bulk are folded into CheckTally here — same ownership as on_memo_hit
  // — and counted as memo hits so hits + misses still partitions the total
  // check count regardless of representation.
  obs::Counter* blocks_skipped = metrics_->counter(obs::kZoneBlocksSkipped);
  obs::Counter* blocks_bulk = metrics_->counter(obs::kZoneBlocksBulkAccepted);
  obs::Counter* blocks_mixed = metrics_->counter(obs::kZoneBlocksMixed);
  obs::Histogram* zone_resolve = metrics_->histogram(obs::kZoneResolve);
  complies.on_zone_checks = [registry, memo_hits](uint64_t n) {
    engine::CheckTally::Add(n);
    memo_hits->Add(n);
    obs::ProfileTally::ZoneChecks(n);
  };
  complies.on_zone_block = [registry, blocks_skipped, blocks_bulk,
                            blocks_mixed](int outcome) {
    switch (outcome) {
      case 0:
        blocks_skipped->Add(1);
        break;
      case 1:
        blocks_bulk->Add(1);
        break;
      default:
        blocks_mixed->Add(1);
        break;
    }
    obs::ProfileTally::ZoneBlock(outcome);
  };
  complies.on_zone_resolve = [registry, zone_resolve](uint64_t ns) {
    zone_resolve->Record(ns);
  };
  // Static-verdict settlement (core/static_verdict.h): a bind-time uniform
  // verdict answers per-tuple checks without touching the policy column.
  // Each settled check still counts — same contract as on_zone_checks — and
  // is folded into memo hits so hits + misses keeps partitioning the total.
  obs::Counter* static_checks = metrics_->counter(obs::kStaticChecks);
  complies.on_static_checks = [registry, memo_hits,
                               static_checks](uint64_t n) {
    engine::CheckTally::Add(n);
    memo_hits->Add(n);
    static_checks->Add(n);
    obs::ProfileTally::StaticChecks(n);
  };
  db_->functions().Register(std::move(complies));
  // Kill switch: force the per-tuple path for every scan (ablations, the
  // differential harness, and emergency rollback if a zone decision were
  // ever suspected of diverging from the direct path).
  if (util::EnvFlagSet("AAPAC_ZONEMAP_OFF")) {
    executor_.set_zone_map_enabled(false);
  }
  // Same shape of kill switch for the vectorized executor: force the
  // row-at-a-time path for every filter pass.
  if (util::EnvFlagSet("AAPAC_VECTOR_OFF")) {
    executor_.set_vector_enabled(false);
  }
  // Same for the secondary-index access path: force every sargable scan
  // through the full scan machinery.
  if (util::EnvFlagSet("AAPAC_INDEX_OFF")) {
    executor_.set_index_scans_enabled(false);
  }
  // And for the StaticVerdict pass: stop marking fresh conjuncts AND stop
  // honouring marks on cached ASTs (both sides, so the switch is airtight
  // across the server's rewrite cache).
  if (util::EnvFlagSet("AAPAC_STATIC_OFF")) {
    SetStaticVerdictEnabled(false);
  }
  // Publish the vectorized executor's enforce.batches_* / vec.* metrics
  // into the monitor's registry.
  executor_.set_metrics(metrics_.get());
  // Validate the numeric tuning knobs now, at startup, rather than at first
  // use deep inside a query: a malformed AAPAC_BATCH_ROWS or
  // AAPAC_ZONEMAP_BLOCK aborts with a clear message naming the variable.
  engine::vec::DefaultBatchRows();
  engine::PolicyZoneMap::DefaultBlockRows();
}

EnforcementMonitor::~EnforcementMonitor() {
  metrics_->UnregisterExternalCounter("engine.rows_scanned");
  metrics_->UnregisterExternalCounter("engine.rows_materialized");
  metrics_->UnregisterExternalCounter("engine.groups_built");
  metrics_->UnregisterExternalCounter("engine.rows_output");
  metrics_->UnregisterExternalCounter("engine.statements");
  metrics_->UnregisterExternalCounter(obs::kIndexProbes);
  metrics_->UnregisterExternalCounter(obs::kIndexRowsPruned);
  metrics_->UnregisterExternalCounter(obs::kIndexDeniedSkipped);
  metrics_->UnregisterExternalCounter("enforce.ledger_entries");
  metrics_->UnregisterExternalCounter("enforce.ledger_checks");
  metrics_->UnregisterExternalCounter("enforce.ledger_statements");
}

Status EnforcementMonitor::EnableAuditLog() {
  if (audit_enabled_) return Status::OK();
  if (db_->FindTable(kAuditTable) == nullptr) {
    engine::Schema schema;
    AAPAC_RETURN_NOT_OK(
        schema.AddColumn({"seq", ValueType::kInt64}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"ui", ValueType::kString}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"ap", ValueType::kString}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"qy", ValueType::kString}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"outcome", ValueType::kString}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"checks", ValueType::kInt64}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"rows", ValueType::kInt64}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"trace", ValueType::kInt64}));
    AAPAC_RETURN_NOT_OK(schema.AddColumn({"profile", ValueType::kInt64}));
    AAPAC_RETURN_NOT_OK(db_->CreateTable(kAuditTable, schema).status());
  }
  audit_enabled_ = true;
  return Status::OK();
}

void EnforcementMonitor::EnableAuditBuffering(size_t shards) {
  std::lock_guard<std::mutex> lock(audit_mutex_);
  if (audit_buffer_owned_ != nullptr) return;
  // Seed from the direct path's counter so the first buffered record
  // continues the existing numbering without a gap.
  audit_buffer_owned_ = std::make_unique<AuditBuffer>(shards, audit_seq_);
  audit_buffer_.store(audit_buffer_owned_.get(), std::memory_order_release);
}

void EnforcementMonitor::DisableAuditBuffering() {
  std::lock_guard<std::mutex> lock(audit_mutex_);
  if (audit_buffer_owned_ == nullptr) return;
  audit_seq_ = audit_buffer_owned_->last_seq();
  audit_buffer_.store(nullptr, std::memory_order_release);
  audit_buffer_owned_.reset();
}

void EnforcementMonitor::AppendAudit(const std::string& user,
                                     const std::string& purpose,
                                     const std::string& sql,
                                     const char* outcome, uint64_t checks,
                                     int64_t rows) {
  if (!audit_enabled_) return;
  engine::Table* t = db_->FindTable(kAuditTable);
  if (t == nullptr) return;
  // The calling thread's open trace and profile (0 when the respective
  // collection is off) make the audit row joinable back to its timing
  // breakdown and operator tree.
  const int64_t trace_id =
      static_cast<int64_t>(obs::TraceStore::CurrentId());
  const int64_t profile_id =
      static_cast<int64_t>(obs::ProfileStore::CurrentId());
  // Epoch mode: stage the record in the sharded buffer — no table write, so
  // pinned readers can append freely; the server folds under its writer
  // mutex (fold ordering argument in core/audit_buffer.h).
  if (AuditBuffer* buf = audit_buffer_.load(std::memory_order_acquire)) {
    AuditBuffer::Record r;
    r.user = user;
    r.purpose = purpose;
    r.sql = sql;
    r.outcome = outcome;
    r.checks = checks;
    r.rows = rows;
    r.trace_id = trace_id;
    r.profile_id = profile_id;
    buf->Append(std::move(r));
    return;
  }
  // Allocate the sequence number and append under one lock so concurrent
  // workers produce gap-free, duplicate-free, insertion-ordered sequences.
  std::lock_guard<std::mutex> lock(audit_mutex_);
  (void)t->Insert({Value::Int(static_cast<int64_t>(++audit_seq_)),
                   Value::String(user), Value::String(purpose),
                   Value::String(sql), Value::String(outcome),
                   Value::Int(static_cast<int64_t>(checks)),
                   Value::Int(rows), Value::Int(trace_id),
                   Value::Int(profile_id)});
}

namespace {

/// Ledger table (and purpose) of a statement the envelope could not
/// attribute: it failed before its prepare step completed, or its purpose
/// did not resolve.
const std::string kNone = "-";

/// Ledger attribution dimension: the statement's primary table — the
/// left-most base table a SELECT reads (descending through joins and
/// derived tables), or the DML target.
const std::string& PrimaryTableOf(const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable:
      return static_cast<const sql::BaseTableRef&>(ref).table_name;
    case sql::TableRef::Kind::kSubquery: {
      const auto& sub = static_cast<const sql::SubqueryTableRef&>(ref);
      if (sub.subquery == nullptr || sub.subquery->from.empty()) return kNone;
      return PrimaryTableOf(*sub.subquery->from[0]);
    }
    case sql::TableRef::Kind::kJoin:
      return PrimaryTableOf(*static_cast<const sql::JoinRef&>(ref).left);
  }
  return kNone;
}

const std::string& PrimaryTable(const sql::SelectStmt& stmt) {
  return stmt.from.empty() ? kNone : PrimaryTableOf(*stmt.from[0]);
}
template <class Dml>
const std::string& PrimaryTable(const Dml& stmt) {
  return stmt.table;
}

uint64_t RowCount(const engine::ResultSet& rs) { return rs.rows.size(); }
uint64_t RowCount(size_t affected) { return affected; }

}  // namespace

/// One statement's passage through the envelope: who issued what, how far
/// it got and what it cost — everything Settle needs to close it out.
struct EnforcementMonitor::Envelope {
  /// Marks the failure as a denial rather than an error.
  Status Deny(Status status) {
    denied = true;
    return status;
  }

  const char* action;  // Ledger action: "select", "insert", ... "access".
  const std::string& sql;
  const std::string& purpose;  // As supplied; audited as-is if unresolved.
  const std::string& user;
  std::string purpose_id{};            // Empty until Admit resolves it.
  const std::string* table = &kNone;   // Set once the statement is prepared.
  bool denied = false;
  uint64_t checks = 0;
  obs::EnforceTally tally{};
  // Opened by ExecuteStage, closed after Settle so the audit row captures
  // the profile's id.
  std::optional<obs::ScopedProfile> profile{};
};

Status EnforcementMonitor::Admit(Envelope& env) const {
  AAPAC_ASSIGN_OR_RETURN(env.purpose_id,
                         catalog_->purposes().Resolve(env.purpose));
  if (env.user.empty() ||
      catalog_->IsUserAuthorized(env.user, env.purpose_id) ||
      (roles_ != nullptr &&
       roles_->IsAuthorizedViaRoles(env.user, env.purpose_id))) {
    return Status::OK();
  }
  return env.Deny(Status::PermissionDenied(
      "user '" + env.user + "' holds no authorization for purpose '" +
      env.purpose_id + "'"));
}

template <class Fn>
auto EnforcementMonitor::ExecuteStage(Envelope& env, Fn&& fn) {
  env.profile.emplace(profiles_.get(), env.sql, env.purpose_id, env.user);
  const uint64_t checks_before = engine::CheckTally::Current();
  const obs::EnforceTally tally_before = obs::ProfileTally::Snapshot();
  auto result = [&] {
    obs::ScopedStageTimer timer(execute_hist_, obs::kStageExecute);
    return fn();
  }();
  env.checks = engine::CheckTally::Current() - checks_before;
  env.tally = obs::ProfileTally::DeltaSince(tally_before);
  return result;
}

void EnforcementMonitor::Settle(Envelope& env, const Status& status,
                                uint64_t rows) {
  const char* outcome = status.ok() ? "ok" : env.denied ? "denied" : "error";
  (status.ok() ? ok_counter_ : env.denied ? denied_counter_ : error_counter_)
      ->Add(1);
  if (env.checks != 0) check_counter_->Add(env.checks);
  obs::TraceStore::AddChecks(env.checks);
  obs::TraceStore::SetOutcome(outcome);
  if (!status.ok()) obs::TraceStore::SetDenyReason(status.message());
  obs::ProfileStore::SetTotals(env.checks, rows);
  // An unresolved purpose is audited verbatim but keyed "-" in the ledger:
  // caller-supplied text must not grow the ledger or its label set.
  const bool resolved = !env.purpose_id.empty();
  ledger_.Record(*env.table, resolved ? env.purpose_id : kNone, env.action,
                 outcome, rows, env.checks, env.tally);
  AppendAudit(env.user, resolved ? env.purpose_id : env.purpose, env.sql,
              outcome, env.checks, static_cast<int64_t>(rows));
}

template <class Stmt, class PrepareFn, class ExecFn>
auto EnforcementMonitor::RunEnforced(const char* action,
                                     const std::string& sql,
                                     const std::string& purpose,
                                     const std::string& user,
                                     PrepareFn&& prepare, ExecFn&& exec) {
  obs::ScopedTrace trace(traces_.get(), sql, purpose, user);
  Envelope env{action, sql, purpose, user};
  std::unique_ptr<Stmt> stmt;  // Outlives Settle: env.table points into it.
  auto result = [&]() -> decltype(exec(*stmt)) {
    AAPAC_RETURN_NOT_OK(Admit(env));
    AAPAC_ASSIGN_OR_RETURN(stmt, prepare(env));
    env.table = &PrimaryTable(*stmt);
    return ExecuteStage(env, [&] { return exec(*stmt); });
  }();
  Settle(env, result.status(), result.ok() ? RowCount(*result) : 0);
  return result;
}

Result<std::string> EnforcementMonitor::CheckAccess(
    const std::string& purpose, const std::string& user,
    const std::string& sql_for_audit) {
  Envelope env{sql_for_audit.empty() ? "access" : "select", sql_for_audit,
               purpose, user};
  const Status admitted = Admit(env);
  if (!admitted.ok()) {
    Settle(env, admitted, 0);
    return admitted;
  }
  return std::move(env.purpose_id);
}

Result<std::unique_ptr<sql::SelectStmt>> EnforcementMonitor::Prepare(
    const std::string& sql, const std::string& purpose_id) const {
  Result<std::unique_ptr<sql::SelectStmt>> parsed = [&] {
    obs::ScopedStageTimer timer(parse_hist_, obs::kStageParse);
    return sql::ParseSelect(sql);
  }();
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         std::move(parsed));
  {
    obs::ScopedStageTimer timer(rewrite_hist_, obs::kStageRewrite);
    AAPAC_RETURN_NOT_OK(rewriter_.Rewrite(stmt.get(), purpose_id));
  }
  return stmt;
}

Status EnforcementMonitor::SettlePrepareFailure(const Status& status,
                                                const std::string& sql,
                                                const std::string& purpose_id,
                                                const std::string& user) {
  Envelope env{"select", sql, purpose_id, user, purpose_id};
  Settle(env, status, 0);
  return status;
}

Result<engine::ResultSet> EnforcementMonitor::ExecutePrepared(
    const sql::SelectStmt& stmt, const std::string& sql,
    const std::string& purpose_id, const std::string& user) {
  return ExecutePrepared(stmt, sql, purpose_id, user, parallel_);
}

Result<engine::ResultSet> EnforcementMonitor::ExecutePrepared(
    const sql::SelectStmt& stmt, const std::string& sql,
    const std::string& purpose_id, const std::string& user,
    const engine::ParallelSpec& parallel) {
  Envelope env{"select", sql, purpose_id, user, purpose_id};
  env.table = &PrimaryTable(stmt);
  Result<engine::ResultSet> result =
      ExecuteStage(env, [&] { return executor_.Execute(stmt, parallel); });
  Settle(env, result.status(), result.ok() ? RowCount(*result) : 0);
  return result;
}

Result<engine::ResultSet> EnforcementMonitor::ExecuteQuery(
    const std::string& sql, const std::string& purpose,
    const std::string& user) {
  return RunEnforced<sql::SelectStmt>(
      "select", sql, purpose, user,
      [&](Envelope& env) { return Prepare(sql, env.purpose_id); },
      [&](const sql::SelectStmt& stmt) {
        return executor_.Execute(stmt, parallel_);
      });
}

Result<engine::ResultSet> EnforcementMonitor::ExecuteUnrestricted(
    const std::string& sql) {
  // Unrestricted statements normally invoke no checks, but SQL that calls
  // complies_with explicitly (e.g. replayed rewritten text through the
  // shell) still counts toward the Fig. 6 surface.
  const uint64_t checks_before = engine::CheckTally::Current();
  const obs::EnforceTally tally_before = obs::ProfileTally::Snapshot();
  Result<engine::ResultSet> result = executor_.ExecuteSql(sql);
  const uint64_t checks = engine::CheckTally::Current() - checks_before;
  if (checks != 0) {
    check_counter_->Add(checks);
    // Empty outcome: the run is not an enforcement decision, but its checks
    // must stay reconcilable with enforce.compliance_checks.
    ledger_.Record("*", "(unrestricted)", "select", "", 0, checks,
                   obs::ProfileTally::DeltaSince(tally_before));
  }
  return result;
}

void EnforcementMonitor::SetParallelism(util::TaskPool* pool,
                                        size_t max_threads,
                                        size_t morsel_rows) {
  parallel_ = engine::ParallelSpec{};
  parallel_.pool = pool;
  parallel_.max_threads = max_threads;
  if (morsel_rows > 0) parallel_.morsel_rows = morsel_rows;
  parallel_.metrics = metrics_.get();
}

namespace {

/// The "why denied" half of \explain: for every protected table referenced
/// by the signature tree, evaluate each action-signature mask against each
/// distinct policy mask stored in the table, and on denial name exactly
/// which signature bits every policy rule fails to cover.
void AnalyzeCompliance(const AccessControlCatalog& catalog,
                       engine::Database* db, const QuerySignature& qs,
                       std::string* out) {
  for (const TableSignature& ts : qs.tables) {
    if (!catalog.IsProtected(ts.table)) continue;
    auto layout = catalog.LayoutFor(ts.table);
    if (!layout.ok()) continue;
    const engine::Table* table = db->FindTable(ts.table);
    std::optional<size_t> policy_col =
        table == nullptr
            ? std::nullopt
            : table->schema().FindColumn(AccessControlCatalog::kPolicyColumn);

    // Distinct stored policy masks, with tuple counts, in first-seen order.
    std::vector<std::pair<BitString, size_t>> masks;
    size_t unpolicied = 0;
    if (table != nullptr && policy_col.has_value()) {
      for (const engine::Row& row : table->rows()) {
        const engine::Value& v = row[*policy_col];
        if (v.is_null() || v.type() != engine::ValueType::kBytes) {
          ++unpolicied;
          continue;
        }
        auto mask = BitString::FromBytes(v.AsBytes());
        if (!mask.ok()) {
          ++unpolicied;
          continue;
        }
        bool found = false;
        for (auto& [existing, count] : masks) {
          if (existing == *mask) {
            ++count;
            found = true;
            break;
          }
        }
        if (!found) masks.emplace_back(std::move(*mask), 1);
      }
    }

    *out += "table " + ts.table + ": " + std::to_string(masks.size()) +
            " distinct policy mask(s)";
    if (unpolicied > 0) {
      *out += ", " + std::to_string(unpolicied) +
              " tuple(s) without a policy (always denied)";
    }
    *out += "\n";
    for (const ActionSignature& as : ts.actions) {
      auto sig_mask = layout->EncodeActionSignature(as, qs.purpose);
      if (!sig_mask.ok()) continue;
      *out += "  signature " + as.ToString() + "\n";
      for (size_t mi = 0; mi < masks.size(); ++mi) {
        const auto& [policy_mask, count] = masks[mi];
        const ComplianceExplanation ex =
            ExplainCompliesWith(*sig_mask, policy_mask);
        *out += "    policy mask #" + std::to_string(mi + 1) + " (" +
                std::to_string(count) + " tuple(s)): ";
        if (ex.complies) {
          *out += "complies via rule " + std::to_string(ex.accepting_rule) +
                  "\n";
          continue;
        }
        if (ex.length_mismatch) {
          *out += "DENIED (policy mask length " +
                  std::to_string(policy_mask.size()) +
                  " is not a multiple of the signature mask length " +
                  std::to_string(sig_mask->size()) + ")\n";
          continue;
        }
        *out += "DENIED\n";
        for (const RuleDenial& rd : ex.rules) {
          *out += "      rule " + std::to_string(rd.rule_index) + " misses:";
          for (size_t bi = 0; bi < rd.missing_bits.size(); ++bi) {
            const size_t bit = rd.missing_bits[bi];
            *out += (bi == 0 ? " " : ", ") + layout->DescribeBit(bit) +
                    " [bit " + std::to_string(bit) + ", " +
                    layout->ComponentOf(bit) + "]";
          }
          *out += "\n";
        }
      }
    }
  }
  for (const auto& sub : qs.subqueries) {
    AnalyzeCompliance(catalog, db, *sub, out);
  }
}

void DescribeSignature(const AccessControlCatalog& catalog,
                       const QuerySignature& qs, int depth,
                       std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out += indent + "query " + qs.id + " purpose=" + qs.purpose + "\n";
  for (const TableSignature& ts : qs.tables) {
    *out += indent + "  table " + ts.table;
    if (ts.binding != ts.table) *out += " as " + ts.binding;
    if (!catalog.IsProtected(ts.table)) *out += " (unprotected)";
    *out += "\n";
    auto layout = catalog.LayoutFor(ts.table);
    for (const ActionSignature& as : ts.actions) {
      *out += indent + "    " + as.ToString();
      if (layout.ok() && catalog.IsProtected(ts.table)) {
        auto mask = layout->EncodeActionSignature(as, qs.purpose);
        if (mask.ok()) *out += "  mask=b'" + mask->ToBinary() + "'";
      }
      *out += "\n";
    }
  }
  for (const auto& sub : qs.subqueries) {
    DescribeSignature(catalog, *sub, depth + 1, out);
  }
}

// One line per (protected table, action-signature mask) of the query: the
// StaticVerdict decision class and why — dictionary sweep tallies, untracked
// blocks, or the missing dictionary that forced mixed. Uses the same pass
// (and decision cache) enforcement itself consults, so \explain reports the
// decision the next execution will actually take.
void DescribeStaticVerdicts(const AccessControlCatalog& catalog,
                            const StaticVerdictPass& pass,
                            const QuerySignature& qs, std::string* out) {
  for (const TableSignature& ts : qs.tables) {
    if (!catalog.IsProtected(ts.table)) continue;
    auto layout = catalog.LayoutFor(ts.table);
    if (!layout.ok()) continue;
    for (const ActionSignature& as : ts.actions) {
      auto mask = layout->EncodeActionSignature(as, qs.purpose);
      if (!mask.ok()) continue;
      const StaticVerdictPass::Decision d =
          pass.Classify(ts.table, mask->ToBytes());
      *out += "  " + ts.table + " " + as.ToString() + ": ";
      switch (d.cls) {
        case 1:
          *out += "all-allow (conjunct settles constant-true";
          break;
        case 2:
          *out += "all-deny (conjunct settles constant-false";
          break;
        default:
          *out += "mixed (per-tuple memo/zone path";
          break;
      }
      if (!d.has_dict) {
        *out += "; no policy dictionary)";
      } else if (d.untracked_blocks > 0) {
        *out += "; " + std::to_string(d.untracked_blocks) +
                " untracked block(s))";
      } else {
        *out += "; dictionary " + std::to_string(d.allowed) + " allow / " +
                std::to_string(d.denied) + " deny of " +
                std::to_string(d.dict_size) + ")";
      }
      *out += "\n";
    }
  }
  for (const auto& sub : qs.subqueries) {
    DescribeStaticVerdicts(catalog, pass, *sub, out);
  }
}

}  // namespace

Result<std::string> EnforcementMonitor::ExplainQuery(
    const std::string& sql, const std::string& purpose) const {
  AAPAC_ASSIGN_OR_RETURN(std::string purpose_id,
                         catalog_->purposes().Resolve(purpose));
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql));
  SignatureBuilder builder(catalog_);
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<QuerySignature> qs,
                         builder.Derive(*stmt, purpose_id, sql));
  AAPAC_ASSIGN_OR_RETURN(ComplexityEstimate estimate,
                         ComplexityUpperBound(*catalog_, *stmt, purpose_id));
  AAPAC_RETURN_NOT_OK(rewriter_.Rewrite(stmt.get(), purpose_id));

  std::string out = "== query signature ==\n";
  DescribeSignature(*catalog_, *qs, 0, &out);
  out += "== complexity upper bound (Eq. 1) ==\n";
  out += std::to_string(estimate.upper_bound) + " checks";
  for (const TableComplexity& term : estimate.terms) {
    out += "\n  " + term.table + ": " + std::to_string(term.tuples) +
           " tuples x " + std::to_string(term.action_signatures) +
           " signatures";
  }
  out += "\n== rewritten query ==\n";
  out += sql::ToSql(*stmt);
  out += "\n== static verdict ==\n";
  if (!rewriter_.static_verdict_enabled()) {
    out += "disabled (AAPAC_STATIC_OFF / SetStaticVerdictEnabled)\n";
  } else {
    DescribeStaticVerdicts(*catalog_, static_pass_, *qs, &out);
  }
  out += "== compliance analysis ==\n";
  AnalyzeCompliance(*catalog_, db_, *qs, &out);
  return out;
}

Result<size_t> EnforcementMonitor::ExecuteInsert(const std::string& sql,
                                                 const std::string& purpose,
                                                 const Policy* policy,
                                                 const std::string& user) {
  std::optional<std::pair<std::string, Value>> forced;
  auto prepare = [&](Envelope& env)
      -> Result<std::unique_ptr<sql::InsertStmt>> {
    AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::InsertStmt> stmt,
                           sql::ParseInsert(sql));
    if (catalog_->IsProtected(stmt->table)) {
      if (policy == nullptr) {
        return env.Deny(Status::PermissionDenied(
            "inserts into protected table '" + stmt->table +
            "' must carry a policy"));
      }
      if (policy->table != stmt->table) {
        return Status::InvalidArgument("policy targets table '" +
                                       policy->table + "', INSERT targets '" +
                                       stmt->table + "'");
      }
      PolicyManager validator(catalog_);
      AAPAC_RETURN_NOT_OK(validator.ValidatePolicy(*policy));
      AAPAC_ASSIGN_OR_RETURN(MaskLayout layout,
                             catalog_->LayoutFor(stmt->table));
      AAPAC_ASSIGN_OR_RETURN(BitString mask, layout.EncodePolicy(*policy));
      forced = std::make_pair(std::string(AccessControlCatalog::kPolicyColumn),
                              Value::Bytes(mask.ToBytes()));
    }
    // INSERT ... SELECT reads are themselves subject to enforcement.
    if (stmt->select != nullptr) {
      AAPAC_RETURN_NOT_OK(
          rewriter_.Rewrite(stmt->select.get(), env.purpose_id));
    }
    return stmt;
  };
  return RunEnforced<sql::InsertStmt>(
      "insert", sql, purpose, user, prepare,
      [&](const sql::InsertStmt& stmt) {
        return executor_.ExecuteInsert(stmt, forced);
      });
}

Result<size_t> EnforcementMonitor::ExecuteUpdate(const std::string& sql,
                                                 const std::string& purpose,
                                                 const std::string& user) {
  auto prepare = [&](Envelope& env)
      -> Result<std::unique_ptr<sql::UpdateStmt>> {
    AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::UpdateStmt> stmt,
                           sql::ParseUpdate(sql));
    for (const auto& assignment : stmt->assignments) {
      if (assignment.column == AccessControlCatalog::kPolicyColumn &&
          catalog_->IsProtected(stmt->table)) {
        return env.Deny(Status::PermissionDenied(
            "the policy column can only be changed through the policy "
            "manager"));
      }
    }
    // Enforcement piggybacks on the SELECT pipeline: build the equivalent
    // read — every RHS expression and every assigned column, filtered by
    // the UPDATE's WHERE — rewrite it, and transplant the rewritten WHERE
    // (and RHS expressions, whose sub-queries are now enforced) back.
    auto synthetic = std::make_unique<sql::SelectStmt>();
    for (const auto& assignment : stmt->assignments) {
      sql::SelectItem item;
      item.expr = assignment.value->Clone();
      synthetic->items.push_back(std::move(item));
    }
    for (const auto& assignment : stmt->assignments) {
      sql::SelectItem item;
      item.expr = std::make_unique<sql::ColumnRefExpr>("", assignment.column);
      synthetic->items.push_back(std::move(item));
    }
    synthetic->from.push_back(
        std::make_unique<sql::BaseTableRef>(stmt->table, ""));
    synthetic->where = stmt->where ? stmt->where->Clone() : nullptr;
    AAPAC_RETURN_NOT_OK(rewriter_.Rewrite(synthetic.get(), env.purpose_id));
    stmt->where = std::move(synthetic->where);
    for (size_t i = 0; i < stmt->assignments.size(); ++i) {
      stmt->assignments[i].value = std::move(synthetic->items[i].expr);
    }
    return stmt;
  };
  return RunEnforced<sql::UpdateStmt>(
      "update", sql, purpose, user, prepare,
      [&](const sql::UpdateStmt& stmt) {
        return executor_.ExecuteUpdate(stmt);
      });
}

Result<size_t> EnforcementMonitor::ExecuteDelete(const std::string& sql,
                                                 const std::string& purpose,
                                                 const std::string& user) {
  auto prepare = [&](Envelope& env)
      -> Result<std::unique_ptr<sql::DeleteStmt>> {
    AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::DeleteStmt> stmt,
                           sql::ParseDelete(sql));
    // SELECT-*-equivalent enforcement: rewrite `select * from t where w`,
    // then reuse its WHERE (the star expands to every non-policy column,
    // requiring full direct read access per deleted tuple).
    auto synthetic = std::make_unique<sql::SelectStmt>();
    sql::SelectItem star;
    star.expr = std::make_unique<sql::StarExpr>();
    synthetic->items.push_back(std::move(star));
    synthetic->from.push_back(
        std::make_unique<sql::BaseTableRef>(stmt->table, ""));
    synthetic->where = stmt->where ? stmt->where->Clone() : nullptr;
    AAPAC_RETURN_NOT_OK(rewriter_.Rewrite(synthetic.get(), env.purpose_id));
    stmt->where = std::move(synthetic->where);
    return stmt;
  };
  return RunEnforced<sql::DeleteStmt>(
      "delete", sql, purpose, user, prepare,
      [&](const sql::DeleteStmt& stmt) {
        return executor_.ExecuteDelete(stmt);
      });
}

}  // namespace aapac::core
