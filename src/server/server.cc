#include "server/server.h"

#include <algorithm>
#include <optional>

#include "sql/printer.h"
#include "util/env.h"

namespace aapac::server {

EnforcementServer::EnforcementServer(core::EnforcementMonitor* monitor,
                                     ServerOptions options)
    : monitor_(monitor),
      options_([&options] {
        ServerOptions o = options;
        if (o.threads == 0) o.threads = 1;
        if (o.query_threads == 0) o.query_threads = 1;
        if (o.morsel_rows == 0) o.morsel_rows = 2048;
        // AAPAC_EPOCH_OFF is a kill switch (never fatal, thrown by any
        // non-"0" non-empty value); the numeric knobs are validated at
        // startup and abort on malformed values like every other knob.
        o.epoch_mode = o.epoch_mode && !util::EnvFlagSet("AAPAC_EPOCH_OFF");
        o.audit_shards =
            util::EnvPositiveSizeOrDie("AAPAC_AUDIT_SHARDS", o.audit_shards);
        o.audit_fold_ms =
            util::EnvPositiveSizeOrDie("AAPAC_FOLD_MS", o.audit_fold_ms);
        o.session_shards = util::EnvPositiveSizeOrDie("AAPAC_SESSION_SHARDS",
                                                      o.session_shards);
        return o;
      }()),
      epoch_mode_(options_.epoch_mode),
      sessions_(options_.session_shards),
      cache_(options.cache_capacity),
      pool_(options_.threads),
      registry_(monitor->metrics().get()),
      queue_depth_gauge_(registry_->gauge("server.queue_depth")),
      lock_shared_(registry_->counter("server.lock_shared")),
      lock_exclusive_(registry_->counter("server.lock_exclusive")),
      audit_folds_(registry_->counter(obs::kAuditFolds)),
      audit_fold_rows_(registry_->counter(obs::kAuditFoldRows)),
      epoch_gauge_(registry_->gauge(obs::kServerEpochGauge)),
      queue_wait_hist_(registry_->histogram(obs::kStageQueueWait)),
      lock_wait_hist_(registry_->histogram(obs::kStageLockWait)),
      cache_lookup_hist_(registry_->histogram(obs::kStageCacheLookup)),
      epoch_pin_hist_(registry_->histogram(obs::kServerEpochPin)) {
  cache_.BindMetrics(registry_);
  registry_->RegisterExternalCounter("server.executed", &executed_);
  registry_->RegisterExternalCounter("server.rejected", &rejected_);
  if (epoch_mode_) {
    epochs_ = &util::EpochManager::Instance();
    // Publish the process-wide epoch totals eagerly so metrics dumps (and
    // the CI metrics_diff --require gate) carry the series even at 0.
    registry_->RegisterExternalCounter(obs::kServerEpochPublished,
                                       &epochs_->published_total());
    registry_->RegisterExternalCounter(obs::kServerEpochReclaimed,
                                       &epochs_->reclaimed_total());
    epoch_gauge_->Set(static_cast<int64_t>(epochs_->current_epoch()));
    // Wire the engine and monitor for snapshot concurrency: tables go
    // copy-on-write, audit appends stage in the sharded buffer.
    monitor_->catalog()->db()->EnableVersioning();
    monitor_->EnableAuditBuffering(options_.audit_shards);
    folder_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(folder_mu_);
      while (!folder_stop_) {
        folder_cv_.wait_for(lock,
                            std::chrono::milliseconds(options_.audit_fold_ms),
                            [this] { return folder_stop_; });
        if (folder_stop_) break;
        lock.unlock();
        FoldAudit();
        lock.lock();
      }
    });
  }
}

EnforcementServer::~EnforcementServer() {
  Shutdown();
  registry_->UnregisterExternalCounter("server.executed");
  registry_->UnregisterExternalCounter("server.rejected");
  // The epoch totals stay registered: their storage is the process-global
  // EpochManager, which outlives every registry, so metrics dumps taken
  // after the server is gone (bench exit paths) still carry the series.
  // A later server on the same registry re-registers the same pointers.
}

void EnforcementServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  // Stop the background folder before joining the pool: it only contends on
  // writer_mu_, so either order is deadlock-free, but a folder outliving
  // the epoch teardown below would fold into an unversioned table.
  if (folder_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(folder_mu_);
      folder_stop_ = true;
    }
    folder_cv_.notify_all();
    folder_.join();
  }
  // Drains the pool: every pending DrainOne closure still runs, so every
  // accepted Submit gets its promise fulfilled before the workers join.
  pool_.Shutdown();
  if (epoch_mode_ && !epoch_torn_down_) {
    epoch_torn_down_ = true;
    // Final fold: direct reads of audit_log after Shutdown (tests assert
    // dense sequences) must see every statement the server executed.
    {
      std::lock_guard<std::mutex> lock(writer_mu_);
      FoldAuditLocked();
    }
    monitor_->DisableAuditBuffering();
    // Hand the tables back to direct/unversioned use and free whatever the
    // (now reader-free, as far as this server goes) epoch clock allows.
    monitor_->catalog()->db()->DisableVersioning();
    epochs_->TryReclaim();
  }
}

Result<SessionId> EnforcementServer::OpenSession(const std::string& user,
                                                 const std::string& purpose,
                                                 const std::string& role) {
  // Epoch mode: the pin keeps WithExclusive's catalog mutations out of
  // CheckAccess (stop-the-world waits for pins); no lock taken.
  std::optional<util::EpochManager::Pin> pin;
  std::shared_lock<std::shared_mutex> lock(data_mu_, std::defer_lock);
  if (epoch_mode_) {
    pin.emplace(*epochs_);
  } else {
    lock.lock();
  }
  lock_shared_->Add(1);
  AAPAC_ASSIGN_OR_RETURN(std::string purpose_id,
                         monitor_->CheckAccess(purpose, user));
  return sessions_.Open(user, purpose_id, role);
}

Status EnforcementServer::CloseSession(SessionId id) {
  return sessions_.Close(id);
}

Result<std::future<Result<engine::ResultSet>>> EnforcementServer::Submit(
    SessionId session, const std::string& sql) {
  AAPAC_ASSIGN_OR_RETURN(SessionInfo info, sessions_.Get(session));
  Task task;
  task.session = std::move(info);
  task.sql = sql;
  std::future<Result<engine::ResultSet>> future = task.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return Status::Unavailable("server is shutting down");
    }
    if (queue_.size() >= options_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "submission queue full (" +
          std::to_string(options_.queue_capacity) +
          " pending); retry after in-flight queries drain");
    }
    task.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(task));
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
  }
  // One DrainOne per accepted task. Back of the pool queue: queued queries
  // yield to morsel helpers of queries already executing.
  if (!pool_.Submit([this] { DrainOne(); })) {
    // Shutdown raced in after the capacity check; take the task back so its
    // promise is not abandoned.
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!queue_.empty()) {
      queue_.pop_back();
      queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
    }
    return Status::Unavailable("server is shutting down");
  }
  return future;
}

Result<engine::ResultSet> EnforcementServer::Execute(SessionId session,
                                                     const std::string& sql) {
  AAPAC_ASSIGN_OR_RETURN(std::future<Result<engine::ResultSet>> future,
                         Submit(session, sql));
  return future.get();
}

void EnforcementServer::DrainOne() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return;  // Its task was reclaimed by a failed Submit.
    task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
  }
  uint64_t queue_wait_ns = 0;
  if (obs::kObsCompiledIn && obs::TimingEnabled()) {
    const auto waited = std::chrono::steady_clock::now() - task.enqueued;
    queue_wait_ns = static_cast<uint64_t>(std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
               .count()));
    queue_wait_hist_->Record(queue_wait_ns);
  }
  Result<engine::ResultSet> result =
      Process(task.session, task.sql, queue_wait_ns);
  // Count before fulfilling the promise: a client that has observed its
  // result must also observe the execution in executed_total().
  executed_.fetch_add(1, std::memory_order_relaxed);
  task.promise.set_value(std::move(result));
}

namespace {

bool ReadsTable(const sql::SelectStmt& stmt, const std::string& table);

bool ReadsTable(const sql::Expr& expr, const std::string& table) {
  using sql::Expr;
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kLiteral:
    case Expr::Kind::kStar:
      return false;
    case Expr::Kind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      return ReadsTable(*e.lhs, table) || ReadsTable(*e.rhs, table);
    }
    case Expr::Kind::kUnary:
      return ReadsTable(*static_cast<const sql::UnaryExpr&>(expr).operand,
                        table);
    case Expr::Kind::kFuncCall: {
      const auto& e = static_cast<const sql::FuncCallExpr&>(expr);
      for (const auto& arg : e.args) {
        if (ReadsTable(*arg, table)) return true;
      }
      return false;
    }
    case Expr::Kind::kIn: {
      const auto& e = static_cast<const sql::InExpr&>(expr);
      if (ReadsTable(*e.operand, table)) return true;
      if (e.subquery != nullptr && ReadsTable(*e.subquery, table)) return true;
      for (const auto& item : e.list) {
        if (ReadsTable(*item, table)) return true;
      }
      return false;
    }
    case Expr::Kind::kIsNull:
      return ReadsTable(*static_cast<const sql::IsNullExpr&>(expr).operand,
                        table);
    case Expr::Kind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      return ReadsTable(*e.operand, table) || ReadsTable(*e.lo, table) ||
             ReadsTable(*e.hi, table);
    }
    case Expr::Kind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      if (e.operand != nullptr && ReadsTable(*e.operand, table)) return true;
      for (const auto& when : e.whens) {
        if (ReadsTable(*when.condition, table)) return true;
        if (ReadsTable(*when.result, table)) return true;
      }
      return e.else_result != nullptr && ReadsTable(*e.else_result, table);
    }
    case Expr::Kind::kScalarSubquery:
      return ReadsTable(
          *static_cast<const sql::ScalarSubqueryExpr&>(expr).subquery, table);
  }
  return false;
}

bool ReadsTable(const sql::TableRef& ref, const std::string& table) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable:
      return static_cast<const sql::BaseTableRef&>(ref).table_name == table;
    case sql::TableRef::Kind::kSubquery:
      return ReadsTable(*static_cast<const sql::SubqueryTableRef&>(ref).subquery,
                        table);
    case sql::TableRef::Kind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      return ReadsTable(*join.left, table) || ReadsTable(*join.right, table) ||
             (join.on != nullptr && ReadsTable(*join.on, table));
    }
  }
  return false;
}

/// Whether the statement scans `table` anywhere — FROM items, join
/// conditions or any subquery position.
bool ReadsTable(const sql::SelectStmt& stmt, const std::string& table) {
  for (const auto& ref : stmt.from) {
    if (ReadsTable(*ref, table)) return true;
  }
  for (const auto& item : stmt.items) {
    if (ReadsTable(*item.expr, table)) return true;
  }
  if (stmt.where != nullptr && ReadsTable(*stmt.where, table)) return true;
  for (const auto& g : stmt.group_by) {
    if (ReadsTable(*g, table)) return true;
  }
  if (stmt.having != nullptr && ReadsTable(*stmt.having, table)) return true;
  for (const auto& o : stmt.order_by) {
    if (ReadsTable(*o.expr, table)) return true;
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<const RewriteCache::Entry>>
EnforcementServer::CheckAndPrepare(const SessionInfo& session,
                                   const std::string& sql) {
  // Caller provides read-side protection: an epoch pin with the statement's
  // TableSnapshot installed (epoch mode) or data_mu_ (fallback mode).

  // Re-check authorization so revocations bite mid-session.
  AAPAC_RETURN_NOT_OK(
      monitor_->CheckAccess(session.purpose_id, session.user, sql).status());

  // Capture the version *before* preparing: if a mutation slips in between,
  // the entry is stored with the older version and the next lookup refuses
  // it — stale rewrites are never served.
  core::AccessControlCatalog* catalog = monitor_->catalog();
  const uint64_t version = catalog->version();
  // Current intern version of every protected table, sorted by name. The
  // cached AST may carry bind-time static-verdict marks that are only sound
  // for the data state they were classified against, so any DML on a
  // protected table must demote the entry. Captured before Prepare for the
  // same never-serve-stale reason as the catalog version. No write can
  // interleave between this capture, the prepare and the statement's
  // execution: in fallback mode the caller holds data_mu_, and in epoch
  // mode all three read through the statement's pinned TableSnapshot — the
  // versions (and their tags) are frozen even if a writer publishes midway.
  std::vector<std::pair<std::string, uint64_t>> table_versions;
  for (const std::string& table : catalog->protected_tables()) {
    engine::Table* t = monitor_->catalog()->db()->FindTable(table);
    if (t != nullptr) table_versions.emplace_back(table, t->intern_version());
  }
  std::sort(table_versions.begin(), table_versions.end());
  const std::string normalized = RewriteCache::NormalizeSql(sql);
  std::shared_ptr<const RewriteCache::Entry> entry = [&] {
    obs::ScopedStageTimer timer(cache_lookup_hist_, obs::kStageCacheLookup);
    return cache_.Lookup(normalized, session.purpose_id, session.role,
                         version, &table_versions);
  }();
  if (entry == nullptr) {
    Result<std::unique_ptr<sql::SelectStmt>> stmt =
        monitor_->Prepare(sql, session.purpose_id);
    if (!stmt.ok()) {
      // Audited like ExecuteQuery's own prepare failure.
      return monitor_->SettlePrepareFailure(stmt.status(), sql,
                                            session.purpose_id, session.user);
    }
    auto fresh = std::make_shared<RewriteCache::Entry>();
    fresh->rewritten_sql = sql::ToSql(**stmt);
    fresh->stmt = std::move(*stmt);
    fresh->version = version;
    fresh->table_versions = std::move(table_versions);
    cache_.Insert(normalized, session.purpose_id, session.role, fresh);
    entry = std::move(fresh);
  }
  return entry;
}

Result<engine::ResultSet> EnforcementServer::Process(
    const SessionInfo& session, const std::string& sql,
    uint64_t queue_wait_ns) {
  // The worker owns the statement's trace; the monitor's parse/rewrite/
  // execute stages (and the cache lookup above) join it as spans. The queue
  // wait was measured before the trace could exist, so it is back-filled as
  // the first span here.
  obs::ScopedTrace trace(monitor_->traces().get(), sql, session.purpose_id,
                         session.user);
  if (queue_wait_ns > 0) {
    obs::TraceStore::AddSpan(obs::kStageQueueWait, queue_wait_ns);
  }
  // Morsel helpers for this query draw from the same pool as query workers:
  // one thread budget for the whole server.
  engine::ParallelSpec parallel;
  parallel.pool = &pool_;
  parallel.max_threads = options_.query_threads;
  parallel.morsel_rows = options_.morsel_rows;
  parallel.metrics = registry_;
  if (epoch_mode_) return ProcessEpoch(session, sql, parallel);
  return ProcessLocked(session, sql, parallel);
}

Result<engine::ResultSet> EnforcementServer::ProcessEpoch(
    const SessionInfo& session, const std::string& sql,
    const engine::ParallelSpec& parallel) {
  for (int attempt = 0;; ++attempt) {
    {
      // The pin is the read path's admission point — the epoch-mode
      // analogue of the shared-lock acquisition, so it is timed under the
      // same stage (and counted as a shared acquisition) for continuity of
      // the pipeline.lock_wait series.
      std::optional<util::EpochManager::Pin> pin;
      {
        obs::ScopedStageTimer timer(lock_wait_hist_, obs::kStageLockWait);
        pin.emplace(*epochs_);
      }
      lock_shared_->Add(1);
      obs::ScopedStageTimer pin_timer(epoch_pin_hist_, obs::kServerEpochPin);
      // Freeze the statement's world: every table access from here to the
      // last output row resolves these exact versions, even if a writer
      // publishes midway (the pin keeps them from being reclaimed).
      engine::TableSnapshot snap;
      snap.Capture(*monitor_->catalog()->db());
      engine::TableSnapshot::ScopedUse use(&snap);
      AAPAC_ASSIGN_OR_RETURN(std::shared_ptr<const RewriteCache::Entry> entry,
                             CheckAndPrepare(session, sql));
      if (attempt > 0 ||
          !ReadsTable(*entry->stmt, core::EnforcementMonitor::kAuditTable)) {
        return monitor_->ExecutePrepared(*entry->stmt, sql, session.purpose_id,
                                         session.user, parallel);
      }
      // Audit scan: fold-then-read. Fall through with the pin (and
      // snapshot) released — the fold below waits on writer_mu_, and the
      // deadlock rule forbids holding a pin while doing that (a concurrent
      // WithExclusive holding writer_mu_ stops the world, i.e. waits for
      // our pin).
    }
    FoldAudit();
    // Retry with a fresh pin: the snapshot captured after the fold includes
    // every audit record staged before this statement. Records appended
    // concurrently after the fold are from statements that did not
    // happen-before this one — the second attempt executes even if more
    // have arrived (fold consistency; docs/concurrency.md).
  }
}

Result<engine::ResultSet> EnforcementServer::ProcessLocked(
    const SessionInfo& session, const std::string& sql,
    const engine::ParallelSpec& parallel) {
  {
    // Read path: shared lock — any number of workers in parallel, no writer.
    std::shared_lock<std::shared_mutex> lock(data_mu_, std::defer_lock);
    {
      obs::ScopedStageTimer timer(lock_wait_hist_, obs::kStageLockWait);
      lock.lock();
    }
    lock_shared_->Add(1);
    AAPAC_ASSIGN_OR_RETURN(std::shared_ptr<const RewriteCache::Entry> entry,
                           CheckAndPrepare(session, sql));
    if (!ReadsTable(*entry->stmt, core::EnforcementMonitor::kAuditTable)) {
      return monitor_->ExecutePrepared(*entry->stmt, sql, session.purpose_id,
                                       session.user, parallel);
    }
  }
  // Queries over the audit trail take the exclusive side: workers append
  // audit rows while holding the shared lock, so a shared-lock scan of
  // audit_log would race row-vector growth. Re-prepare under the exclusive
  // lock — a policy mutation between the two acquisitions must not leak the
  // rewrite prepared above.
  std::unique_lock<std::shared_mutex> lock(data_mu_, std::defer_lock);
  {
    obs::ScopedStageTimer timer(lock_wait_hist_, obs::kStageLockWait);
    lock.lock();
  }
  lock_exclusive_->Add(1);
  AAPAC_ASSIGN_OR_RETURN(std::shared_ptr<const RewriteCache::Entry> entry,
                         CheckAndPrepare(session, sql));
  return monitor_->ExecutePrepared(*entry->stmt, sql, session.purpose_id,
                                   session.user, parallel);
}

void EnforcementServer::FoldAudit() {
  core::AuditBuffer* buf = monitor_->audit_buffer();
  if (buf == nullptr || buf->pending() == 0) return;
  std::lock_guard<std::mutex> lock(writer_mu_);
  FoldAuditLocked();
}

void EnforcementServer::FoldAuditLocked() {
  core::AuditBuffer* buf = monitor_->audit_buffer();
  if (buf == nullptr || buf->pending() == 0) return;
  engine::Table* t = monitor_->catalog()->db()->FindTable(
      core::EnforcementMonitor::kAuditTable);
  if (t == nullptr) return;  // Records can't stage before EnableAuditLog.
  // The fold is an ordinary copy-on-write write transaction: pinned readers
  // of audit_log keep their version; the folded rows appear atomically with
  // the publish.
  t->BeginWrite();
  const size_t rows = buf->FoldInto(t);
  monitor_->catalog()->db()->PublishWrites();
  audit_folds_->Add(1);
  audit_fold_rows_->Add(rows);
  epoch_gauge_->Set(static_cast<int64_t>(epochs_->current_epoch()));
}

template <class Dml>
Result<size_t> EnforcementServer::RunWrite(SessionId session,
                                           const std::string& sql, Dml&& dml) {
  AAPAC_ASSIGN_OR_RETURN(SessionInfo info, sessions_.Get(session));
  obs::ScopedTrace trace(monitor_->traces().get(), sql, info.purpose_id,
                         info.user);
  // Exactly one of the two is taken. In epoch mode the executor's DML path
  // opens the copy-on-write transaction and publishes on every exit, so
  // readers never block.
  std::unique_lock<std::mutex> writer(writer_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> data(data_mu_, std::defer_lock);
  {
    obs::ScopedStageTimer timer(lock_wait_hist_, obs::kStageLockWait);
    if (epoch_mode_) {
      writer.lock();
    } else {
      data.lock();
    }
  }
  lock_exclusive_->Add(1);
  Result<size_t> r = dml(info);
  if (epoch_mode_) {
    epoch_gauge_->Set(static_cast<int64_t>(epochs_->current_epoch()));
  }
  return r;
}

Result<size_t> EnforcementServer::ExecuteInsert(SessionId session,
                                                const std::string& sql,
                                                const core::Policy* policy) {
  return RunWrite(session, sql, [&](const SessionInfo& info) {
    return monitor_->ExecuteInsert(sql, info.purpose_id, policy, info.user);
  });
}

Result<size_t> EnforcementServer::ExecuteUpdate(SessionId session,
                                                const std::string& sql) {
  return RunWrite(session, sql, [&](const SessionInfo& info) {
    return monitor_->ExecuteUpdate(sql, info.purpose_id, info.user);
  });
}

Result<size_t> EnforcementServer::ExecuteDelete(SessionId session,
                                                const std::string& sql) {
  return RunWrite(session, sql, [&](const SessionInfo& info) {
    return monitor_->ExecuteDelete(sql, info.purpose_id, info.user);
  });
}

Status EnforcementServer::WithExclusive(const std::function<Status()>& fn) {
  if (epoch_mode_) {
    // Admin mutations touch unversioned state (catalog maps, schemas,
    // policy attachment through UpdateColumnWhere on the published head) in
    // place, so genuinely exclude everything: writer mutex against other
    // writers, stop-the-world against readers (waits for every pin to
    // drain, blocks new pins until Resume).
    std::lock_guard<std::mutex> lock(writer_mu_);
    lock_exclusive_->Add(1);
    epochs_->StopTheWorld();
    Status st = fn();
    // Belt and braces: if fn ran DML through the monitor, the executor
    // already published; this publishes any manually opened write
    // transaction so no working copy leaks past the exclusive section.
    monitor_->catalog()->db()->PublishWrites();
    epochs_->Resume();
    epoch_gauge_->Set(static_cast<int64_t>(epochs_->current_epoch()));
    return st;
  }
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  lock_exclusive_->Add(1);
  return fn();
}

size_t EnforcementServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

ServerSnapshot EnforcementServer::Snapshot() const {
  ServerSnapshot snap;
  snap.queue_depth = queue_depth();
  snap.queue_depth_hwm = queue_depth_gauge_->max_value();
  snap.executed = executed_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.lock_shared = lock_shared_->value();
  snap.lock_exclusive = lock_exclusive_->value();
  snap.sessions_active = sessions_.active();
  snap.session_shards = sessions_.num_shards();
  snap.cache = cache_.stats();
  snap.ledger = monitor_->ledger().Snapshot();
  snap.epoch_enabled = epoch_mode_;
  if (epoch_mode_) {
    const util::EpochManager::Stats es = epochs_->stats();
    snap.epoch = es.epoch;
    snap.epoch_published = epochs_->published_total().load();
    snap.epoch_reclaimed = es.reclaimed_total;
    snap.epoch_retired_pending = es.retired_pending;
    snap.audit_folds = audit_folds_->value();
    snap.audit_fold_rows = audit_fold_rows_->value();
    if (core::AuditBuffer* buf = monitor_->audit_buffer()) {
      snap.audit_pending = buf->pending();
    }
  }
  snap.index_scans_enabled = monitor_->index_scans_enabled();
  snap.vector_enabled = monitor_->vector_enabled();
  const size_t batch_override = monitor_->batch_rows();
  snap.vector_batch_rows =
      batch_override != 0 ? batch_override : engine::vec::DefaultBatchRows();
  snap.static_verdict_enabled = monitor_->static_verdict_enabled();
  const core::StaticVerdictPass::CacheStats svs =
      monitor_->static_pass().cache_stats();
  snap.static_cache_hits = svs.hits;
  snap.static_cache_misses = svs.misses;
  snap.static_cache_invalidations = svs.invalidations;
  obs::MetricsRegistry* reg = monitor_->metrics().get();
  snap.static_allow = reg->counter(obs::kStaticAllow)->value();
  snap.static_deny = reg->counter(obs::kStaticDeny)->value();
  snap.static_mixed = reg->counter(obs::kStaticMixed)->value();
  // The index counters live in the executor's ExecStats (published to the
  // registry as external counters, which only surface in render paths) —
  // read the owning atomics directly.
  const engine::ExecStats& xs = monitor_->exec_stats();
  snap.index_probes = xs.index_probes.load(std::memory_order_relaxed);
  snap.index_rows_pruned = xs.index_rows_pruned.load(std::memory_order_relaxed);
  snap.index_denied_skipped =
      xs.index_denied_skipped.load(std::memory_order_relaxed);
  // Dictionary sizes read table data, so take read-side protection: an
  // epoch pin + snapshot (epoch mode) or the shared data lock. Snapshots
  // stay safe against concurrent DML and policy attachment either way.
  {
    std::optional<util::EpochManager::Pin> pin;
    engine::TableSnapshot tsnap;
    std::optional<engine::TableSnapshot::ScopedUse> use;
    std::optional<std::shared_lock<std::shared_mutex>> lock;
    if (epoch_mode_) {
      pin.emplace(*epochs_);
      tsnap.Capture(*monitor_->catalog()->db());
      use.emplace(&tsnap);
    } else {
      lock.emplace(data_mu_);
    }
    const engine::Database* db = monitor_->catalog()->db();
    for (const std::string& name : db->TableNames()) {
      const engine::Table* t = db->FindTable(name);
      const engine::PolicyDictionary* dict = t->policy_dict();
      if (dict == nullptr) continue;
      DictionarySize d;
      d.table = name;
      d.distinct_policies = dict->size();
      uint64_t raw = 0;
      const size_t col = *t->intern_column();
      for (const engine::Row& row : t->rows()) {
        if (col < row.size() && row[col].type() == engine::ValueType::kBytes) {
          raw += row[col].AsBytes().size();
        }
      }
      d.bytes_saved = raw > dict->distinct_bytes()
                          ? raw - dict->distinct_bytes()
                          : 0;
      snap.dictionaries.push_back(std::move(d));
      // Zone-map stats ride in the same pass. stats() serializes with
      // reader-triggered rebuilds internally, so read-side protection
      // suffices.
      if (const engine::PolicyZoneMap* zone = t->zone_map()) {
        const engine::PolicyZoneMap::Stats zs = zone->stats();
        ZoneMapStats z;
        z.table = name;
        z.block_rows = zs.block_rows;
        z.blocks = zs.blocks;
        z.dirty_blocks = zs.dirty_blocks;
        z.overflow_blocks = zs.overflow_blocks;
        z.untracked_blocks = zs.untracked_blocks;
        snap.zone_maps.push_back(std::move(z));
      }
    }
    // Secondary indexes of every table (not just protected ones) in the
    // same protected pass — Stats() locks per index, so the reader-side
    // protection above suffices against concurrent rebuilds.
    for (const std::string& name : db->TableNames()) {
      const engine::Table* t = db->FindTable(name);
      for (engine::IndexStats& is : t->IndexStatsAll()) {
        TableIndexStats tis;
        tis.table = name;
        tis.index = std::move(is);
        snap.indexes.push_back(std::move(tis));
      }
    }
  }
  return snap;
}

}  // namespace aapac::server
