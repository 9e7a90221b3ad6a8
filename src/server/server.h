#ifndef AAPAC_SERVER_SERVER_H_
#define AAPAC_SERVER_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "core/policy.h"
#include "engine/exec.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/rewrite_cache.h"
#include "server/session.h"
#include "util/epoch.h"
#include "util/result.h"
#include "util/task_pool.h"

namespace aapac::server {

struct ServerOptions {
  /// Worker threads in the shared TaskPool (clamped to >= 1). Query tasks
  /// and intra-query morsel helpers both run here, so this is the server's
  /// whole thread budget.
  size_t threads = 4;
  /// Bounded submission queue; a Submit finding it full is rejected with
  /// kUnavailable immediately — the server never blocks a client forever.
  size_t queue_capacity = 128;
  /// Rewrite-cache entries (0 disables memoization).
  size_t cache_capacity = 1024;
  /// Per-query degree of parallelism, including the worker running the
  /// query: each SELECT may fan its scans/probes out to this many pool
  /// workers as morsel helpers (helpers jump the task queue, so finishing
  /// an in-flight query always beats starting a new one). 1 = serial
  /// execution, exactly the pre-morsel code path.
  size_t query_threads = 1;
  /// Rows per morsel when query_threads > 1. Scans smaller than two morsels
  /// stay serial, so lowering this makes small tables eligible for fan-out
  /// (tests use this; the default suits the benchmark scales).
  size_t morsel_rows = 2048;
  /// Epoch-based snapshot concurrency (docs/concurrency.md): readers pin an
  /// epoch and run lock-free against published copy-on-write table
  /// versions; writers publish under a writer mutex. Cleared at startup by
  /// AAPAC_EPOCH_OFF (util::EnvFlagSet), which restores the historical
  /// readers-writer data lock byte for byte.
  bool epoch_mode = true;
  /// Shards of the audit staging buffer (AAPAC_AUDIT_SHARDS). Epoch mode
  /// only.
  size_t audit_shards = 8;
  /// Background audit-folder interval in milliseconds (AAPAC_FOLD_MS).
  /// Epoch mode only; audit-scan SELECTs additionally fold on demand, so
  /// this bounds staleness of the table between scans, not correctness.
  size_t audit_fold_ms = 2;
  /// SessionManager shard count (AAPAC_SESSION_SHARDS).
  size_t session_shards = SessionManager::kDefaultShards;
};

/// Point-in-time aggregate of the server's operational state (the shell's
/// \server view and the bench reports read this rather than poking at the
/// individual accessors).
/// Size of one table's policy-interning dictionary (engine/policy_dict.h).
struct DictionarySize {
  std::string table;
  /// Distinct policy masks interned.
  size_t distinct_policies = 0;
  /// Raw blob bytes the column would hold without sharing (rows × their
  /// masks' sizes) minus the dictionary's distinct payload — what interning
  /// deduplicates away.
  uint64_t bytes_saved = 0;
};

/// Per-table zone-map health (engine/zone_map.h): block granularity plus
/// how many blocks are currently dirty (awaiting lazy rebuild), overflowed
/// (too many distinct policy ids to enumerate) or untracked (rows without
/// an interned id) — the blocks the scan fast path cannot decide.
struct ZoneMapStats {
  std::string table;
  size_t block_rows = 0;
  size_t blocks = 0;
  size_t dirty_blocks = 0;
  size_t overflow_blocks = 0;
  size_t untracked_blocks = 0;
};

/// One secondary index on one table (engine/index.h): its definition plus
/// build state — `current` is false while the index is stale (lazily
/// rebuilt on the next indexed read of its version).
struct TableIndexStats {
  std::string table;
  engine::IndexStats index;
};

struct ServerSnapshot {
  size_t queue_depth = 0;
  /// Highest queue depth observed since start (server.queue_depth gauge
  /// high-water mark) — the backpressure headroom indicator.
  int64_t queue_depth_hwm = 0;
  uint64_t executed = 0;
  uint64_t rejected = 0;
  /// Read-side / write-side acquisition counts. Epoch mode: lock_shared
  /// counts epoch pins taken by the read path (which holds no lock at all)
  /// and lock_exclusive counts client-initiated writer-mutex acquisitions
  /// (DML, WithExclusive; audit folds reuse the mutex but are not counted,
  /// so the series stays comparable across modes). Fallback mode
  /// (AAPAC_EPOCH_OFF): shared / exclusive acquisitions of the historical
  /// readers-writer data lock.
  uint64_t lock_shared = 0;
  uint64_t lock_exclusive = 0;
  size_t sessions_active = 0;
  CacheStats cache;
  /// Epoch-concurrency state (zeros in fallback mode): whether epoch mode
  /// is on, the current epoch, process-wide published/reclaimed version
  /// counts, versions still awaiting reclamation, and the audit buffer's
  /// fold statistics (folds run, rows folded, records still staged).
  bool epoch_enabled = false;
  uint64_t epoch = 0;
  uint64_t epoch_published = 0;
  uint64_t epoch_reclaimed = 0;
  size_t epoch_retired_pending = 0;
  uint64_t audit_folds = 0;
  uint64_t audit_fold_rows = 0;
  size_t audit_pending = 0;
  size_t session_shards = 0;
  /// Per protected table, the interning dictionary's size. The dictionaries
  /// live on the engine tables, so they survive rewrite-cache hits,
  /// invalidations and evictions unchanged.
  std::vector<DictionarySize> dictionaries;
  /// Per protected table, the policy zone map's block statistics (same
  /// lifetime as the dictionaries: owned by the engine tables).
  std::vector<ZoneMapStats> zone_maps;
  /// Every secondary index of every table, with the index access path's
  /// enablement flag (AAPAC_INDEX_OFF clears it at startup) and its probe
  /// counters mirrored from enforce.index_*.
  bool index_scans_enabled = true;
  std::vector<TableIndexStats> indexes;
  uint64_t index_probes = 0;
  uint64_t index_rows_pruned = 0;
  uint64_t index_denied_skipped = 0;
  /// Vectorized-executor configuration in effect (engine/vec): whether the
  /// batch path is on (AAPAC_VECTOR_OFF clears it at startup) and the
  /// rows-per-batch it forms (the AAPAC_BATCH_ROWS default unless the
  /// monitor overrode it).
  bool vector_enabled = true;
  size_t vector_batch_rows = 0;
  /// StaticVerdict pass state (core/static_verdict.h): whether bind-time
  /// whole-table classification is on (AAPAC_STATIC_OFF clears it at
  /// startup), its decision-cache behaviour, and how many conjuncts were
  /// classified into each static class since start.
  bool static_verdict_enabled = true;
  uint64_t static_cache_hits = 0;
  uint64_t static_cache_misses = 0;
  uint64_t static_cache_invalidations = 0;
  uint64_t static_allow = 0;
  uint64_t static_deny = 0;
  uint64_t static_mixed = 0;
  /// The monitor's per-(table, purpose, action) enforcement decision ledger
  /// (obs/ledger.h), ordered by key; column sums reconcile with the
  /// enforce.* counters.
  std::vector<obs::LedgerEntry> ledger;
};

/// Concurrent, session-oriented enforcement service over one
/// EnforcementMonitor — the serving layer the paper's one-query-at-a-time
/// evaluation (§5.5, Fig. 1) leaves out.
///
///  - Sessions carry (user, declared access purpose, role), so queries
///    arrive without re-declaring context — the paper's "access purpose
///    declared per session" model. Authorization (Pa, or Rr/Ur through the
///    monitor's RoleManager) is checked at OpenSession and re-checked per
///    query, so a revocation takes effect mid-session. The session registry
///    is sharded by id, sized for millions of concurrent sessions.
///  - A fixed-size worker pool consumes a bounded queue; when the queue is
///    full, Submit rejects with kUnavailable (backpressure) instead of
///    blocking.
///  - Workers share a policy-versioned RewriteCache: the expensive
///    parse/derive/rewrite stage runs once per distinct (normalized query,
///    purpose, role) and catalog version; any security-metadata or policy
///    mutation bumps the catalog version and implicitly invalidates every
///    cached rewrite.
///  - Concurrency control is epoch-based snapshot isolation
///    (docs/concurrency.md): a read-only query pins the current epoch, runs
///    lock-free against the immutable published version of every table it
///    touches, and unpins — readers never block writers or each other. DML
///    and administrative mutations serialize on a writer mutex, build
///    copy-on-write table versions and publish them with a single atomic
///    epoch bump; superseded versions are reclaimed once no reader pins
///    them. Audit rows stage in a sharded buffer and a background folder
///    moves them into audit_log in sequence order; a SELECT that scans the
///    audit table folds first, then reads (fold-then-read), so it sees
///    every statement completed before it. AAPAC_EPOCH_OFF falls back to
///    the historical readers-writer data lock (shared reads, exclusive
///    writes, audit scans retried under the exclusive side).
///
/// The wrapped monitor/catalog/database may still be used directly when the
/// server is idle (the differential harness interleaves DML that way), but
/// concurrent direct use bypasses both concurrency schemes. Run at most one
/// live server per database: epoch mode re-wires the database's versioning
/// and the monitor's audit routing for the server's lifetime.
class EnforcementServer {
 public:
  explicit EnforcementServer(core::EnforcementMonitor* monitor,
                             ServerOptions options = {});

  EnforcementServer(const EnforcementServer&) = delete;
  EnforcementServer& operator=(const EnforcementServer&) = delete;

  /// Drains the queue and joins the workers.
  ~EnforcementServer();

  // --- Session lifecycle. ----------------------------------------------------

  /// Resolves `purpose`, checks `user`'s authorization for it (empty user =
  /// anonymous, as in EnforcementMonitor::ExecuteQuery) and registers the
  /// session. `role` is free-form context that scopes rewrite-cache entries.
  Result<SessionId> OpenSession(const std::string& user,
                                const std::string& purpose,
                                const std::string& role = "");

  Status CloseSession(SessionId id);

  // --- Query submission. -----------------------------------------------------

  /// Enqueues a SELECT for asynchronous enforcement + execution under the
  /// session's declared purpose. Fails fast with kNotFound (unknown
  /// session) or kUnavailable (queue full / shutting down); otherwise the
  /// returned future carries the query's own Result.
  Result<std::future<Result<engine::ResultSet>>> Submit(
      SessionId session, const std::string& sql);

  /// Synchronous convenience: Submit + wait. Subject to the same
  /// backpressure (an immediate kUnavailable when the queue is full).
  Result<engine::ResultSet> Execute(SessionId session, const std::string& sql);

  // --- Writes. ---------------------------------------------------------------
  //
  // Epoch mode: DML serializes on the writer mutex, mutates a private
  // copy-on-write clone and publishes it with one epoch bump — in-flight
  // readers keep their pinned versions, so they never observe partial
  // writes and writers never wait for them. Fallback mode: DML takes the
  // write side of the data lock and runs alone.

  Result<size_t> ExecuteInsert(SessionId session, const std::string& sql,
                               const core::Policy* policy = nullptr);
  Result<size_t> ExecuteUpdate(SessionId session, const std::string& sql);
  Result<size_t> ExecuteDelete(SessionId session, const std::string& sql);

  /// Runs `fn` with every other access excluded — the hook for
  /// administrative mutations (catalog changes, policy attachment) while
  /// the server is live. Epoch mode: holds the writer mutex AND stops the
  /// world (waits for all reader pins to drain, blocks new ones), because
  /// admin mutations touch unversioned state (catalog maps, schemas) in
  /// place. Fallback mode: the exclusive data lock. Do not call
  /// Submit/Execute from within `fn` (self-deadlock).
  Status WithExclusive(const std::function<Status()>& fn);

  // --- Introspection. --------------------------------------------------------

  CacheStats cache_stats() const { return cache_.stats(); }
  RewriteCache& cache() { return cache_; }
  SessionManager& sessions() { return sessions_; }
  const ServerOptions& options() const { return options_; }
  core::EnforcementMonitor* monitor() { return monitor_; }
  /// The shared worker pool (query tasks + morsel helpers).
  util::TaskPool& pool() { return pool_; }

  /// Whether epoch-based snapshot concurrency is active (false after
  /// AAPAC_EPOCH_OFF or options.epoch_mode = false).
  bool epoch_mode() const { return epoch_mode_; }

  size_t queue_depth() const;
  uint64_t rejected_total() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t executed_total() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Aggregated operational stats; safe to call while queries run.
  ServerSnapshot Snapshot() const;

  /// Stops accepting work, drains queued tasks and joins the workers. In
  /// epoch mode, additionally: stops the background folder, folds the audit
  /// buffer one last time (so direct reads of audit_log after Shutdown see
  /// every statement), hands audit routing and the database's tables back
  /// to direct/unversioned mode, and reclaims retired versions. Idempotent;
  /// also run by the destructor.
  void Shutdown();

 private:
  struct Task {
    SessionInfo session;
    std::string sql;
    std::promise<Result<engine::ResultSet>> promise;
    /// Submit time; the worker's dequeue delta is the pipeline.queue_wait
    /// stage.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Pops one queued task and runs it to completion; every Submit pairs
  /// with exactly one DrainOne scheduled on the pool.
  void DrainOne();

  /// Per-query re-authorization followed by a versioned cache lookup
  /// (Prepare on miss). Caller provides read-side protection: an epoch pin
  /// with the statement's TableSnapshot installed, or (fallback mode)
  /// either side of data_mu_.
  Result<std::shared_ptr<const RewriteCache::Entry>> CheckAndPrepare(
      const SessionInfo& session, const std::string& sql);

  /// The read path. Epoch mode: pin the epoch, capture the statement's
  /// table snapshot, CheckAndPrepare, execute against the pinned versions,
  /// unpin — no lock anywhere. A query that scans the audit table first
  /// drops its pin, folds the staging buffer under the writer mutex
  /// (fold-then-read; dropping the pin first is the no-pin-while-waiting-
  /// on-writer-mutex deadlock rule), then retries with a fresh pin.
  /// Fallback mode: shared data lock, with audit scans retried under the
  /// exclusive lock. Opens the statement's trace (the monitor's inner
  /// stages join it) and records the already-measured queue wait as its
  /// first span.
  Result<engine::ResultSet> Process(const SessionInfo& session,
                                    const std::string& sql,
                                    uint64_t queue_wait_ns);
  Result<engine::ResultSet> ProcessEpoch(const SessionInfo& session,
                                         const std::string& sql,
                                         const engine::ParallelSpec& parallel);
  Result<engine::ResultSet> ProcessLocked(const SessionInfo& session,
                                          const std::string& sql,
                                          const engine::ParallelSpec& parallel);

  /// The write path shared by ExecuteInsert/Update/Delete: session lookup,
  /// the statement's trace, the exclusive side (writer mutex in epoch mode,
  /// data_mu_ otherwise, timed as pipeline.lock_wait), then `dml` — the
  /// monitor call — and the epoch-gauge update.
  template <class Dml>
  Result<size_t> RunWrite(SessionId session, const std::string& sql, Dml&& dml);

  /// Folds the audit staging buffer into audit_log (copy-on-write
  /// transaction + publish). FoldAudit takes the writer mutex; the Locked
  /// variant requires it held.
  void FoldAudit();
  void FoldAuditLocked();

  core::EnforcementMonitor* monitor_;
  const ServerOptions options_;
  /// Resolved at construction: options_.epoch_mode unless AAPAC_EPOCH_OFF.
  const bool epoch_mode_;
  SessionManager sessions_;
  RewriteCache cache_;

  /// Fallback-mode readers-writer lock over catalog + table data (unused in
  /// epoch mode). Workers executing SELECTs hold it shared; DML and
  /// WithExclusive hold it exclusively. Mutable: Snapshot() is const but
  /// reads table data under the lock.
  mutable std::shared_mutex data_mu_;

  /// Epoch-mode writer mutex: serializes DML, audit folds and WithExclusive
  /// with each other. Readers never touch it (deadlock rule: no pin may be
  /// held while waiting here).
  std::mutex writer_mu_;
  util::EpochManager* epochs_ = nullptr;  // &Instance() in epoch mode.

  mutable std::mutex queue_mu_;
  std::deque<Task> queue_;
  bool stopping_ = false;

  /// One thread budget for everything: query tasks (back of the pool's
  /// queue) and morsel helpers (front). Declared after the task queue so
  /// its destruction — which drains in-flight DrainOne closures — runs
  /// first.
  util::TaskPool pool_;
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> executed_{0};

  /// Background audit folder (epoch mode): wakes every audit_fold_ms and
  /// folds staged audit records so the table trails the buffer by at most
  /// one interval even without audit scans.
  std::thread folder_;
  std::mutex folder_mu_;
  std::condition_variable folder_cv_;
  bool folder_stop_ = false;
  bool epoch_torn_down_ = false;

  // Cached handles into the monitor's registry (stable for its lifetime).
  // executed_/rejected_ are additionally published there as external
  // counters server.executed / server.rejected (unregistered in the dtor
  // with their storage), and epoch mode publishes the EpochManager's
  // process-wide published/reclaimed totals as server.epoch_published /
  // server.epoch_reclaimed — those stay registered past the dtor: their
  // storage is the never-destroyed global manager, so post-server metrics
  // dumps keep the series.
  obs::MetricsRegistry* registry_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* lock_shared_;
  obs::Counter* lock_exclusive_;
  obs::Counter* audit_folds_;
  obs::Counter* audit_fold_rows_;
  obs::Gauge* epoch_gauge_;
  obs::Histogram* queue_wait_hist_;
  obs::Histogram* lock_wait_hist_;
  obs::Histogram* cache_lookup_hist_;
  obs::Histogram* epoch_pin_hist_;
};

}  // namespace aapac::server

#endif  // AAPAC_SERVER_SERVER_H_
