#ifndef AAPAC_ENGINE_EXEC_H_
#define AAPAC_ENGINE_EXEC_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/value.h"
#include "engine/vec/vec.h"
#include "obs/metrics.h"
#include "sql/ast.h"
#include "util/result.h"
#include "util/task_pool.h"

namespace aapac::engine {

/// Per-thread tally of policy-compliance UDF invocations. The enforcement
/// monitor's `complies_with` UDF bumps it on every call; the monitor reads
/// the calling thread's value before and after a statement to get the
/// statement's exact check count (the audit-log `checks` column and the
/// Fig. 6 measure). Under morsel parallelism checks happen on pool threads
/// whose tallies the monitor never sees, so the morsel driver measures each
/// morsel's delta on the thread that ran it and folds foreign-thread deltas
/// back into the calling thread's tally at operator close — the before/after
/// read stays per-statement-exact regardless of the degree of parallelism.
struct CheckTally {
  /// The calling thread's running total (monotonic within a thread).
  static uint64_t Current();
  /// +1, called by the UDF on whichever thread evaluates the predicate.
  static void Bump();
  /// Folds `n` checks performed on other threads into this thread's tally.
  static void Add(uint64_t n);
};

/// Degree-of-parallelism request for one statement execution. Default (null
/// pool / max_threads 1) selects the serial code path, which is exactly the
/// pre-morsel executor: no extra allocation, timing, or dispatch.
struct ParallelSpec {
  /// Shared worker pool; morsel helpers are front-queued so they drain
  /// before queued query tasks (one thread budget with the server).
  util::TaskPool* pool = nullptr;
  /// Worker cap for this statement, including the calling thread.
  size_t max_threads = 1;
  /// Rows per morsel (fixed-size splitting of base-table scans and join
  /// probes).
  size_t morsel_rows = 2048;
  /// Optional sink for pipeline.morsel_wait / pipeline.morsel_exec
  /// histograms and the engine.morsels_dispatched counter.
  obs::MetricsRegistry* metrics = nullptr;

  bool enabled() const { return pool != nullptr && max_threads > 1; }
};

/// Execution counters for one or more Execute() calls. The enforcement
/// benchmarks read these to reproduce the paper's complexity measurements
/// (together with the UDF-side check counter).
///
/// The fields are atomic so one Executor may serve many server workers
/// concurrently: increments aggregate across threads without tearing, and a
/// copy takes a (non-torn, per-field) snapshot for reporting. Relaxed
/// ordering suffices — these are statistics, not synchronization.
struct ExecStats {
  std::atomic<uint64_t> rows_scanned{0};       // Base-table rows visited.
  std::atomic<uint64_t> rows_materialized{0};  // Rows surviving filters.
  std::atomic<uint64_t> groups_built{0};       // Aggregation groups formed.
  std::atomic<uint64_t> rows_output{0};        // Rows in final result sets.
  std::atomic<uint64_t> statements{0};         // Statements executed.
  std::atomic<uint64_t> index_probes{0};       // Scans served by an index.
  /// Rows the index access path never had to visit (table rows minus probe
  /// candidates) — the paper's "enforced lookup" saving, Fig. 6 scaled down
  /// to O(log n).
  std::atomic<uint64_t> index_rows_pruned{0};
  /// Index candidates landing in all-denied zone blocks: settled by
  /// aggregate check accounting without ever materializing the row.
  std::atomic<uint64_t> index_denied_skipped{0};

  ExecStats() = default;
  ExecStats(const ExecStats& other) { *this = other; }
  ExecStats& operator=(const ExecStats& other) {
    rows_scanned = other.rows_scanned.load(std::memory_order_relaxed);
    rows_materialized =
        other.rows_materialized.load(std::memory_order_relaxed);
    groups_built = other.groups_built.load(std::memory_order_relaxed);
    rows_output = other.rows_output.load(std::memory_order_relaxed);
    statements = other.statements.load(std::memory_order_relaxed);
    index_probes = other.index_probes.load(std::memory_order_relaxed);
    index_rows_pruned =
        other.index_rows_pruned.load(std::memory_order_relaxed);
    index_denied_skipped =
        other.index_denied_skipped.load(std::memory_order_relaxed);
    return *this;
  }

  void Reset() { *this = ExecStats(); }
};

/// Query output: named columns and rows.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
};

/// Column of a derived relation during execution: `binding` is the table
/// alias (or table name) qualifying the column, `name` the column name.
struct BoundColumn {
  std::string binding;
  std::string name;
  ValueType type = ValueType::kNull;
};

using BindingSchema = std::vector<BoundColumn>;

/// Executor configuration, handed whole to every execution: the paper's
/// pushdown ablation, the verdict-memo / zone-map / static-verdict /
/// secondary-index fast-path switches and the vectorized-scan spec. Each
/// field is documented at its Executor setter.
struct ExecOptions {
  bool pushdown = true;
  bool verdict_memo = true;
  bool zone_map = true;
  bool static_verdict = true;
  bool index_scans = true;
  vec::VecSpec vec;
};

/// Tree-walking executor over the SQL subset in sql::ParseSelect.
///
/// Semantics follow PostgreSQL where the paper depends on them:
///  - three-valued logic; WHERE/HAVING keep rows evaluating to TRUE;
///  - conjuncts are evaluated left-to-right with short-circuiting, so the
///    enforcement rewriter's policy checks (appended after the original
///    WHERE) only run on rows that already pass the user's filters — this
///    is what shapes the complexity curves of the paper's Figure 6;
///  - single-table conjuncts are pushed down to the scans below inner
///    joins (as the PostgreSQL planner does), so per-table policy checks
///    are counted against scanned tuples of that table, not join output;
///  - equi-joins use hash joins (build on the smaller input).
///
/// Sub-queries (scalar, IN, derived tables) must be uncorrelated; they are
/// evaluated once per statement execution.
class Executor {
 public:
  explicit Executor(Database* db) : db_(db) {}

  /// Runs a SELECT and materializes the result.
  Result<ResultSet> Execute(const sql::SelectStmt& stmt);

  /// Same, with intra-query morsel parallelism per `spec`. Results are
  /// byte-identical to the serial overload: morsels are stitched back in
  /// scan order and every order-sensitive stage (aggregation, DISTINCT,
  /// ORDER BY) runs on the stitched relation exactly as in serial mode.
  Result<ResultSet> Execute(const sql::SelectStmt& stmt,
                            const ParallelSpec& spec);

  /// Convenience: parse + execute.
  Result<ResultSet> ExecuteSql(const std::string& sql);

  /// Evaluates the source rows of an INSERT — the constant VALUES rows or
  /// the SELECT result — without writing anything. Rows are as wide as the
  /// statement's column list (or, for the SELECT form, its select list).
  Result<std::vector<Row>> EvalInsertSource(const sql::InsertStmt& stmt);

  /// Executes an INSERT. `forced_column`, when set, assigns that column of
  /// every inserted row to the given value; it must not appear in the
  /// statement's column list. The enforcement monitor uses this to stamp
  /// the `policy` mask onto newly inserted tuples (§5.3). Returns the number
  /// of rows inserted; on any error nothing is written.
  Result<size_t> ExecuteInsert(
      const sql::InsertStmt& stmt,
      const std::optional<std::pair<std::string, Value>>& forced_column =
          std::nullopt);

  /// Renders the static execution plan for a SELECT without running it:
  /// the join tree (hash vs. nested-loop, with equi-join keys), the
  /// predicate placement after pushdown, the projection pruning per scan
  /// and the aggregation/distinct/order/limit stages. Sub-query plans are
  /// nested. Uncorrelated sub-queries are NOT executed (conjunct placement
  /// is decided by name resolution alone, which matches the executor).
  Result<std::string> ExplainPlan(const sql::SelectStmt& stmt);

  /// Convenience: parse + explain.
  Result<std::string> ExplainPlanSql(const std::string& sql);

  /// Executes an UPDATE. Assignment right-hand sides see the *old* row
  /// values (snapshot semantics: evaluation completes for all matching rows
  /// before any write happens). Returns the number of rows updated; on any
  /// error nothing is written.
  Result<size_t> ExecuteUpdate(const sql::UpdateStmt& stmt);

  /// Executes a DELETE; returns the number of rows removed.
  Result<size_t> ExecuteDelete(const sql::DeleteStmt& stmt);

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  /// Disables single-relation predicate pushdown (WHERE conjuncts are then
  /// applied only on the fully joined relation). PostgreSQL — and this
  /// executor by default — pushes scan-level predicates down; the toggle
  /// exists for the ablation benchmark that quantifies how much the paper's
  /// enforcement cost profile depends on it.
  void set_pushdown_enabled(bool enabled) { options_.pushdown = enabled; }
  bool pushdown_enabled() const { return options_.pushdown; }

  /// Disables per-statement verdict memoization (ScalarFunction::
  /// memoize_verdicts): every compliance check then runs the full
  /// CompliesWithPacked sweep, exactly the pre-dictionary path. The
  /// differential harness and bench_verdict_cache use the toggle to prove
  /// results and check counts are identical either way.
  void set_verdict_memo_enabled(bool enabled) {
    options_.verdict_memo = enabled;
  }
  bool verdict_memo_enabled() const { return options_.verdict_memo; }

  /// Disables zone-map block skipping / bulk-accept (engine/zone_map.h):
  /// every scan then runs the per-tuple path even over blocks whose policy
  /// ids are uniformly decided. Check counts and results are identical
  /// either way — the toggle exists for the differential harness and the
  /// bench_zone_skip self-check. Has no effect when verdict memoization is
  /// disabled (the fast path keys on memoized verdicts).
  void set_zone_map_enabled(bool enabled) { options_.zone_map = enabled; }
  bool zone_map_enabled() const { return options_.zone_map; }

  /// Disables honoring of bind-time static-verdict marks
  /// (sql::FuncCallExpr::static_class, set by the rewriter's StaticVerdict
  /// pass): compliance conjuncts then bind without the constant-verdict
  /// fast path even when the rewriter marked them, so every check runs the
  /// memo/zone/per-tuple machinery. Covering the binder side — not just the
  /// rewriter side — makes the kill switch airtight for cached ASTs whose
  /// marks were produced while the pass was on. Results and check counts
  /// are identical either way (AAPAC_STATIC_OFF / the differential
  /// harness's static-off leg prove it).
  void set_static_verdict_enabled(bool enabled) {
    options_.static_verdict = enabled;
  }
  bool static_verdict_enabled() const { return options_.static_verdict; }

  /// Disables the vectorized executor (engine/vec): every filter pass —
  /// base-table scans, hash-join probes, root/derived filters — then runs
  /// the row-at-a-time path. Results and check counts are identical either
  /// way; the kill switch (AAPAC_VECTOR_OFF) exists for the differential
  /// harness and as an operational escape hatch.
  void set_vector_enabled(bool enabled) { options_.vec.enabled = enabled; }
  bool vector_enabled() const { return options_.vec.enabled; }

  /// Disables the secondary-index access path (engine/index.h): every
  /// sargable point/range scan then runs the full scan machinery. Results
  /// and check counts are identical either way — the policy-aware probe
  /// settles exactly the checks the scan path would have spent (the
  /// AAPAC_INDEX_OFF kill switch and the differential harness's index-off
  /// leg prove it).
  void set_index_scans_enabled(bool enabled) {
    options_.index_scans = enabled;
  }
  bool index_scans_enabled() const { return options_.index_scans; }

  /// Rows per batch for the vectorized executor; 0 selects the
  /// AAPAC_BATCH_ROWS default.
  void set_batch_rows(size_t rows) { options_.vec.batch_rows = rows; }
  size_t batch_rows() const { return options_.vec.batch_rows; }

  /// Sink for the enforce.batches_* / vec.* metrics of the vectorized
  /// executor. Unset (the default) disables publication.
  void set_metrics(obs::MetricsRegistry* metrics) {
    options_.vec.metrics = metrics;
  }

 private:
  Database* db_;
  ExecStats stats_;
  ExecOptions options_;
};

}  // namespace aapac::engine

#endif  // AAPAC_ENGINE_EXEC_H_
