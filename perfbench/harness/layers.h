// Per-layer measurement for traced runs. Times come from the benchmark's
// own spans around public calls; counts and server-internal waits come from
// what the program already exports (compliance_checks, exec_stats, the
// metrics registry, cache_stats and Snapshot), read as deltas over the
// traced window.
#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/world.h"
#include "obs/metrics.h"

namespace perfbench {

/// Registry, cache, engine and server counters over one measured window.
class ServerWindow {
 public:
  void Begin(World& w);
  void End(World& w);

  /// Window length in seconds.
  double seconds = 0;
  /// Registry histogram deltas (count, sum) of the server's read path.
  uint64_t queue_wait_n = 0, queue_wait_ns = 0;
  uint64_t lock_wait_n = 0, lock_wait_ns = 0;
  uint64_t epoch_pin_n = 0, epoch_pin_ns = 0;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t blocks_skipped = 0, blocks_bulk = 0, blocks_mixed = 0;
  uint64_t static_hits = 0, static_misses = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_invalidations = 0;
  uint64_t rows_scanned = 0, rows_output = 0;
  uint64_t audit_fold_rows = 0;

 private:
  struct Raw {
    Clock::time_point at;
    aapac::obs::HistogramSnapshot queue_wait, lock_wait, epoch_pin;
    uint64_t memo_hits = 0, memo_misses = 0;
    uint64_t blocks_skipped = 0, blocks_bulk = 0, blocks_mixed = 0;
    uint64_t static_hits = 0, static_misses = 0;
    aapac::server::CacheStats cache;
    uint64_t rows_scanned = 0, rows_output = 0;
    uint64_t audit_fold_rows = 0;
  };
  static Raw Read(World& w);
  Raw begin_;
};

/// One statement replayed through the monitor's decomposed public chain.
struct ReplayStmt {
  std::string sql;
  std::string purpose_id;
  Shape shape = Shape::kSingle;
};

/// Spans of the replay: ParseSelect, CheckAccess and Prepare `reps` times
/// per statement; ExecutePrepared and ExecuteUnrestricted once.
struct ReplayResult {
  std::vector<double> parse_us, check_us, prepare_us;
  std::vector<double> exec_ms[3];  // By Shape.
  double unenforced_s = 0;
  uint64_t checks = 0;
  uint64_t executed = 0;  // ExecutePrepared calls (each writes an audit row).
  uint64_t rows_out = 0;
  uint64_t errors = 0;
};

/// Runs the replay; the server must be idle (no statement in flight).
ReplayResult Replay(World& w, const std::vector<ReplayStmt>& stmts, int reps);

/// Everything a traced run feeds into the per-layer metrics.
struct LayerInputs {
  ServerWindow window;
  ReplayResult replay;
  /// Client-observed latency of the traced window's SELECTs, in ms.
  std::vector<double> read_ms;
  /// Median SELECT latency of the untraced and the traced window.
  double plain_read_ms = 0;
  double traced_read_ms = 0;
  std::vector<double> lookup_after_write_ms;
  /// Engine share of each write: DML latency minus parse and access check,
  /// or, for a policy update, the PolicyManager call itself.
  std::vector<double> dml_ms;
  std::vector<double> session_open_us;
  std::vector<double> stw_ms;
  size_t retired_pending_max = 0;
};

/// Adds every per-layer metric, with its source, to `out`.
void AddLayerMetrics(const LayerInputs& in, Outcome* out);

/// One audit_log row.
struct AuditRow {
  uint64_t seq = 0;
  std::string purpose_id;
  std::string sql;
  std::string outcome;
  uint64_t checks = 0;
  int64_t rows = 0;
};

/// Reads the whole audit trail (server shut down, so the last fold ran) and
/// checks it holds exactly `expected` rows, one per statement issued.
std::vector<AuditRow> ReadAuditTrail(World& w, uint64_t expected,
                                     Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
