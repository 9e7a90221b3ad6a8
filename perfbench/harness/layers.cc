#include "harness/layers.h"

#include <algorithm>

#include "harness/stats.h"
#include "sql/parser.h"

namespace perfbench {

using namespace aapac;

ServerWindow::Raw ServerWindow::Read(World& w) {
  Raw r;
  r.at = Clock::now();
  obs::MetricsRegistry& reg = *w.monitor->metrics();
  r.queue_wait = reg.histogram(obs::kStageQueueWait)->Snapshot();
  r.lock_wait = reg.histogram(obs::kStageLockWait)->Snapshot();
  r.epoch_pin = reg.histogram(obs::kServerEpochPin)->Snapshot();
  r.memo_hits = reg.counter(obs::kVerdictMemoHits)->value();
  r.memo_misses = reg.counter(obs::kVerdictMemoMisses)->value();
  r.blocks_skipped = reg.counter(obs::kZoneBlocksSkipped)->value();
  r.blocks_bulk = reg.counter(obs::kZoneBlocksBulkAccepted)->value();
  r.blocks_mixed = reg.counter(obs::kZoneBlocksMixed)->value();
  const server::ServerSnapshot snap = w.server->Snapshot();
  r.static_hits = snap.static_cache_hits;
  r.static_misses = snap.static_cache_misses;
  r.audit_fold_rows = snap.audit_fold_rows;
  r.cache = w.server->cache_stats();
  const engine::ExecStats& xs = w.monitor->exec_stats();
  r.rows_scanned = xs.rows_scanned.load();
  r.rows_output = xs.rows_output.load();
  return r;
}

void ServerWindow::Begin(World& w) { begin_ = Read(w); }

void ServerWindow::End(World& w) {
  const Raw e = Read(w);
  const Raw& b = begin_;
  seconds = MsBetween(b.at, e.at) / 1000.0;
  queue_wait_n = e.queue_wait.count - b.queue_wait.count;
  queue_wait_ns = e.queue_wait.sum_ns - b.queue_wait.sum_ns;
  lock_wait_n = e.lock_wait.count - b.lock_wait.count;
  lock_wait_ns = e.lock_wait.sum_ns - b.lock_wait.sum_ns;
  epoch_pin_n = e.epoch_pin.count - b.epoch_pin.count;
  epoch_pin_ns = e.epoch_pin.sum_ns - b.epoch_pin.sum_ns;
  memo_hits = e.memo_hits - b.memo_hits;
  memo_misses = e.memo_misses - b.memo_misses;
  blocks_skipped = e.blocks_skipped - b.blocks_skipped;
  blocks_bulk = e.blocks_bulk - b.blocks_bulk;
  blocks_mixed = e.blocks_mixed - b.blocks_mixed;
  static_hits = e.static_hits - b.static_hits;
  static_misses = e.static_misses - b.static_misses;
  cache_hits = e.cache.hits - b.cache.hits;
  cache_misses = e.cache.misses - b.cache.misses;
  cache_invalidations = e.cache.invalidations - b.cache.invalidations;
  rows_scanned = e.rows_scanned - b.rows_scanned;
  rows_output = e.rows_output - b.rows_output;
  audit_fold_rows = e.audit_fold_rows - b.audit_fold_rows;
}

namespace {

double UsSince(Clock::time_point t) { return MsSince(t) * 1000.0; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

ReplayResult Replay(World& w, const std::vector<ReplayStmt>& stmts,
                    int reps) {
  ReplayResult r;
  core::EnforcementMonitor& m = *w.monitor;
  for (const ReplayStmt& s : stmts) {
    for (int i = 0; i < reps; ++i) {
      auto t = Clock::now();
      auto parsed = sql::ParseSelect(s.sql);
      r.parse_us.push_back(UsSince(t));
      t = Clock::now();
      auto purpose = m.CheckAccess(s.purpose_id, "", s.sql);
      r.check_us.push_back(UsSince(t));
      t = Clock::now();
      auto prepared = m.Prepare(s.sql, s.purpose_id);
      r.prepare_us.push_back(UsSince(t));
      if (!parsed.ok() || !purpose.ok() || !prepared.ok()) ++r.errors;
    }
    auto prepared = m.Prepare(s.sql, s.purpose_id);
    if (!prepared.ok()) continue;
    const uint64_t checks_before = m.compliance_checks();
    auto t = Clock::now();
    auto rs = m.ExecutePrepared(**prepared, s.sql, s.purpose_id, "");
    r.exec_ms[static_cast<int>(s.shape)].push_back(MsSince(t));
    r.checks += m.compliance_checks() - checks_before;
    ++r.executed;
    if (!rs.ok()) {
      ++r.errors;
      continue;
    }
    r.rows_out += rs->rows.size();
    t = Clock::now();
    auto plain = m.ExecuteUnrestricted(s.sql);
    r.unenforced_s += MsSince(t) / 1000.0;
    if (!plain.ok()) ++r.errors;
  }
  return r;
}

void AddLayerMetrics(const LayerInputs& in, Outcome* out) {
  const ReplayResult& r = in.replay;
  const ServerWindow& win = in.window;
  const std::string replay_n =
      " (decomposed replay, server idle, n=" + std::to_string(r.parse_us.size()) +
      ")";
  out->Add("sql.parse_us", Median(r.parse_us), "us",
           "span sql::ParseSelect" + replay_n);
  out->Add("core.check_access_us", Median(r.check_us), "us",
           "span EnforcementMonitor::CheckAccess" + replay_n);
  out->Add("core.prepare_p50_us", Median(r.prepare_us), "us",
           "span EnforcementMonitor::Prepare" + replay_n);
  out->Add("core.prepare_p99_us", Percentile(r.prepare_us, 99), "us",
           "span EnforcementMonitor::Prepare" + replay_n + ", " +
               std::to_string(SamplesBeyond(r.prepare_us.size(), 99)) +
               " beyond p99");
  out->Add("core.checks_per_stmt",
           Ratio(static_cast<double>(r.checks), static_cast<double>(r.executed)),
           "count",
           "compliance_checks() delta over ExecutePrepared at DOP 1, n=" +
               std::to_string(r.executed));
  out->Add("core.memo_hit_rate",
           Ratio(static_cast<double>(win.memo_hits),
                 static_cast<double>(win.memo_hits + win.memo_misses)),
           "ratio", "registry enforce.verdict_memo_hits/misses, traced window");
  out->Add("core.static_hit_rate",
           Ratio(static_cast<double>(win.static_hits),
                 static_cast<double>(win.static_hits + win.static_misses)),
           "ratio", "Snapshot() static_cache_hits/misses, traced window");
  static const char* kShapeNames[] = {"single", "join", "agg"};
  for (int s = 0; s < 3; ++s) {
    out->Add(std::string("engine.exec_") + kShapeNames[s] + "_ms",
             Median(r.exec_ms[s]), "ms",
             "span EnforcementMonitor::ExecutePrepared, Fig. 5 class " +
                 std::string(kShapeNames[s]) + ", n=" +
                 std::to_string(r.exec_ms[s].size()));
  }
  out->Add("engine.unenforced_pass_s", r.unenforced_s, "s",
           "span EnforcementMonitor::ExecuteUnrestricted, summed over the " +
               std::to_string(r.executed) + " replayed statements");
  out->Add("engine.zone_blocks_skipped_frac",
           Ratio(static_cast<double>(win.blocks_skipped),
                 static_cast<double>(win.blocks_skipped + win.blocks_bulk +
                                     win.blocks_mixed)),
           "ratio", "registry enforce.blocks_skipped/bulk_accepted/mixed");
  out->Add("engine.rows_scanned_per_row_out",
           Ratio(static_cast<double>(win.rows_scanned),
                 static_cast<double>(win.rows_output)),
           "ratio", "exec_stats() rows_scanned/rows_output, traced window");
  out->Add("engine.lookup_after_write_ms", Median(in.lookup_after_write_ms),
           "ms",
           "span first SELECT issued after each completed write, n=" +
               std::to_string(in.lookup_after_write_ms.size()));
  out->Add("engine.dml_ms", Median(in.dml_ms), "ms",
           "span write minus parse and access-check spans, n=" +
               std::to_string(in.dml_ms.size()));
  out->Add("server.queue_wait_us",
           Ratio(static_cast<double>(win.queue_wait_ns) / 1000.0,
                 static_cast<double>(win.queue_wait_n)),
           "us", "registry pipeline.queue_wait mean, n=" +
                     std::to_string(win.queue_wait_n));
  out->Add("server.cache_hit_rate",
           Ratio(static_cast<double>(win.cache_hits),
                 static_cast<double>(win.cache_hits + win.cache_misses)),
           "ratio", "cache_stats() hits/(hits+misses), traced window");
  out->Add("server.cache_invalidations",
           static_cast<double>(win.cache_invalidations), "count",
           "cache_stats() invalidations, traced window");
  out->Add("server.session_open_us", Median(in.session_open_us), "us",
           "span EnforcementServer::OpenSession, n=" +
               std::to_string(in.session_open_us.size()));
  out->Add("server.stw_ms", Median(in.stw_ms), "ms",
           "span WithExclusive callback entry (world stopped) to return, n=" +
               std::to_string(in.stw_ms.size()));
  out->Add("server.epoch_retired_pending_max",
           static_cast<double>(in.retired_pending_max), "count",
           "Snapshot() epoch_retired_pending, max over samples");
  out->Add("server.audit_fold_rows_per_s",
           Ratio(static_cast<double>(win.audit_fold_rows), win.seconds),
           "rows/s", "Snapshot() audit_fold_rows delta / traced window");
  double read_total_ms = 0;
  for (double v : in.read_ms) read_total_ms += v;
  const double attributed_ms =
      static_cast<double>(win.queue_wait_ns + win.lock_wait_ns +
                          win.epoch_pin_ns) /
      1e6;
  out->Add("unattributed_frac",
           Ratio(read_total_ms - attributed_ms, read_total_ms), "ratio",
           "client SELECT spans minus registry pipeline.queue_wait + "
           "pipeline.lock_wait + server.epoch_pin sums, over client spans");
  out->Add("obs.trace_overhead_frac",
           Ratio(in.traced_read_ms - in.plain_read_ms, in.plain_read_ms),
           "ratio", "median SELECT latency, traced window vs untraced window");
}

std::vector<AuditRow> ReadAuditTrail(World& w, uint64_t expected,
                                     Outcome* out) {
  std::vector<AuditRow> rows;
  auto rs = w.monitor->ExecuteUnrestricted(
      std::string("SELECT * FROM ") + core::EnforcementMonitor::kAuditTable);
  if (!rs.ok()) {
    out->Mismatch("audit trail unreadable: " + rs.status().ToString());
    return rows;
  }
  auto col = [&rs](const char* name) {
    const auto& names = rs->column_names;
    return static_cast<size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
  };
  const size_t seq = col("seq"), ap = col("ap"), qy = col("qy"),
               outcome = col("outcome"), checks = col("checks"),
               nrows = col("rows");
  rows.reserve(rs->rows.size());
  for (const auto& row : rs->rows) {
    AuditRow a;
    a.seq = static_cast<uint64_t>(row[seq].AsInt());
    a.purpose_id = row[ap].AsString();
    a.sql = row[qy].AsString();
    a.outcome = row[outcome].AsString();
    a.checks = static_cast<uint64_t>(row[checks].AsInt());
    a.rows = row[nrows].AsInt();
    rows.push_back(std::move(a));
  }
  if (rows.size() != expected) {
    const uint64_t diff = rows.size() > expected ? rows.size() - expected
                                                 : expected - rows.size();
    out->Mismatch("audit_log holds " + std::to_string(rows.size()) +
                      " rows for " + std::to_string(expected) +
                      " statements issued",
                  diff);
  }
  return rows;
}

}  // namespace perfbench
