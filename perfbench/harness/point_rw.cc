// point_rw: enforced point lookups under a write stream. 10000 watches x
// 100 samples (10^6 sensed_data rows), s = 0.4, hash index on watch_id.
// An open loop sends lookups at a fixed rate with Zipf-skewed keys over all
// 10^4 watches, through three reader sessions whose purposes rotate over
// p1-p8; one writer session sends single-row INSERT (with policy), UPDATE
// and DELETE at a fixed rate, holding the table size constant. Index probes
// make reads cheap, so the write path (copy-on-write table versions, stale
// index rebuild, epoch publish) dominates, and most key texts miss the
// rewrite cache.
#include <algorithm>
#include <future>
#include <map>
#include <numeric>
#include <random>
#include <thread>

#include "harness/layers.h"
#include "harness/oracle.h"
#include "harness/schedule.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "harness/world.h"
#include "harness/zipf.h"
#include "sql/parser.h"

namespace perfbench {

using namespace aapac;

namespace {

constexpr size_t kPatients = 10000;
constexpr size_t kSamples = 100;
/// Fixed offered rates, about half of capacity: on a 4-vCPU machine
/// --capacity found 2000 lookups/s the highest rate with no rejected
/// request, and 2.75 writes/s for a closed-loop writer.
constexpr double kLookupRate = 1000;
constexpr double kWriteRate = 1.5;
constexpr size_t kReaderSessions = 3;
/// Lookups a reader session serves before it is closed and reopened under
/// the next purpose.
constexpr uint64_t kRotateEvery = 100;
constexpr double kZipfSkew = 0.99;
constexpr int kTailPercentile = 99;
/// p99 generator lateness above which a run is invalid.
constexpr double kLagBoundMs = 10.0;
constexpr char kWriterPurpose[] = "p1";
/// Writer rows use watch ids beyond the readers' key space, so every
/// lookup's answer is fixed for the whole run and can be checked.
constexpr size_t kWriterWatches = 97;

std::string LookupSql(size_t key) {
  return "SELECT watch_id, timestamp, beats FROM sensed_data WHERE watch_id "
         "= 'watch" + std::to_string(key) + "'";
}

struct Lookup {
  size_t key = 0;
  size_t purpose = 0;
  Clock::time_point due, issued, done;
  bool rejected = false;
  bool ok = false;
  uint64_t digest = 0;
  size_t rows = 0;
  double ms() const { return MsBetween(due, done); }
};

struct Write {
  std::string sql;
  int kind = 0;  // 0 insert, 1 update, 2 delete.
  Clock::time_point due, start, done;
  /// Empty when the statement changed exactly one row.
  std::string error;
  double ms() const { return MsBetween(due, done); }
};

struct Window {
  std::vector<Lookup> lookups;
  std::vector<Write> writes;
  double lag_p99_ms = 0, lag_max_ms = 0;
  Clock::time_point start;
  size_t retired_pending_max = 0;
};

class PointRw {
 public:
  PointRw(const Options& opt, Outcome* out)
      : opt_(opt),
        out_(out),
        zipf_(kPatients, kZipfSkew, StreamSeed(opt.seed, 3)),
        purpose_rng_(StreamSeed(opt.seed, 4)),
        writer_rng_(StreamSeed(opt.seed, 5)) {}

  void Run() {
    WorldConfig config;
    config.patients = kPatients;
    config.samples = kSamples;
    config.watch_index = true;
    config.seed = opt_.seed;
    double setup_s = 0;
    world_ = BuildWorldTimed(config, &setup_s);
    server::EnforcementServer& srv = *world_->server;
    auto writer = srv.OpenSession("", kWriterPurpose);
    if (!writer.ok()) {
      out_->Mismatch("open writer session: " + writer.status().ToString());
      return;
    }
    writer_ = *writer;
    for (size_t s = 0; s < kReaderSessions; ++s) Rotate(s, nullptr);
    // Warm-up: builds the index and faults in the engine state, with keys
    // from a stream of its own.
    ZipfKeys warm(kPatients, kZipfSkew, StreamSeed(opt_.seed, 6));
    for (int i = 0; i < 300; ++i) {
      const size_t key = warm.Next();
      auto rs = srv.Execute(sessions_[0], LookupSql(key));
      ++out_->attempted;
      ++issued_;
      if (!rs.ok()) ++out_->failed;
    }
    if (opt_.capacity) {
      Capacity();
      return;
    }
    if (!opt_.trace) {
      Window w = Measure(opt_.seconds, kLookupRate, nullptr);
      const double rss = PeakRssMb();
      std::vector<double> reads, writes;
      for (const auto& l : w.lookups) {
        if (l.ok) reads.push_back(l.ms());
      }
      for (const auto& wr : w.writes) writes.push_back(wr.ms());
      const LatencySummary r = Summarize(reads, kTailPercentile);
      const LatencySummary wl = Summarize(writes, 50);
      out_->Add("setup_s", setup_s, "s",
                "median of repeated set-ups (load, policies, index DDL, audit, "
                "server start)");
      out_->Add("read_p50_ms", r.p50, "ms",
                "lookup latency from due time, n=" + std::to_string(r.n));
      out_->Add("read_tail_ms", r.tail, "ms",
                "lookup latency from due time, p" + std::to_string(r.tail_q) +
                    ", n=" + std::to_string(r.n) + ", " +
                    std::to_string(r.beyond) + " beyond");
      Clock::time_point last = w.start;
      for (const auto& l : w.lookups) last = std::max(last, l.done);
      for (const auto& wr : w.writes) last = std::max(last, wr.done);
      out_->Add("throughput_qps",
                static_cast<double>(reads.size() + writes.size()) /
                    (MsBetween(w.start, last) / 1000.0),
                "1/s", "completed statements / time to the last completion, "
                       "at " + std::to_string(static_cast<int>(kLookupRate)) +
                           " lookups/s offered");
      out_->Add("write_p50_ms", wl.p50, "ms",
                "single-row DML latency from due time, n=" +
                    std::to_string(wl.n));
      out_->Add("rss_peak_mb", rss, "MiB", "peak RSS (getrusage) after the measured window");
      const int wq = HighestSupportedPercentile(writes.size(), 99);
      out_->Note("write tail: " +
                 (wq == 0 ? std::string("fewer than 10 samples beyond p50")
                          : "p" + std::to_string(wq) + " = " +
                                std::to_string(Percentile(writes, wq)) +
                                " ms") +
                 " over " + std::to_string(writes.size()) + " writes");
    } else {
      const int half = std::max(1, opt_.seconds / 2);
      Window plain = Measure(half, kLookupRate, nullptr);
      LayerInputs li;
      li.window.Begin(*world_);
      Window traced = Measure(half, kLookupRate, &li);
      li.window.End(*world_);
      std::vector<double> plain_ms;
      for (const auto& l : plain.lookups) {
        if (l.ok) plain_ms.push_back(l.ms());
      }
      for (const auto& l : traced.lookups) {
        if (l.ok) li.read_ms.push_back(l.ms());
      }
      li.plain_read_ms = Median(plain_ms);
      li.traced_read_ms = Median(li.read_ms);
      li.retired_pending_max = traced.retired_pending_max;
      for (const auto& wr : traced.writes) {
        auto first = std::lower_bound(
            traced.lookups.begin(), traced.lookups.end(), wr.done,
            [](const Lookup& l, Clock::time_point t) { return l.issued < t; });
        if (first != traced.lookups.end() && first->ok) {
          li.lookup_after_write_ms.push_back(first->ms());
        }
      }
      // Server idle from here on: the replay and the parse/check spans of
      // the write texts.
      std::vector<ReplayStmt> replay;
      for (const auto& l : traced.lookups) {
        if (replay.size() == 1200) break;
        replay.push_back({LookupSql(l.key), PurposeIds()[l.purpose],
                          Shape::kSingle});
      }
      li.replay = Replay(*world_, replay, 1);
      replay_executed_ = li.replay.executed;
      if (li.replay.errors != 0) {
        out_->Mismatch("replay errors", li.replay.errors);
      }
      for (const auto& wr : traced.writes) {
        auto t = Clock::now();
        (void)sql::ParseStatement(wr.sql);
        const double parse_ms = MsSince(t);
        t = Clock::now();
        (void)world_->monitor->CheckAccess(kWriterPurpose, "", "");
        li.dml_ms.push_back(MsBetween(wr.start, wr.done) - parse_ms -
                            MsSince(t));
      }
      AddLayerMetrics(li, out_);
    }
    Verify();
  }

 private:
  /// (Re)opens reader session `s` under the next purpose of the seeded
  /// rotation; at most kReaderSessions + 1 sessions are ever open.
  void Rotate(size_t s, std::vector<double>* open_us) {
    server::EnforcementServer& srv = *world_->server;
    if (sessions_[s] != 0) srv.CloseSession(sessions_[s]);
    purpose_[s] = purpose_rng_() % PurposeIds().size();
    const auto start = Clock::now();
    auto sid = srv.OpenSession("", PurposeIds()[purpose_[s]]);
    if (open_us != nullptr) open_us->push_back(MsSince(start) * 1e3);
    if (!sid.ok()) {
      out_->Mismatch("open reader session: " + sid.status().ToString());
      sessions_[s] = 0;
      return;
    }
    sessions_[s] = *sid;
  }

  Window Measure(int seconds, double rate, LayerInputs* li) {
    server::EnforcementServer& srv = *world_->server;
    Window w;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    w.start = start;
    const auto end = start + std::chrono::seconds(seconds);
    OpenLoopSchedule lookups(start, rate);
    w.lookups.reserve(static_cast<size_t>(rate * seconds) + 16);

    std::thread writer([&] { WriteLoop(start, end, &w, li != nullptr); });

    // One generator thread sends on schedule and polls its in-flight
    // requests between sends, instead of sleeping: a sleeping generator
    // would add its own wake-up latency, which varies with the host, to
    // every due-time and completion timestamp.
    using Response = std::future<Result<engine::ResultSet>>;
    std::vector<std::pair<size_t, Response>> inflight;
    std::vector<std::pair<size_t, Result<engine::ResultSet>>> to_digest;
    uint64_t served[kReaderSessions] = {};
    uint64_t i = 0;
    bool sending = true;
    while (sending || !inflight.empty() || !to_digest.empty()) {
      auto now = Clock::now();
      for (size_t k = 0; k < inflight.size();) {
        if (inflight[k].second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        w.lookups[inflight[k].first].done = Clock::now();
        to_digest.emplace_back(inflight[k].first, inflight[k].second.get());
        inflight[k] = std::move(inflight.back());
        inflight.pop_back();
      }
      now = Clock::now();
      const auto due = lookups.Due(i);
      if (sending && due >= end) sending = false;
      if (sending && due <= now) {
        const size_t sess = i % kReaderSessions;
        if (served[sess] > 0 && served[sess] % kRotateEvery == 0) {
          Rotate(sess, li != nullptr ? &li->session_open_us : nullptr);
        }
        ++served[sess];
        Lookup l;
        l.key = zipf_.Next();
        l.purpose = purpose_[sess];
        l.due = due;
        l.issued = Clock::now();
        lookups.NoteIssued(i, l.issued);
        auto future = srv.Submit(sessions_[sess], LookupSql(l.key));
        l.rejected = !future.ok();
        w.lookups.push_back(l);
        if (future.ok()) {
          inflight.emplace_back(w.lookups.size() - 1, *std::move(future));
        }
        ++i;
        continue;
      }
      // Digest answers only while the next send is not imminent.
      if (!to_digest.empty() &&
          (!sending || due - now > std::chrono::microseconds(200))) {
        auto& [index, rs] = to_digest.back();
        Lookup& l = w.lookups[index];
        l.ok = rs.ok();
        if (rs.ok()) {
          l.digest = Digest(*rs);
          l.rows = rs->rows.size();
        }
        to_digest.pop_back();
        continue;
      }
      std::this_thread::yield();
    }
    writer.join();
    w.lag_p99_ms = lookups.lag_p99_ms();
    w.lag_max_ms = lookups.lag_max_ms();
    for (const auto& wr : w.writes) {
      ++out_->attempted;
      ++writes_issued_;
      if (!wr.error.empty()) out_->Mismatch("write '" + wr.sql + "' -> " + wr.error);
    }
    for (const auto& l : w.lookups) {
      ++out_->attempted;
      if (l.rejected || !l.ok) {
        ++out_->failed;
      } else {
        ++issued_;
      }
      if (!l.ok) continue;
      auto [it, fresh] = answers_.try_emplace(
          std::make_pair(l.key, l.purpose), Answer{l.digest, l.rows, 0});
      ++it->second.executions;
      if (!fresh && (it->second.digest != l.digest ||
                     it->second.rows != l.rows)) {
        out_->Mismatch("lookup watch" + std::to_string(l.key) + " under " +
                       PurposeIds()[l.purpose] + " changed during the run");
      }
    }
    out_->Note("window " + std::to_string(seconds) + " s: generator lag p99 " +
               std::to_string(w.lag_p99_ms) + " ms, max " +
               std::to_string(w.lag_max_ms) + " ms (bound p99 <= " +
               std::to_string(kLagBoundMs) + " ms)");
    if (!lookups.WithinBound(kLagBoundMs)) {
      out_->invalid = "generator lag p99 " + std::to_string(w.lag_p99_ms) +
                      " ms exceeds " + std::to_string(kLagBoundMs) + " ms";
    }
    return w;
  }

  /// The writer connection: INSERT, UPDATE, DELETE of one row at a time,
  /// at kWriteRate, each timed from its due time.
  void WriteLoop(Clock::time_point start, Clock::time_point end, Window* w,
                 bool traced) {
    server::EnforcementServer& srv = *world_->server;
    UsePreciseSleeps();
    OpenLoopSchedule schedule(start, kWriteRate);
    for (uint64_t j = 0;; ++j) {
      Write wr;
      wr.due = schedule.Due(j);
      if (wr.due >= end) break;
      std::this_thread::sleep_until(wr.due);
      const uint64_t row = write_ops_ / 3;
      wr.kind = static_cast<int>(write_ops_ % 3);
      const std::string where =
          " WHERE watch_id = 'watch" +
          std::to_string(kPatients + row % kWriterWatches) +
          "' AND timestamp = " + std::to_string(row + 1);
      Result<size_t> n = Status::OK();
      if (wr.kind == 0) {
        wr.sql = "INSERT INTO sensed_data (watch_id, timestamp, temperature, "
                 "position, beats) VALUES ('watch" +
                 std::to_string(kPatients + row % kWriterWatches) + "', " +
                 std::to_string(row + 1) + ", 37.5, 'sitting', " +
                 std::to_string(60 + writer_rng_() % 80) + ")";
        const core::Policy policy = ParsePolicyOrDie(
            *world_->catalog, "sensed_data",
            RandomPolicyText(writer_rng_, kWriterPurpose));
        wr.start = Clock::now();
        n = srv.ExecuteInsert(writer_, wr.sql, &policy);
      } else if (wr.kind == 1) {
        wr.sql = "UPDATE sensed_data SET beats = " +
                 std::to_string(60 + writer_rng_() % 80) + where;
        wr.start = Clock::now();
        n = srv.ExecuteUpdate(writer_, wr.sql);
      } else {
        wr.sql = "DELETE FROM sensed_data" + where;
        wr.start = Clock::now();
        n = srv.ExecuteDelete(writer_, wr.sql);
      }
      wr.done = Clock::now();
      ++write_ops_;
      if (!n.ok() || *n != 1) {
        wr.error = n.ok() ? std::to_string(*n) + " rows" : n.status().ToString();
      }
      if (traced) {
        w->retired_pending_max = std::max(
            w->retired_pending_max, srv.Snapshot().epoch_retired_pending);
      }
      w->writes.push_back(std::move(wr));
    }
  }

  /// Capacity probe: the fixed-rate run at doubling lookup rates. The
  /// capacity is the highest rate with no rejected request and the
  /// generator within its bound; the fixed rate is set at about half of it.
  void Capacity() {
    for (double rate = 250; rate <= 32000; rate *= 2) {
      const uint64_t failed_before = out_->failed;
      Window w = Measure(opt_.seconds, rate, nullptr);
      std::vector<double> ms;
      for (const auto& l : w.lookups) {
        if (l.ok) ms.push_back(l.ms());
      }
      out_->Note("capacity probe " + std::to_string(rate) + " lookups/s: " +
                 std::to_string(out_->failed - failed_before) +
                 " failed, p50 " + std::to_string(Median(ms)) + " ms, p99 " +
                 std::to_string(Percentile(ms, 99)) + " ms, generator lag p99 " +
                 std::to_string(w.lag_p99_ms) + " ms");
      if (out_->failed > failed_before || !out_->invalid.empty()) break;
    }
    out_->invalid = "capacity probe only";
  }

  void Verify() {
    world_->server->Shutdown();
    const std::vector<AuditRow> audit =
        ReadAuditTrail(*world_, issued_ + writes_issued_ + replay_executed_, out_);
    // Direct-path reference (rows, digest, check count) for every distinct
    // (key, purpose) the run looked up.
    std::map<std::pair<std::string, std::string>, std::pair<uint64_t, size_t>>
        ref_checks;
    for (auto& [kp, answer] : answers_) {
      const std::string sql = LookupSql(kp.first);
      const std::string& purpose = PurposeIds()[kp.second];
      const uint64_t before = world_->monitor->compliance_checks();
      auto rs = world_->monitor->ExecuteQuery(sql, purpose);
      const uint64_t checks = world_->monitor->compliance_checks() - before;
      if (!rs.ok() || Digest(*rs) != answer.digest) {
        out_->Mismatch(sql + " under " + purpose +
                           " differs from the direct path",
                       answer.executions);
        continue;
      }
      ref_checks[{sql, purpose}] = {checks, rs->rows.size()};
    }
    for (const AuditRow& a : audit) {
      auto it = ref_checks.find({a.sql, a.purpose_id});
      if (it != ref_checks.end()) {
        if (a.checks != it->second.first ||
            a.rows != static_cast<int64_t>(it->second.second)) {
          out_->Mismatch("audit checks/rows for '" + a.sql + "' under " +
                         a.purpose_id);
        }
      } else if (a.sql.rfind("SELECT", 0) != 0 &&
                 (a.rows != 1 || a.outcome != "ok")) {
        out_->Mismatch("audit row for write '" + a.sql + "'");
      }
    }
    // Brute-force reference monitor on a seeded sample: up to 10 keys under
    // each of 4 purposes (one compliant clone per purpose).
    std::mt19937_64 rng(StreamSeed(opt_.seed, 7));
    std::vector<size_t> purposes(PurposeIds().size());
    std::iota(purposes.begin(), purposes.end(), size_t{0});
    std::shuffle(purposes.begin(), purposes.end(), rng);
    ReferenceMonitor oracle(world_->db.get(), world_->catalog.get());
    size_t checked = 0;
    for (size_t p = 0; p < 4; ++p) {
      std::vector<std::pair<size_t, const Answer*>> keys;
      for (const auto& [kp, answer] : answers_) {
        if (kp.second == purposes[p]) keys.emplace_back(kp.first, &answer);
      }
      std::shuffle(keys.begin(), keys.end(), rng);
      keys.resize(std::min<size_t>(keys.size(), 10));
      for (const auto& [key, answer] : keys) {
        auto rs = oracle.Execute(LookupSql(key), PurposeIds()[purposes[p]]);
        ++checked;
        if (!rs.ok() || Digest(*rs) != answer->digest) {
          out_->Mismatch(LookupSql(key) + " under " + PurposeIds()[purposes[p]] +
                             " differs from the reference monitor",
                         answer->executions);
        }
      }
    }
    out_->Note("oracle checked " + std::to_string(checked) + " of " +
               std::to_string(answers_.size()) +
               " distinct (key, purpose) lookups; direct path checked all; "
               "audit rows " + std::to_string(audit.size()));
  }

  struct Answer {
    uint64_t digest = 0;
    size_t rows = 0;
    uint64_t executions = 0;
  };

  const Options& opt_;
  Outcome* out_;
  std::unique_ptr<World> world_;
  ZipfKeys zipf_;
  std::mt19937_64 purpose_rng_;
  std::mt19937_64 writer_rng_;
  server::SessionId writer_ = 0;
  server::SessionId sessions_[kReaderSessions] = {};
  size_t purpose_[kReaderSessions] = {};
  uint64_t write_ops_ = 0;
  uint64_t writes_issued_ = 0;
  uint64_t issued_ = 0;
  uint64_t replay_executed_ = 0;
  std::map<std::pair<size_t, size_t>, Answer> answers_;
};

}  // namespace

Outcome RunPointRw(const Options& options) {
  Outcome out;
  PointRw(options, &out).Run();
  return out;
}

}  // namespace perfbench
