// adhoc_policy_churn: ad-hoc queries under policy churn. 100 patients x 10
// samples (10^3 sensed_data rows). Four closed-loop clients each open short
// sessions under random purposes p1-p8 and send texts drawn from
// RandomQueries over 154 derived seeds (3080 texts, about 3x the 1024-entry
// rewrite cache, and 8 purposes on top). About every 200 statements an
// administrator attaches a new policy to one watch's or one user's tuples
// (PolicyManager::AttachWhere inside WithExclusive), which stops the world
// and invalidates the rewrite and static-verdict caches. Execution is tiny,
// so parse, signature derivation, rewrite, the cache and stop-the-world
// dominate.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "harness/layers.h"
#include "harness/oracle.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "harness/world.h"
#include "workload/queries.h"

namespace perfbench {

using namespace aapac;

namespace {

constexpr size_t kPatients = 100;
constexpr size_t kSamples = 10;
constexpr size_t kClients = 4;
constexpr size_t kTextSeeds = 154;  // x 20 texts each.
constexpr uint64_t kUpdateEveryMin = 150;
constexpr uint64_t kUpdateEveryMax = 250;
constexpr uint64_t kSessionMax = 16;
constexpr int kTailPercentile = 99;
/// The statements (by completion order) every figure of a plain run covers.
constexpr uint64_t kRangeBegin = 20000;
constexpr uint64_t kRangeEnd = 80000;
/// Every this many audit rows, the direct path's check count is compared.
constexpr uint64_t kCheckSampleEvery = 50;

/// One statement as the client saw it. The policy epoch (updates applied)
/// is read before submission and after the answer: the statement ran
/// entirely inside one epoch of that bracket, since updates stop the world.
struct Stmt {
  uint32_t text = 0;
  uint32_t purpose = 0;
  uint32_t epoch_before = 0;
  uint32_t epoch_after = 0;
  /// Completion order within the run (1-based).
  uint64_t order = 0;
  bool ok = false;
  bool matched = false;
  uint64_t digest = 0;
  Clock::time_point issued;
  double ms = 0;
};

/// One administrative policy update.
struct Update {
  std::string table;
  std::string column;
  std::string value;
  std::string policy;
};

struct UpdateDone {
  uint64_t order = 0;           // Statements completed when it started.
  uint64_t audit_boundary = 0;  // Last audit seq before the update.
  double ms = 0;                // WithExclusive call, client side.
  double stw_ms = 0;            // Callback entry (world stopped) to return.
  double dml_ms = 0;            // The AttachWhere call.
  Clock::time_point done;
};

class Adhoc {
 public:
  Adhoc(const Options& opt, Outcome* out)
      : opt_(opt), out_(out), update_rng_(StreamSeed(opt.seed, 8)) {
    for (size_t i = 0; i < kTextSeeds; ++i) {
      for (auto& q : workload::RandomQueries(StreamSeed(opt.seed, 100 + i))) {
        texts_.push_back(std::move(q));
      }
    }
    for (size_t c = 0; c < kClients; ++c) {
      client_rng_.emplace_back(StreamSeed(opt.seed, 1000 + c));
    }
    next_update_at_ = NextInterval();
  }

  void Run() {
    WorldConfig config;
    config.patients = kPatients;
    config.samples = kSamples;
    config.seed = opt_.seed;
    double setup_s = 0;
    world_ = BuildWorldTimed(config, &setup_s);
    if (!opt_.trace) {
      Window w = Measure(opt_.seconds, nullptr);
      const double rss = PeakRssMb();
      // Every figure covers statements kRangeBegin..kRangeEnd of the run
      // and the policy updates among them. The audit trail then grows from
      // 20k to 80k rows in every run, and since each audit fold copies the
      // whole trail, comparing a fixed statement range compares like with
      // like whatever the throughput.
      std::vector<double> reads, writes;
      Clock::time_point first_done = Clock::time_point::max(), last_done;
      for (const auto& s : w.stmts) {
        if (!s.ok || s.order < kRangeBegin || s.order >= kRangeEnd) continue;
        reads.push_back(s.ms);
        const auto done =
            s.issued + std::chrono::nanoseconds(static_cast<int64_t>(s.ms * 1e6));
        first_done = std::min(first_done, done);
        last_done = std::max(last_done, done);
      }
      for (const auto& u : w.updates) {
        if (u.order >= kRangeBegin && u.order < kRangeEnd) writes.push_back(u.ms);
      }
      if (reads.size() < kRangeEnd - kRangeBegin) {
        out_->Note("only " + std::to_string(w.stmts.size()) +
                   " statements: the measured range was cut short");
      }
      const LatencySummary r = Summarize(reads, kTailPercentile);
      out_->Add("setup_s", setup_s, "s",
                "median of repeated set-ups (load, policies, audit, server start)");
      out_->Add("read_p50_ms", r.p50, "ms",
                "statement latency, statements " + std::to_string(kRangeBegin) +
                    ".." + std::to_string(kRangeEnd) + ", n=" +
                    std::to_string(r.n));
      out_->Add("read_tail_ms", r.tail, "ms",
                "statement latency p" + std::to_string(r.tail_q) + ", n=" +
                    std::to_string(r.n) + ", " + std::to_string(r.beyond) +
                    " beyond");
      const double range_s =
          reads.size() < 2 ? 0.0 : MsBetween(first_done, last_done) / 1000.0;
      out_->Add("throughput_qps",
                range_s > 0 ? static_cast<double>(reads.size()) / range_s : 0.0,
                "1/s",
                "statements completed per second over the range, " +
                    std::to_string(kClients) + " closed-loop clients");
      out_->Add("write_p50_ms", Median(writes), "ms",
                "policy update (AttachWhere in WithExclusive) latency, n=" +
                    std::to_string(writes.size()));
      out_->Add("rss_peak_mb", rss_at_range_end_ > 0 ? rss_at_range_end_ : rss,
                "MiB", "peak RSS (getrusage) when statement " + std::to_string(kRangeEnd) +
                           " completed");
    } else {
      const int half = std::max(1, opt_.seconds / 2);
      Window plain = Measure(half, nullptr);
      LayerInputs li;
      li.window.Begin(*world_);
      Window traced = Measure(half, &li);
      li.window.End(*world_);
      std::vector<double> plain_ms;
      for (const auto& s : plain.stmts) {
        if (s.ok) plain_ms.push_back(s.ms);
      }
      std::vector<const Stmt*> by_issue;
      for (const auto& s : traced.stmts) {
        if (s.ok) li.read_ms.push_back(s.ms);
        by_issue.push_back(&s);
      }
      std::sort(by_issue.begin(), by_issue.end(),
                [](const Stmt* a, const Stmt* b) { return a->issued < b->issued; });
      li.plain_read_ms = Median(plain_ms);
      li.traced_read_ms = Median(li.read_ms);
      for (const auto& u : traced.updates) {
        li.stw_ms.push_back(u.stw_ms);
        li.dml_ms.push_back(u.dml_ms);
        auto first = std::lower_bound(
            by_issue.begin(), by_issue.end(), u.done,
            [](const Stmt* s, Clock::time_point t) { return s->issued < t; });
        if (first != by_issue.end()) {
          li.lookup_after_write_ms.push_back((*first)->ms);
        }
      }
      li.retired_pending_max = traced.retired_pending_max;
      li.session_open_us = traced.session_open_us;
      std::vector<ReplayStmt> replay;
      for (const auto& s : traced.stmts) {
        if (replay.size() == 1200) break;
        replay.push_back({texts_[s.text].sql, PurposeIds()[s.purpose],
                          ShapeOf(texts_[s.text].description)});
      }
      li.replay = Replay(*world_, replay, 1);
      replay_executed_ = li.replay.executed;
      if (li.replay.errors != 0) {
        out_->Mismatch("replay errors", li.replay.errors);
      }
      AddLayerMetrics(li, out_);
    }
    Verify();
  }

 private:
  struct Window {
    std::vector<Stmt> stmts;
    std::vector<UpdateDone> updates;
    std::vector<double> session_open_us;
    size_t retired_pending_max = 0;
    Clock::time_point start;
    double seconds = 0;
  };

  uint64_t NextInterval() {
    return kUpdateEveryMin +
           update_rng_() % (kUpdateEveryMax - kUpdateEveryMin + 1);
  }

  Update NextUpdate() {
    Update u;
    const size_t k = update_rng_() % kPatients;
    if (update_rng_() % 10 < 7) {
      u.table = "sensed_data";
      u.column = "watch_id";
      u.value = "watch" + std::to_string(k);
    } else {
      u.table = "users";
      u.column = "user_id";
      u.value = "user" + std::to_string(k);
    }
    u.policy = RandomPolicyText(update_rng_, "");
    return u;
  }

  /// Runs the next scheduled policy update if `completed` statements have
  /// passed its threshold and no other client is already running it.
  void MaybeUpdate(uint64_t completed, Window* w, bool traced) {
    if (completed < next_update_at_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(update_mu_, std::try_to_lock);
    if (!lock.owns_lock() ||
        completed < next_update_at_.load(std::memory_order_acquire)) {
      return;
    }
    const Update u = NextUpdate();
    updates_.push_back(u);
    const core::Policy policy =
        ParsePolicyOrDie(*world_->catalog, u.table, u.policy);
    UpdateDone d;
    d.order = completed;
    Clock::time_point fn_start;
    const auto start = Clock::now();
    Status st = world_->server->WithExclusive([&]() -> Status {
      fn_start = Clock::now();
      d.audit_boundary = world_->monitor->audit_buffer()->last_seq();
      Status s = world_->policies->AttachWhere(policy, u.column,
                                               engine::Value::String(u.value));
      d.dml_ms = MsSince(fn_start);
      epoch_.fetch_add(1, std::memory_order_release);
      return s;
    });
    d.done = Clock::now();
    d.ms = MsBetween(start, d.done);
    d.stw_ms = MsBetween(fn_start, d.done);
    if (!st.ok()) update_errors_.push_back(st.ToString());
    if (traced) {
      w->retired_pending_max =
          std::max(w->retired_pending_max,
                   world_->server->Snapshot().epoch_retired_pending);
    }
    w->updates.push_back(d);
    boundaries_.push_back(d.audit_boundary);
    next_update_at_.store(completed + NextInterval(),
                          std::memory_order_release);
  }

  Window Measure(int seconds, LayerInputs* li) {
    server::EnforcementServer& srv = *world_->server;
    Window w;
    w.start = Clock::now();
    const auto end = w.start + std::chrono::seconds(seconds);
    // A plain run also lasts until statement kRangeEnd completed (at most
    // four times the window), so a slower build is still measured over the
    // whole range.
    const auto hard_end = w.start + std::chrono::seconds(4 * seconds);
    const bool need_range = li == nullptr;
    auto running = [&] {
      const auto now = Clock::now();
      return now < end || (need_range && now < hard_end &&
                           completed_.load(std::memory_order_relaxed) < kRangeEnd);
    };
    std::vector<std::vector<Stmt>> per_client(kClients);
    std::vector<std::vector<double>> open_us(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64& rng = client_rng_[c];
        while (running()) {
          const uint32_t purpose =
              static_cast<uint32_t>(rng() % PurposeIds().size());
          const uint64_t length = 1 + rng() % kSessionMax;
          const auto open_start = Clock::now();
          auto sid = srv.OpenSession("", PurposeIds()[purpose]);
          if (li != nullptr) open_us[c].push_back(MsSince(open_start) * 1e3);
          if (!sid.ok()) return;
          for (uint64_t i = 0; i < length && running(); ++i) {
            Stmt s;
            s.text = static_cast<uint32_t>(rng() % texts_.size());
            s.purpose = purpose;
            s.epoch_before = epoch_.load(std::memory_order_acquire);
            s.issued = Clock::now();
            auto rs = srv.Execute(*sid, texts_[s.text].sql);
            s.ms = MsSince(s.issued);
            s.epoch_after = epoch_.load(std::memory_order_acquire);
            s.ok = rs.ok();
            if (rs.ok()) s.digest = Digest(*rs);
            s.order = completed_.fetch_add(1) + 1;
            if (s.order == kRangeEnd) rss_at_range_end_ = PeakRssMb();
            per_client[c].push_back(s);
            MaybeUpdate(s.order, &w, li != nullptr);
          }
          srv.CloseSession(*sid);
        }
      });
    }
    for (auto& t : clients) t.join();
    w.seconds = MsSince(w.start) / 1000.0;
    for (size_t c = 0; c < kClients; ++c) {
      w.stmts.insert(w.stmts.end(), per_client[c].begin(),
                     per_client[c].end());
      w.session_open_us.insert(w.session_open_us.end(), open_us[c].begin(),
                               open_us[c].end());
    }
    for (const auto& s : w.stmts) {
      ++out_->attempted;
      if (!s.ok) ++out_->failed;
    }
    all_.insert(all_.end(), w.stmts.begin(), w.stmts.end());
    out_->Note("window " + std::to_string(seconds) + " s: " +
               std::to_string(w.stmts.size()) + " statements, " +
               std::to_string(w.updates.size()) + " policy updates");
    return w;
  }

  void Verify() {
    world_->server->Shutdown();
    for (const auto& e : update_errors_) out_->Mismatch("policy update: " + e);
    const std::vector<AuditRow> audit =
        ReadAuditTrail(*world_, all_.size() + replay_executed_, out_);
    // Audit rows by policy epoch: rows with seq <= boundary j ran before
    // update j.
    std::vector<std::vector<const AuditRow*>> audit_by_epoch(
        boundaries_.size() + 1);
    for (size_t i = 0; i < audit.size(); ++i) {
      const size_t epoch = static_cast<size_t>(
          std::lower_bound(boundaries_.begin(), boundaries_.end(),
                           audit[i].seq) -
          boundaries_.begin());
      if (i % kCheckSampleEvery == 0) audit_by_epoch[epoch].push_back(&audit[i]);
    }
    std::map<std::string, uint32_t> text_index;
    for (size_t i = 0; i < texts_.size(); ++i) {
      text_index.emplace(texts_[i].sql, static_cast<uint32_t>(i));
    }

    // Replay the policy history on a fresh copy of the same seeded system
    // and check every statement against the reference at each epoch of
    // its bracket.
    WorldConfig config;
    config.patients = kPatients;
    config.samples = kSamples;
    config.seed = opt_.seed;
    config.serve = false;
    std::unique_ptr<World> ref = BuildWorld(config);
    std::vector<std::vector<Stmt*>> by_epoch(boundaries_.size() + 1);
    for (Stmt& s : all_) {
      if (s.ok) by_epoch[s.epoch_before].push_back(&s);
    }
    std::vector<Stmt*> open;  // Bracket still covers the current epoch.
    size_t oracle_checked = 0, direct_checked = 0, checks_compared = 0;
    for (size_t e = 0; e <= boundaries_.size(); ++e) {
      open.insert(open.end(), by_epoch[e].begin(), by_epoch[e].end());
      std::vector<Stmt*> unsupported;
      std::mutex mu;
      std::vector<std::thread> pool;
      std::atomic<size_t> next{0};
      for (size_t t = 0; t < kClients; ++t) {
        pool.emplace_back([&] {
          ReferenceMonitor oracle(ref->db.get(), ref->catalog.get());
          for (size_t i = next++; i < open.size(); i = next++) {
            Stmt* s = open[i];
            auto rs = oracle.Execute(texts_[s->text].sql,
                                     PurposeIds()[s->purpose]);
            if (rs.ok()) {
              if (Digest(*rs) == s->digest) s->matched = true;
            } else {
              std::lock_guard<std::mutex> lock(mu);
              unsupported.push_back(s);
            }
          }
        });
      }
      for (auto& t : pool) t.join();
      oracle_checked += open.size() - unsupported.size();
      for (Stmt* s : unsupported) {
        auto rs = ref->monitor->ExecuteQuery(texts_[s->text].sql,
                                             PurposeIds()[s->purpose]);
        ++direct_checked;
        if (rs.ok() && Digest(*rs) == s->digest) s->matched = true;
      }
      for (const AuditRow* a : audit_by_epoch[e]) {
        if (text_index.count(a->sql) == 0) continue;  // Not a client text.
        const uint64_t before = ref->monitor->compliance_checks();
        auto rs = ref->monitor->ExecuteQuery(a->sql, a->purpose_id);
        const uint64_t checks = ref->monitor->compliance_checks() - before;
        ++checks_compared;
        if (!rs.ok() || checks != a->checks ||
            static_cast<int64_t>(rs->rows.size()) != a->rows) {
          out_->Mismatch("audit seq " + std::to_string(a->seq) +
                         " checks/rows differ from the direct path");
        }
      }
      // Statements whose bracket ends here must have matched by now.
      std::vector<Stmt*> still_open;
      for (Stmt* s : open) {
        if (s->matched) continue;
        if (s->epoch_after > e) {
          still_open.push_back(s);
        } else {
          out_->Mismatch("'" + texts_[s->text].sql + "' under " +
                         PurposeIds()[s->purpose] +
                         " matches no reference in its policy epochs");
        }
      }
      open.swap(still_open);
      if (e < updates_.size()) {
        const Update& u = updates_[e];
        const core::Policy policy =
            ParsePolicyOrDie(*ref->catalog, u.table, u.policy);
        Status st = ref->policies->AttachWhere(policy, u.column,
                                               engine::Value::String(u.value));
        if (!st.ok()) out_->Mismatch("replayed update: " + st.ToString());
      }
    }
    out_->Note("reference checked " + std::to_string(oracle_checked) +
               " statement-epochs by brute force and " +
               std::to_string(direct_checked) + " by the direct path; " +
               std::to_string(checks_compared) +
               " sampled audit rows' check counts; " +
               std::to_string(boundaries_.size()) + " policy epochs; audit rows " +
               std::to_string(audit.size()));
  }

  const Options& opt_;
  Outcome* out_;
  std::vector<workload::BenchQuery> texts_;
  std::vector<std::mt19937_64> client_rng_;
  std::unique_ptr<World> world_;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> next_update_at_{0};
  std::mutex update_mu_;  // Serializes policy updates and guards below.
  std::mt19937_64 update_rng_;
  std::vector<Update> updates_;
  std::vector<uint64_t> boundaries_;
  std::vector<std::string> update_errors_;
  std::vector<Stmt> all_;
  uint64_t replay_executed_ = 0;
  /// Written once, by the client completing statement kRangeEnd; read after
  /// the clients are joined.
  double rss_at_range_end_ = 0;
};

}  // namespace

Outcome RunAdhocPolicyChurn(const Options& options) {
  Outcome out;
  Adhoc(options, &out).Run();
  return out;
}

}  // namespace perfbench
