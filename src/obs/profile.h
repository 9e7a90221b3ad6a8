#ifndef AAPAC_OBS_PROFILE_H_
#define AAPAC_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/result.h"

namespace aapac::obs {

// ---------------------------------------------------------------------------
// Operator-level query profiling.
//
// A QueryProfile is a per-statement tree of operator records mirroring the
// executed plan: every executor node (row scan, vec scan, hash-join probe,
// aggregate, sort, ...) records rows in/out, wall time and enforcement
// attribution — verdict-memo hits/misses, zone-map block verdicts, batches
// processed, fallback rows and checks settled arithmetically.
//
// Collection follows the CheckTally discipline exactly: worker threads
// accumulate into a plain thread-local EnforceTally (ProfileTally below),
// the morsel driver folds pool-thread deltas back into the calling thread
// at operator close, and the driver-side OpScope (engine/exec.cc) reads
// before/after deltas. That makes rows in/out, checks, memo_hits,
// memo_misses, zone_checks and static_checks identical at any DOP
// (ProfileTallyTest, VerdictMemoTest). It does not make the zone-block
// fields DOP-invariant: blocks_skipped/bulk/mixed and rows_zone_skipped
// depend on the order in which the statement's verdict memo fills, because
// when a zone block spans several morsels each morsel decides its fragment
// against the memo as it stands (DecideBlock in row_scan.cc, vec_scan.cc) —
// a block a cold serial pass reports mixed can be skipped by a later
// morsel. The batches_* and fallback_rows fields follow the morsel and
// batch geometry.
//
// Like TraceStore, the store keeps a thread-local open slot plus a ring of
// the most recent published profiles; the profile id is stamped into the
// statement's audit_log row (column `profile`) next to the trace id. With
// AAPAC_OBS_OFF everything here compiles to no-ops.
// ---------------------------------------------------------------------------

/// Runtime kill switch for profile collection (the "sampling" knob): with
/// profiling disabled, Begin returns 0 and BeginOp/FinishOp no-op, so the
/// per-operator clock reads and node appends vanish while the cheap
/// thread-local tally bumps (which also feed the decision ledger) stay
/// live. Default on; bench_fig6_checks measures the off-state under the
/// AAPAC_OBS_ASSERT budget.
void SetProfilingEnabled(bool enabled);
bool ProfilingEnabled();

/// Plain per-thread accumulator of enforcement attribution. Bumped from the
/// monitor's UDF callbacks and the scan executors on whatever thread runs
/// the tuple work; folded across threads only at operator close (morsel
/// driver) — never read concurrently.
struct EnforceTally {
  uint64_t memo_hits = 0;       // Verdict-memo replays, incl. zone settles.
  uint64_t memo_misses = 0;     // Real CompliesWithPacked sweeps (fills).
  uint64_t zone_checks = 0;     // Checks settled arithmetically by zone maps.
  uint64_t static_checks = 0;   // Checks settled by bind-time static verdicts.
  uint64_t blocks_skipped = 0;  // Zone block decisions by kind.
  uint64_t blocks_bulk = 0;
  uint64_t blocks_mixed = 0;
  uint64_t rows_zone_skipped = 0;  // Rows whose compliance was never evaluated.
  uint64_t batches_formed = 0;     // Vectorized batches (see obs/metrics.h).
  uint64_t batches_bypassed = 0;
  uint64_t batches_evaluated = 0;
  uint64_t fallback_rows = 0;  // Per-row Eval fallbacks inside batch kernels.

  void Add(const EnforceTally& o);
  /// Field-wise saturating subtraction (exclusive = inclusive - children).
  EnforceTally Minus(const EnforceTally& o) const;
  bool IsZero() const;
};

/// Static access to the calling thread's EnforceTally. All methods are
/// no-ops under AAPAC_OBS_OFF (the struct stays defined so call sites
/// compile unchanged).
class ProfileTally {
 public:
  static void MemoHit();
  static void MemoMiss();
  static void ZoneChecks(uint64_t n);
  static void StaticChecks(uint64_t n);
  static void ZoneBlock(int kind);  // 0 skip / 1 bulk-accept / else mixed.
  static void ZoneRowsSkipped(uint64_t n);
  static void VecBatches(uint64_t formed, uint64_t bypassed,
                         uint64_t evaluated, uint64_t fallback_rows);

  /// Copy of this thread's tally (operator-begin snapshot).
  static EnforceTally Snapshot();
  /// Current tally minus `before` (operator-close delta on the driver).
  static EnforceTally DeltaSince(const EnforceTally& before);
  /// Folds a foreign (pool-thread) delta into this thread's tally — the
  /// morsel driver's operator-close fold, mirroring CheckTally::Add.
  static void Fold(const EnforceTally& foreign);
};

/// One executed operator. `checks` and `tally` are exclusive — children's
/// contributions are subtracted — so summing any field over a profile's ops
/// reproduces the statement total exactly; `time_ns` is inclusive (wall
/// time of the operator and everything below it), the profiler convention.
struct OpProfile {
  std::string label;   // "Scan", "HashJoin", "Aggregate", "Sort", ...
  std::string detail;  // e.g. "sensed_data as s [vec+zone]".
  int depth = 0;       // Nesting level for tree rendering.
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t time_ns = 0;  // 0 when timing is disabled.
  uint64_t checks = 0;   // complies_with checks attributed to this op.
  EnforceTally tally;
};

/// One statement's profile: identity plus the operator records in open
/// (pre-order) order.
struct QueryProfile {
  uint64_t id = 0;
  std::string sql;
  std::string purpose;
  std::string user;
  uint64_t total_checks = 0;  // The statement's audit `checks` value.
  uint64_t total_rows = 0;    // Result rows.
  std::vector<OpProfile> ops;
};

/// Fixed-capacity ring of the most recent query profiles, with the same
/// thread-local open-slot design as TraceStore: the executing thread builds
/// its profile through the static attach methods (no plumbing through the
/// executor's call signatures), End publishes under a short mutex.
class ProfileStore {
 public:
  /// Sentinel returned by BeginOp when no profile is open on this thread.
  static constexpr size_t kNoOp = static_cast<size_t>(-1);

  explicit ProfileStore(size_t capacity = 256);

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Opens a profile on this thread (no-op returning 0 if one is already
  /// open, profiling is disabled, or obs is compiled out). Returns the id.
  uint64_t Begin(const std::string& sql, const std::string& purpose,
                 const std::string& user);

  /// Publishes this thread's open profile into the ring (Begin owner only;
  /// ScopedProfile enforces the pairing).
  void End();

  // --- Attach to the thread's open profile (no-ops when none). -------------

  /// Opens an operator node at the current nesting depth and returns its
  /// index (kNoOp when no profile is open). `checks_now` is the caller's
  /// CheckTally reading — the obs layer cannot see the engine's counter, so
  /// the engine hands it in at both ends.
  static size_t BeginOp(const char* label, const std::string& detail,
                        uint64_t checks_now);
  /// Closes the operator opened by BeginOp: records rows, wall time and the
  /// exclusive check/tally deltas, and credits the inclusive deltas to the
  /// parent frame. Must be called in LIFO order (OpScope guarantees it).
  static void FinishOp(size_t op, uint64_t rows_in, uint64_t rows_out,
                       uint64_t checks_now);
  /// Rewrites an open operator's detail (the join operator learns its kind
  /// only after classifying the ON conjuncts).
  static void SetOpDetail(size_t op, const std::string& detail);
  /// Statement totals, set by the monitor at statement close.
  static void SetTotals(uint64_t checks, uint64_t rows);
  /// Id of the profile open on this thread, 0 when none — what AppendAudit
  /// stamps into the audit row.
  static uint64_t CurrentId();

  // --- Lookup. --------------------------------------------------------------

  Result<QueryProfile> Find(uint64_t id) const;
  Result<QueryProfile> Last() const;
  size_t capacity() const { return capacity_; }

  /// Human-readable rendering (the shell's \analyze / \profile output): the
  /// annotated operator tree plus a check-attribution footer.
  static std::string Render(const QueryProfile& profile);

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<QueryProfile> ring_;  // Insertion slot = next_ % capacity_.
  size_t next_ = 0;
  std::atomic<uint64_t> next_id_{1};
};

/// RAII guard for one statement's profile: owns the Begin/End pair when
/// this thread had no open profile, joins the existing one otherwise (the
/// server's ExecutePrepared runs inside the monitor's scope).
class ScopedProfile {
 public:
  ScopedProfile(ProfileStore* store, const std::string& sql,
                const std::string& purpose, const std::string& user);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  ProfileStore* store_;
  bool owner_ = false;
};

}  // namespace aapac::obs

#endif  // AAPAC_OBS_PROFILE_H_
