#ifndef AAPAC_OBS_LEDGER_H_
#define AAPAC_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace aapac::obs {

// ---------------------------------------------------------------------------
// Per-(table, purpose, action) enforcement decision ledger.
//
// Every enforced statement lands one Record() call at statement close with
// its outcome, row count, per-statement check delta and the folded
// EnforceTally — so the ledger answers "what did enforcement decide, and
// how was it decided (zone map vs. verdict memo vs. per-tuple sweep), per
// table, per purpose, per action" across the process lifetime. Because it
// is fed from the same per-statement deltas that feed the enforce.*
// counters, its column sums reconcile with those counters exactly:
//   sum(checks)      == enforce.compliance_checks
//   sum(memo_hits)   == enforce.verdict_memo_hits      (zone settles incl.)
//   sum(memo_misses) == enforce.verdict_memo_misses
//   sum(blocks_*)    == enforce.blocks_*
//   sum(allowed/denied/errors) == enforce.ok / denied / error
//
// The `table` dimension is the statement's primary table (DML target, or
// the left-most base table of a SELECT); multi-table statements attribute
// their whole delta there. Statements that fail before they are prepared
// (denials, unknown purposes, parse and rewrite errors) land under table
// "-", an unknown purpose also under purpose "-"; a failed session open
// records action "access". Unenforced replays that still invoke
// complies_with record under ("*", "(unrestricted)") with no outcome so the
// outcome sums stay reconcilable.
//
// With AAPAC_OBS_OFF, Record is a no-op and every snapshot is empty.
// ---------------------------------------------------------------------------

/// One ledger row (a snapshot value; the live entry is mutex-guarded).
struct LedgerEntry {
  std::string table;
  std::string purpose;
  std::string action;  // "select", "insert", "update", "delete", "access".
  uint64_t statements = 0;
  uint64_t allowed = 0;  // Statements that completed ok.
  uint64_t denied = 0;   // Authorization and policy refusals.
  uint64_t errors = 0;   // Every other failure (purpose, parse, execute).
  uint64_t rows = 0;     // Result / affected rows of ok statements.
  uint64_t checks = 0;   // complies_with checks spent (Fig. 6 currency).
  EnforceTally tally;    // Zone / memo / batch attribution.
};

/// Thread-safe accumulation ledger. Record() is called once per statement
/// (monitor-side, after the morsel fold), so a plain mutex-guarded map is
/// cheap; the running totals are additionally mirrored into atomics that
/// the registry publishes as external counters (enforce.ledger_*).
class DecisionLedger {
 public:
  /// `outcome` is "ok", "denied", "error", or "" to record attribution
  /// without counting an outcome (unrestricted replays).
  void Record(const std::string& table, const std::string& purpose,
              const std::string& action, const char* outcome, uint64_t rows,
              uint64_t checks, const EnforceTally& tally);

  /// All entries, ordered by (table, purpose, action).
  std::vector<LedgerEntry> Snapshot() const;
  void Reset();

  /// Human-readable table (the shell's \ledger output).
  std::string Render() const;
  /// Appends the ledger as OpenMetrics labeled series (the
  /// aapac_ledger_*_total families); called by RenderOpenMetrics.
  void AppendOpenMetrics(std::string* out) const;

  // Registry-publishable running totals (RegisterExternalCounter sources;
  // stable addresses for the ledger's lifetime).
  const std::atomic<uint64_t>* entries_counter() const { return &entries_; }
  const std::atomic<uint64_t>* checks_counter() const { return &checks_; }
  const std::atomic<uint64_t>* statements_counter() const {
    return &statements_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, LedgerEntry> entries_by_key_;
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> statements_{0};
};

}  // namespace aapac::obs

#endif  // AAPAC_OBS_LEDGER_H_
