#include "engine/vec/kernels.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

namespace aapac::engine::vec {

namespace {

bool IsComparisonOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool KeepsRow(const Value& v) {
  return !v.is_null() && v.type() == ValueType::kBool && v.AsBool();
}

/// Generic fallback: per-row Eval with exactly PassesFilterPrefix's keep
/// rule. Used for every expression shape without a specialized loop
/// (Kleene AND/OR, CASE, scalar calls, arithmetic comparands, ...).
Status EvalLoop(const BoundExpr& expr, const std::vector<Row>& rows,
                SelVector* sel) {
  size_t out = 0;
  for (uint32_t idx : *sel) {
    AAPAC_ASSIGN_OR_RETURN(Value v, expr.Eval(rows[idx], nullptr));
    if (KeepsRow(v)) (*sel)[out++] = idx;
  }
  sel->resize(out);
  return Status::OK();
}

/// A predicate the batch path can run without materializing a Value per
/// row: a comparison or LIKE / NOT LIKE whose operands are column
/// references or literals, optionally under a stack of NOT wrappers
/// (folded into `negate`). The keep decision is computed inline on
/// borrowed operands — no Result<Value>, no Value construction, no string
/// copies — with exactly the row path's semantics:
///
///   - a NULL operand yields NULL, and NOT of NULL is NULL, so NULL rows
///     drop whatever `negate` is (PassesFilterPrefix drops non-TRUE);
///   - incomparable comparison operands and non-string LIKE operands raise
///     the identical ExecutionError the row path raises (the inner node
///     errors before NOT could inspect the value);
///   - otherwise the boolean is EvalComparison's / the LIKE arm's result,
///     inverted when `negate` is set (BoundUnary kNot over a boolean).
struct PredSpec {
  sql::BinaryOp op;
  bool like = false;    // op is kLike or kNotLike.
  bool negate = false;  // Odd number of enclosing NOTs.
  std::optional<size_t> lcol, rcol;
  const Value* llit = nullptr;
  const Value* rlit = nullptr;
};

bool TryCompilePred(const BoundExpr& expr, PredSpec* out) {
  if (const BoundUnary* un = expr.AsUnary();
      un != nullptr && un->op() == sql::UnaryOp::kNot) {
    if (!TryCompilePred(un->operand(), out)) return false;
    out->negate = !out->negate;
    return true;
  }
  const BoundBinary* bin = expr.AsBinary();
  if (bin == nullptr) return false;
  const bool is_like = bin->op() == sql::BinaryOp::kLike ||
                       bin->op() == sql::BinaryOp::kNotLike;
  if (!is_like && !IsComparisonOp(bin->op())) return false;
  out->op = bin->op();
  out->like = is_like;
  out->lcol = bin->lhs().TryColumnIndex();
  out->llit = bin->lhs().TryLiteral();
  out->rcol = bin->rhs().TryColumnIndex();
  out->rlit = bin->rhs().TryLiteral();
  return (out->lcol.has_value() || out->llit != nullptr) &&
         (out->rcol.has_value() || out->rlit != nullptr);
}

enum class PredOutcome : uint8_t { kDrop, kKeep, kError };

/// One row through one compiled predicate; shared by the per-node loop and
/// the fused chain loop so both paths are semantically one implementation.
inline PredOutcome EvalPredRow(const PredSpec& p, const Row& row,
                               Status* error) {
  const Value& l = p.llit != nullptr ? *p.llit : row[*p.lcol];
  const Value& r = p.rlit != nullptr ? *p.rlit : row[*p.rcol];
  if (l.is_null() || r.is_null()) {
    return PredOutcome::kDrop;  // NULL stays NULL under NOT.
  }
  bool truth;
  {
    if (p.like) {
      if (l.type() != ValueType::kString || r.type() != ValueType::kString) {
        *error = Status::ExecutionError("LIKE requires string operands");
        return PredOutcome::kError;
      }
      const bool m = SqlLikeMatch(l.AsString(), r.AsString());
      truth = p.op == sql::BinaryOp::kLike ? m : !m;
    } else {
      if (!((l.IsNumeric() && r.IsNumeric()) || l.type() == r.type())) {
        *error = Status::ExecutionError(
            std::string("cannot compare ") + ValueTypeToString(l.type()) +
            " with " + ValueTypeToString(r.type()));
        return PredOutcome::kError;
      }
      // Typed fast paths inline what Value::Equals / Value::Compare would
      // compute for the int/double/string cases, preserving their exact
      // semantics — including `==` (not ordering) for kEq/kNe on doubles
      // and Compare's NaN behaviour for the ordering operators.
      if (l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64) {
        const int64_t a = l.AsInt();
        const int64_t b = r.AsInt();
        switch (p.op) {
          case sql::BinaryOp::kEq: truth = a == b; break;
          case sql::BinaryOp::kNe: truth = a != b; break;
          case sql::BinaryOp::kLt: truth = a < b; break;
          case sql::BinaryOp::kLe: truth = a <= b; break;
          case sql::BinaryOp::kGt: truth = a > b; break;
          default: truth = a >= b; break;  // kGe.
        }
      } else if (l.IsNumeric()) {  // Mixed or double operands.
        const double a = l.NumericAsDouble();
        const double b = r.NumericAsDouble();
        switch (p.op) {
          case sql::BinaryOp::kEq: truth = a == b; break;
          case sql::BinaryOp::kNe: truth = !(a == b); break;
          case sql::BinaryOp::kLt: truth = a < b; break;
          case sql::BinaryOp::kLe: truth = !(a > b); break;  // Compare <= 0.
          case sql::BinaryOp::kGt: truth = a > b; break;
          default: truth = !(a < b); break;  // kGe — Compare >= 0.
        }
      } else if (l.type() == ValueType::kString) {
        const int c = l.AsString().compare(r.AsString());
        switch (p.op) {
          case sql::BinaryOp::kEq: truth = c == 0; break;
          case sql::BinaryOp::kNe: truth = c != 0; break;
          case sql::BinaryOp::kLt: truth = c < 0; break;
          case sql::BinaryOp::kLe: truth = c <= 0; break;
          case sql::BinaryOp::kGt: truth = c > 0; break;
          default: truth = c >= 0; break;  // kGe.
        }
      } else {  // Same-type bool/bytes operands: rare, delegate.
        switch (p.op) {
          case sql::BinaryOp::kEq: truth = l.Equals(r); break;
          case sql::BinaryOp::kNe: truth = !l.Equals(r); break;
          case sql::BinaryOp::kLt: truth = l.Compare(r) < 0; break;
          case sql::BinaryOp::kLe: truth = l.Compare(r) <= 0; break;
          case sql::BinaryOp::kGt: truth = l.Compare(r) > 0; break;
          default: truth = l.Compare(r) >= 0; break;  // kGe.
        }
      }
    }
  }
  return truth != p.negate ? PredOutcome::kKeep : PredOutcome::kDrop;
}

Status PredLoop(const PredSpec& p, const std::vector<Row>& rows,
                SelVector* sel) {
  size_t out = 0;
  Status error = Status::OK();
  for (uint32_t idx : *sel) {
    switch (EvalPredRow(p, rows[idx], &error)) {
      case PredOutcome::kKeep:
        (*sel)[out++] = idx;
        break;
      case PredOutcome::kDrop:
        break;
      case PredOutcome::kError:
        sel->resize(out);
        return error;
    }
  }
  sel->resize(out);
  return Status::OK();
}

/// The batch compliance kernel: resolves a whole batch of interned policy
/// ids against the conjunct's memoized verdict table in one tight loop.
/// Rows whose verdict is cached settle their check in aggregate via
/// `pending` (one callback per batch instead of per row); unknown verdicts,
/// un-interned blobs and NULL policies fall back to the per-row Eval path,
/// which fills the memo and does its own miss accounting — byte-identical
/// to the row executor for those tuples. A fallback row whose slot another
/// lane filled meanwhile is a memo hit and settles via `pending` too, just
/// as its Probe hit would have at DOP 1.
Status ComplianceLoop(const BoundMemoizedVerdict& mv, size_t subject_col,
                      const std::vector<Row>& rows, SelVector* sel,
                      PendingChecks* pending, uint64_t* fallback_rows) {
  // Static-verdict fast path: the rewriter proved the whole dictionary
  // decides this conjunct one way, so the batch settles in O(1) — no id
  // loads, no probes. Every selected row still counts as one logical check
  // (the per-tuple path would have evaluated it), settled through the
  // static channel so the enforce.static_checks series attributes exactly.
  if (mv.static_class() != 0) {
    const uint64_t n = sel->size();
    if (n > 0) {
      const ScalarFunction* fn = mv.function();
      if (fn->on_static_checks) {
        fn->on_static_checks(n);
      } else {
        pending->Note(fn, n);
      }
      if (mv.static_class() == 2) sel->resize(0);
    }
    return Status::OK();
  }
  uint64_t hits = 0;
  size_t out = 0;
  for (uint32_t idx : *sel) {
    const Row& row = rows[idx];
    const uint8_t v = mv.Probe(row[subject_col].bytes_interned_id());
    if (v == BoundMemoizedVerdict::kTrue) {
      ++hits;
      (*sel)[out++] = idx;
      continue;
    }
    if (v == BoundMemoizedVerdict::kFalse) {
      ++hits;
      continue;
    }
    ++*fallback_rows;
    bool late_hit = false;
    Result<Value> r = mv.EvalDeferringHit(row, &late_hit);
    if (late_hit) ++hits;
    if (!r.ok()) {
      pending->Note(mv.function(), hits);
      sel->resize(out);
      return r.status();
    }
    if (KeepsRow(*r)) (*sel)[out++] = idx;
  }
  pending->Note(mv.function(), hits);
  sel->resize(out);
  return Status::OK();
}

/// One filter node resolved to its kernel. ForEachPassing compiles the
/// chain once per call, so the per-batch loop is a switch instead of a
/// re-walk of the downcast/operand-shape dispatch.
struct CompiledFilter {
  enum class Kind { kCompliance, kPred, kEval } kind;
  const BoundExpr* expr;  // kEval (and EvalLoop fallback for any kind).
  const BoundMemoizedVerdict* mv = nullptr;  // kCompliance.
  size_t subject_col = 0;                    // kCompliance.
  PredSpec pred;                             // kPred.
};

CompiledFilter CompileFilter(const BoundExpr& expr) {
  CompiledFilter cf;
  cf.expr = &expr;
  if (const BoundMemoizedVerdict* mv = expr.AsMemoizedVerdict();
      mv != nullptr) {
    if (const std::optional<size_t> sc = mv->SubjectColumn(); sc.has_value()) {
      cf.kind = CompiledFilter::Kind::kCompliance;
      cf.mv = mv;
      cf.subject_col = *sc;
      return cf;
    }
    // Computed subject: no column to probe; per-row path self-accounts.
    cf.kind = CompiledFilter::Kind::kEval;
    return cf;
  }
  if (TryCompilePred(expr, &cf.pred)) {
    cf.kind = CompiledFilter::Kind::kPred;
    return cf;
  }
  cf.kind = CompiledFilter::Kind::kEval;
  return cf;
}

Status ApplyFilter(const CompiledFilter& cf, const std::vector<Row>& rows,
                   SelVector* sel, PendingChecks* pending,
                   uint64_t* fallback_rows) {
  switch (cf.kind) {
    case CompiledFilter::Kind::kCompliance:
      return ComplianceLoop(*cf.mv, cf.subject_col, rows, sel, pending,
                            fallback_rows);
    case CompiledFilter::Kind::kPred:
      return PredLoop(cf.pred, rows, sel);
    case CompiledFilter::Kind::kEval:
      return EvalLoop(*cf.expr, rows, sel);
  }
  return Status::Internal("unhandled kernel kind");
}

/// A chain is fusable when every node compiled to a typed kernel: no
/// generic Eval node whose per-row cost would dwarf the fusion savings
/// anyway, and whose arbitrary side effects the fused loop cannot reorder.
bool ChainIsFusable(const std::vector<CompiledFilter>& compiled) {
  for (const CompiledFilter& cf : compiled) {
    if (cf.kind == CompiledFilter::Kind::kEval) return false;
  }
  return !compiled.empty();
}

/// Fused chain: the whole conjunct chain in a single row-major pass over
/// the batch. Each row is loaded once, nodes apply in chain order with the
/// row path's short-circuit (a dropped row never reaches — or checks —
/// later compliance nodes), and the selection vector is built directly
/// from the survivors: no iota prefill, no per-node compaction pass.
/// Because the pass is row-major, errors also surface in exactly the row
/// executor's order — the per-node loops are filter-major within a batch.
/// Memo-hit checks accumulate per compliance node in `hits` and settle via
/// `pending` at batch end (or before an error propagates).
Status FusedChainLoop(const std::vector<CompiledFilter>& compiled,
                      const std::vector<Row>& rows, size_t pos, size_t bend,
                      SelVector* sel, std::vector<uint64_t>* hits,
                      PendingChecks* pending, uint64_t* fallback_rows) {
  hits->assign(compiled.size(), 0);
  Status error = Status::OK();
  const auto settle = [&] {
    for (size_t f = 0; f < compiled.size(); ++f) {
      if ((*hits)[f] == 0) continue;
      const ScalarFunction* fn = compiled[f].mv->function();
      // Static nodes answer from their bind-time constant; route their
      // settled checks through the static channel so attribution matches
      // the mechanism (counts are identical through either channel).
      if (compiled[f].mv->static_class() != 0 && fn->on_static_checks) {
        fn->on_static_checks((*hits)[f]);
      } else {
        pending->Note(fn, (*hits)[f]);
      }
    }
  };
  for (size_t i = pos; i < bend; ++i) {
    const Row& row = rows[i];
    bool keep = true;
    for (size_t f = 0; f < compiled.size() && keep; ++f) {
      const CompiledFilter& cf = compiled[f];
      if (cf.kind == CompiledFilter::Kind::kPred) {
        switch (EvalPredRow(cf.pred, row, &error)) {
          case PredOutcome::kKeep:
            break;
          case PredOutcome::kDrop:
            keep = false;
            break;
          case PredOutcome::kError:
            settle();
            return error;
        }
      } else {  // kCompliance — ChainIsFusable excluded kEval.
        const uint8_t v = cf.mv->Probe(row[cf.subject_col].bytes_interned_id());
        if (v == BoundMemoizedVerdict::kTrue) {
          ++(*hits)[f];
        } else if (v == BoundMemoizedVerdict::kFalse) {
          ++(*hits)[f];
          keep = false;
        } else {
          ++*fallback_rows;
          bool late_hit = false;
          Result<Value> r = cf.mv->EvalDeferringHit(row, &late_hit);
          if (late_hit) ++(*hits)[f];
          if (!r.ok()) {
            settle();
            return r.status();
          }
          keep = KeepsRow(*r);
        }
      }
    }
    if (keep) sel->push_back(static_cast<uint32_t>(i));
  }
  settle();
  return Status::OK();
}

}  // namespace

void PendingChecks::Flush() {
  if (fn == nullptr || count == 0) {
    count = 0;
    return;
  }
  if (fn->on_zone_checks) {
    fn->on_zone_checks(count);
  } else if (fn->on_memo_hit) {
    for (uint64_t i = 0; i < count; ++i) fn->on_memo_hit();
  }
  count = 0;
}

Status FilterBatch(const BoundExpr& expr, const std::vector<Row>& rows,
                   SelVector* sel, PendingChecks* pending,
                   uint64_t* fallback_rows) {
  return ApplyFilter(CompileFilter(expr), rows, sel, pending, fallback_rows);
}

Status ForEachPassing(const std::vector<BoundExprPtr>& filters,
                      size_t nfilters, const std::vector<Row>& rows,
                      size_t begin, size_t end, size_t batch_rows, bool timed,
                      VecTally* tally,
                      const std::function<Status(const SelVector&)>& consume) {
  using Clock = std::chrono::steady_clock;
  if (begin >= end) return Status::OK();
  const auto elapsed = [](Clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  };
  std::vector<CompiledFilter> compiled;
  compiled.reserve(nfilters);
  bool has_compliance = false;
  for (size_t f = 0; f < nfilters; ++f) {
    compiled.push_back(CompileFilter(*filters[f]));
    has_compliance |= filters[f]->AsMemoizedVerdict() != nullptr;
  }
  const bool fused = ChainIsFusable(compiled);
  PendingChecks pending;
  SelVector sel;
  sel.reserve(std::min(batch_rows, end - begin));
  std::vector<uint64_t> hits_scratch;
  for (size_t pos = begin; pos < end; pos += batch_rows) {
    const size_t bend = std::min(end, pos + batch_rows);
    ++tally->batches_formed;
    if (has_compliance) {
      ++tally->batches_evaluated;
    } else {
      ++tally->batches_bypassed;
    }
    tally->rows_in += bend - pos;
    Status st = Status::OK();
    Clock::time_point t0;
    if (fused) {
      // One row-major pass over the whole chain; the elapsed time is
      // attributed to vec.compliance when the chain enforces (the dominant
      // work there) and to vec.filter_eval for pure-predicate chains.
      sel.clear();
      t0 = timed ? Clock::now() : Clock::time_point();
      st = FusedChainLoop(compiled, rows, pos, bend, &sel, &hits_scratch,
                          &pending, &tally->fallback_rows);
      if (timed) {
        (has_compliance ? tally->compliance_ns : tally->filter_ns) +=
            elapsed(t0);
      }
    } else {
      t0 = timed ? Clock::now() : Clock::time_point();
      sel.clear();
      for (size_t i = pos; i < bend; ++i) {
        sel.push_back(static_cast<uint32_t>(i));
      }
      if (timed) tally->fill_ns += elapsed(t0);
      for (const CompiledFilter& cf : compiled) {
        if (sel.empty()) break;
        const bool is_cc = cf.kind == CompiledFilter::Kind::kCompliance ||
                           cf.expr->AsMemoizedVerdict() != nullptr;
        t0 = timed ? Clock::now() : Clock::time_point();
        st = ApplyFilter(cf, rows, &sel, &pending, &tally->fallback_rows);
        if (timed) {
          (is_cc ? tally->compliance_ns : tally->filter_ns) += elapsed(t0);
        }
        if (!st.ok()) break;
      }
    }
    // Settle deferred memo-hit checks on this worker thread before any
    // error propagates — morsel-level CheckTally folding reads the tally
    // at body return.
    pending.Flush();
    AAPAC_RETURN_NOT_OK(st);
    tally->rows_out += sel.size();
    if (!sel.empty()) {
      t0 = timed ? Clock::now() : Clock::time_point();
      AAPAC_RETURN_NOT_OK(consume(sel));
      if (timed) tally->fill_ns += elapsed(t0);
    }
  }
  return Status::OK();
}

}  // namespace aapac::engine::vec
