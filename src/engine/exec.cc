#include "engine/exec.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <set>
#include <unordered_set>
#include <utility>

#include "engine/expr.h"
#include "engine/policy_dict.h"
#include "engine/row_scan.h"
#include "engine/scan_plan.h"
#include "engine/vec/kernels.h"
#include "engine/vec/vec_scan.h"
#include "engine/zone_map.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/bitstring.h"
#include "util/strings.h"

namespace aapac::engine {

namespace {

/// One tally per thread; see CheckTally in exec.h. Monotonic: statement
/// accounting always works on before/after differences, never resets.
thread_local uint64_t t_check_tally = 0;

}  // namespace

uint64_t CheckTally::Current() { return t_check_tally; }
void CheckTally::Bump() { ++t_check_tally; }
void CheckTally::Add(uint64_t n) { t_check_tally += n; }

namespace {

/// Pairs ProfileStore::BeginOp/FinishOp around one executor operator. The
/// obs layer cannot see the engine's thread-local check tally, so the scope
/// hands CheckTally readings in at both ends; the destructor closes the
/// frame with whatever rows were recorded, which keeps the per-thread frame
/// stack balanced across AAPAC_ASSIGN_OR_RETURN early exits. Children
/// opened while this scope is live nest one level deeper and their deltas
/// are subtracted out by FinishOp, so per-operator attribution is exclusive.
class OpScope {
 public:
  explicit OpScope(const char* label, std::string detail = std::string())
      : op_(obs::ProfileStore::BeginOp(label, detail,
                                       CheckTally::Current())) {}
  ~OpScope() {
    if (op_ != obs::ProfileStore::kNoOp) {
      obs::ProfileStore::FinishOp(op_, rows_in_, rows_out_,
                                  CheckTally::Current());
    }
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  void SetRows(uint64_t in, uint64_t out) {
    rows_in_ = in;
    rows_out_ = out;
  }
  void SetDetail(const std::string& detail) {
    if (op_ != obs::ProfileStore::kNoOp) {
      obs::ProfileStore::SetOpDetail(op_, detail);
    }
  }

 private:
  const size_t op_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

}  // namespace

namespace {

using sql::BinaryOp;
using sql::UnaryOp;

// ===========================================================================
// Aggregates
// ===========================================================================

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind;
  bool distinct = false;
  BoundExprPtr arg;  // Null for count(*).
};

struct AggState {
  int64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0;
  bool any_double = false;
  Value min;
  Value max;
  std::unordered_set<Value, ValueHash, ValueEq> distinct_values;
};

Status Accumulate(const AggSpec& spec, const Row& row, AggState* state) {
  if (spec.kind == AggKind::kCountStar) {
    ++state->count;
    return Status::OK();
  }
  // Borrow the argument when it is a plain column reference — the hot case
  // pays no Result wrapper and no Value copy per input row. Aggregates only
  // inspect the value; min/max/distinct copy it at most once, on first
  // sight of a new extreme / distinct value.
  Value owned;
  const Value* v = spec.arg->TryEvalRef(row);
  if (v == nullptr) {
    AAPAC_ASSIGN_OR_RETURN(owned, spec.arg->Eval(row, nullptr));
    v = &owned;
  }
  if (v->is_null()) return Status::OK();  // Aggregates ignore NULLs.
  if (spec.distinct) {
    // find-before-insert: libstdc++'s insert allocates its node before the
    // duplicate check, so inserting every row costs an alloc+free per
    // duplicate. Probing first confines the allocation (and the copy) to
    // genuinely new values.
    if (state->distinct_values.find(*v) == state->distinct_values.end()) {
      state->distinct_values.insert(*v);
    }
    return Status::OK();
  }
  switch (spec.kind) {
    case AggKind::kCount:
      ++state->count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (!v->IsNumeric()) {
        return Status::ExecutionError("sum/avg over non-numeric values");
      }
      ++state->count;
      if (v->type() == ValueType::kDouble) state->any_double = true;
      if (v->type() == ValueType::kInt64) {
        state->sum_i += v->AsInt();
      }
      state->sum_d += v->NumericAsDouble();
      break;
    case AggKind::kMin:
      if (state->min.is_null() || v->Compare(state->min) < 0) state->min = *v;
      ++state->count;
      break;
    case AggKind::kMax:
      if (state->max.is_null() || v->Compare(state->max) > 0) state->max = *v;
      ++state->count;
      break;
    case AggKind::kCountStar:
      break;
  }
  return Status::OK();
}

Result<Value> Finalize(const AggSpec& spec, const AggState& state) {
  if (spec.distinct) {
    // For DISTINCT aggregates, fold the collected set.
    switch (spec.kind) {
      case AggKind::kCount:
        return Value::Int(static_cast<int64_t>(state.distinct_values.size()));
      case AggKind::kSum:
      case AggKind::kAvg: {
        if (state.distinct_values.empty()) return Value::Null();
        double total = 0;
        bool any_double = false;
        int64_t total_i = 0;
        for (const Value& v : state.distinct_values) {
          if (!v.IsNumeric()) {
            return Status::ExecutionError("sum/avg over non-numeric values");
          }
          if (v.type() == ValueType::kDouble) any_double = true;
          if (v.type() == ValueType::kInt64) total_i += v.AsInt();
          total += v.NumericAsDouble();
        }
        if (spec.kind == AggKind::kAvg) {
          return Value::Double(total /
                               static_cast<double>(state.distinct_values.size()));
        }
        return any_double ? Value::Double(total) : Value::Int(total_i);
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        Value best;
        for (const Value& v : state.distinct_values) {
          if (best.is_null() ||
              (spec.kind == AggKind::kMin ? v.Compare(best) < 0
                                          : v.Compare(best) > 0)) {
            best = v;
          }
        }
        return best;
      }
      case AggKind::kCountStar:
        return Value::Int(state.count);
    }
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int(state.count);
    case AggKind::kSum:
      if (state.count == 0) return Value::Null();
      return state.any_double ? Value::Double(state.sum_d)
                              : Value::Int(state.sum_i);
    case AggKind::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum_d / static_cast<double>(state.count));
    case AggKind::kMin:
      return state.min;
    case AggKind::kMax:
      return state.max;
  }
  return Status::Internal("unhandled aggregate kind");
}

Result<AggKind> AggKindFromName(const std::string& name) {
  if (name == "count") return AggKind::kCount;
  if (name == "sum") return AggKind::kSum;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return Status::Internal("not an aggregate: " + name);
}

// ===========================================================================
// Binder
// ===========================================================================

/// Derived relation flowing between operators.
struct Relation {
  BindingSchema schema;
  std::vector<Row> rows;
};

class ExecutorImpl;  // Defined below; Binder executes uncorrelated subqueries.

class Binder {
 public:
  /// `agg_specs == nullptr` forbids aggregate calls (WHERE, ON, GROUP BY).
  Binder(const BindingSchema& schema, Database* db, ExecutorImpl* exec,
         std::vector<AggSpec>* agg_specs)
      : schema_(schema), db_(db), exec_(exec), agg_specs_(agg_specs) {}

  Result<BoundExprPtr> Bind(const sql::Expr& expr);

 private:
  Result<size_t> ResolveColumn(const sql::ColumnRefExpr& ref) const;
  Result<BoundExprPtr> BindFuncCall(const sql::FuncCallExpr& call);
  Result<BoundExprPtr> BindIn(const sql::InExpr& in);
  Result<BoundExprPtr> BindScalarSubquery(const sql::ScalarSubqueryExpr& sub);
  /// Whether the owning executor allows verdict memoization (defined after
  /// ExecutorImpl, whose flag it reads).
  bool MemoizeVerdictsEnabled() const;
  /// Whether the owning executor honors rewriter static-verdict marks
  /// (FuncCallExpr::static_class); same definition arrangement.
  bool StaticVerdictEnabled() const;

  const BindingSchema& schema_;
  Database* db_;
  ExecutorImpl* exec_;
  std::vector<AggSpec>* agg_specs_;
  bool in_aggregate_ = false;
};

// ===========================================================================
// Executor implementation
// ===========================================================================

struct PendingConjunct {
  const sql::Expr* expr;
  bool consumed = false;
};

/// The columns one query level actually reads, used for projection pruning:
/// scans evaluate their filters against the stored rows in place and
/// materialize only these columns, which keeps intermediate relations (and
/// join rows) narrow. All names are lowercase, matching schema storage.
struct NeededColumns {
  bool all = false;                          // Unqualified `*`.
  std::set<std::string> whole_bindings;      // `t.*`.
  std::set<std::pair<std::string, std::string>> qualified;  // `t.c`.
  std::set<std::string> names;               // Unqualified `c`.

  bool Needs(const std::string& binding, const std::string& column) const {
    if (all) return true;
    if (whole_bindings.count(binding) > 0) return true;
    if (qualified.count({binding, column}) > 0) return true;
    return names.count(column) > 0;
  }
};

void CollectNeededFromExpr(const sql::Expr& expr, NeededColumns* out) {
  switch (expr.kind()) {
    case sql::Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
      if (ref.qualifier.empty()) {
        out->names.insert(ref.name);
      } else {
        out->qualified.insert({ref.qualifier, ref.name});
      }
      return;
    }
    case sql::Expr::Kind::kStar: {
      const auto& star = static_cast<const sql::StarExpr&>(expr);
      if (star.qualifier.empty()) {
        out->all = true;
      } else {
        out->whole_bindings.insert(star.qualifier);
      }
      return;
    }
    case sql::Expr::Kind::kLiteral:
      return;
    case sql::Expr::Kind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      CollectNeededFromExpr(*e.lhs, out);
      CollectNeededFromExpr(*e.rhs, out);
      return;
    }
    case sql::Expr::Kind::kUnary:
      CollectNeededFromExpr(*static_cast<const sql::UnaryExpr&>(expr).operand,
                            out);
      return;
    case sql::Expr::Kind::kFuncCall: {
      const auto& call = static_cast<const sql::FuncCallExpr&>(expr);
      for (const auto& a : call.args) {
        // count(*) consumes whole rows, not any particular column.
        if (a->kind() == sql::Expr::Kind::kStar) continue;
        CollectNeededFromExpr(*a, out);
      }
      return;
    }
    case sql::Expr::Kind::kIn: {
      const auto& e = static_cast<const sql::InExpr&>(expr);
      CollectNeededFromExpr(*e.operand, out);
      for (const auto& item : e.list) CollectNeededFromExpr(*item, out);
      return;  // Sub-query columns belong to the inner level.
    }
    case sql::Expr::Kind::kIsNull:
      CollectNeededFromExpr(
          *static_cast<const sql::IsNullExpr&>(expr).operand, out);
      return;
    case sql::Expr::Kind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      CollectNeededFromExpr(*e.operand, out);
      CollectNeededFromExpr(*e.lo, out);
      CollectNeededFromExpr(*e.hi, out);
      return;
    }
    case sql::Expr::Kind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      if (e.operand != nullptr) CollectNeededFromExpr(*e.operand, out);
      for (const auto& w : e.whens) {
        CollectNeededFromExpr(*w.condition, out);
        CollectNeededFromExpr(*w.result, out);
      }
      if (e.else_result != nullptr) CollectNeededFromExpr(*e.else_result, out);
      return;
    }
    case sql::Expr::Kind::kScalarSubquery:
      return;
  }
}

void CollectNeededFromRef(const sql::TableRef& ref, NeededColumns* out) {
  if (ref.kind() != sql::TableRef::Kind::kJoin) return;
  const auto& join = static_cast<const sql::JoinRef&>(ref);
  CollectNeededFromRef(*join.left, out);
  CollectNeededFromRef(*join.right, out);
  if (join.on != nullptr) CollectNeededFromExpr(*join.on, out);
}

NeededColumns CollectNeeded(const sql::SelectStmt& stmt) {
  NeededColumns out;
  for (const auto& item : stmt.items) CollectNeededFromExpr(*item.expr, &out);
  for (const auto& ref : stmt.from) CollectNeededFromRef(*ref, &out);
  // WHERE conjuncts are deliberately absent: they travel as PendingConjuncts
  // and each scan adds back only the ones not claimed below it (ScanNeeded).
  for (const auto& g : stmt.group_by) CollectNeededFromExpr(*g, &out);
  if (stmt.having != nullptr) CollectNeededFromExpr(*stmt.having, &out);
  for (const auto& ob : stmt.order_by) CollectNeededFromExpr(*ob.expr, &out);
  return out;
}

/// Materialization set for one scan: the query-level needed columns plus
/// everything referenced by WHERE conjuncts still unclaimed after this
/// scan's own claiming pass — those run later (join probe or root) against
/// materialized rows. Conjuncts the scan claimed evaluate in place against
/// the stored rows, so a column only they touch — typically the multi-KB
/// policy blob read by the rewriter's compliance conjunct — is never copied
/// into the intermediate relation.
NeededColumns ScanNeeded(const NeededColumns& needed,
                         const std::vector<PendingConjunct>& pending) {
  NeededColumns out = needed;
  for (const auto& pc : pending) {
    if (!pc.consumed) CollectNeededFromExpr(*pc.expr, &out);
  }
  return out;
}

class ExecutorImpl {
 public:
  ExecutorImpl(Database* db, ExecStats* stats, const ExecOptions& options,
               const ParallelSpec* parallel = nullptr)
      : db_(db), stats_(stats), opts_(options), parallel_(parallel) {}

  Result<ResultSet> Execute(const sql::SelectStmt& stmt);

 private:
  friend class Binder;
  friend class PlanPrinter;

  Result<BindingSchema> SchemaOfRef(const sql::TableRef& ref);
  Result<std::vector<std::string>> OutputNames(const sql::SelectStmt& stmt);

  Result<Relation> EvalRef(const sql::TableRef& ref,
                           const NeededColumns& needed,
                           std::vector<PendingConjunct>* pending);
  Result<Relation> EvalBase(const sql::BaseTableRef& ref,
                            const NeededColumns& needed,
                            std::vector<PendingConjunct>* pending);
  Result<Relation> EvalDerived(const sql::SubqueryTableRef& ref,
                               std::vector<PendingConjunct>* pending);
  Result<Relation> EvalJoin(const sql::JoinRef& ref,
                            const NeededColumns& needed,
                            std::vector<PendingConjunct>* pending);

  /// Binds every not-yet-consumed conjunct that resolves against `schema`,
  /// in original order. Bind failures are not errors here: the conjunct may
  /// belong to an enclosing scope.
  Result<std::vector<BoundExprPtr>> ClaimConjuncts(
      const BindingSchema& schema, std::vector<PendingConjunct>* pending);

  /// True when this execution asked for intra-query parallelism and the
  /// input is big enough to amortize the dispatch (at least two morsels).
  bool ShouldParallelize(size_t rows) const {
    return parallel_ != nullptr && parallel_->enabled() &&
           rows >= parallel_->morsel_rows * 2;
  }

  /// The MorselDriver: runs `body(begin, end, sink)` once per fixed-size
  /// morsel of [0, n) on the shared pool (caller participates) and stitches
  /// the per-morsel sinks into `out` in morsel order — byte-identical to a
  /// serial left-to-right pass. At operator close it folds compliance-check
  /// tallies from pool threads into the calling thread (per-statement-exact
  /// accounting, see CheckTally), records the fan-out counter and, when
  /// timing is on, the morsel_wait/morsel_exec histograms and trace spans.
  /// Errors are reported deterministically: the lowest-morsel error wins,
  /// which is the same error a serial pass would have hit first.
  Status RunMorsels(
      size_t n,
      const std::function<Status(size_t, size_t, std::vector<Row>*)>& body,
      std::vector<Row>* out);

  /// True when this statement should run filter passes through the batch
  /// kernels (engine/vec): the vector path is enabled and there is at least
  /// one filter to evaluate. Filterless passes have no per-row predicate
  /// work, so batching would only add overhead.
  bool UseVec(const std::vector<BoundExprPtr>& filters) const {
    return opts_.vec.enabled && !filters.empty();
  }

  /// Gate for the vec.* per-stage timing accumulation (mirrors the morsel
  /// and zone-map timing gates).
  bool VecTimed() const {
    return obs::kObsCompiledIn && opts_.vec.metrics != nullptr &&
           obs::TimingEnabled();
  }

  Database* db_;
  ExecStats* stats_;
  // Copied per statement: every operator runs under the switches the
  // statement started with.
  const ExecOptions opts_;
  const ParallelSpec* parallel_;
};

bool Binder::MemoizeVerdictsEnabled() const {
  return exec_ != nullptr && exec_->opts_.verdict_memo;
}

bool Binder::StaticVerdictEnabled() const {
  return exec_ != nullptr && exec_->opts_.static_verdict;
}

/// Splits an expression into its top-level AND conjuncts, preserving order.
void DecomposeConjuncts(const sql::Expr* expr,
                        std::vector<PendingConjunct>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == sql::Expr::Kind::kBinary) {
    const auto& bin = static_cast<const sql::BinaryExpr&>(*expr);
    if (bin.op == BinaryOp::kAnd) {
      DecomposeConjuncts(bin.lhs.get(), out);
      DecomposeConjuncts(bin.rhs.get(), out);
      return;
    }
  }
  out->push_back(PendingConjunct{expr, false});
}

/// Recursively checks for aggregate calls, without descending into
/// sub-queries (their aggregates belong to the inner statement).
bool ContainsAggregate(const sql::Expr& expr) {
  switch (expr.kind()) {
    case sql::Expr::Kind::kFuncCall: {
      const auto& call = static_cast<const sql::FuncCallExpr&>(expr);
      if (IsAggregateFunctionName(call.name)) return true;
      for (const auto& a : call.args) {
        if (ContainsAggregate(*a)) return true;
      }
      return false;
    }
    case sql::Expr::Kind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      return ContainsAggregate(*e.lhs) || ContainsAggregate(*e.rhs);
    }
    case sql::Expr::Kind::kUnary:
      return ContainsAggregate(
          *static_cast<const sql::UnaryExpr&>(expr).operand);
    case sql::Expr::Kind::kIn: {
      const auto& e = static_cast<const sql::InExpr&>(expr);
      if (ContainsAggregate(*e.operand)) return true;
      for (const auto& item : e.list) {
        if (ContainsAggregate(*item)) return true;
      }
      return false;  // Sub-query not descended.
    }
    case sql::Expr::Kind::kIsNull:
      return ContainsAggregate(
          *static_cast<const sql::IsNullExpr&>(expr).operand);
    case sql::Expr::Kind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      return ContainsAggregate(*e.operand) || ContainsAggregate(*e.lo) ||
             ContainsAggregate(*e.hi);
    }
    case sql::Expr::Kind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      if (e.operand != nullptr && ContainsAggregate(*e.operand)) return true;
      for (const auto& w : e.whens) {
        if (ContainsAggregate(*w.condition) || ContainsAggregate(*w.result)) {
          return true;
        }
      }
      return e.else_result != nullptr && ContainsAggregate(*e.else_result);
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Binder implementation
// ---------------------------------------------------------------------------

Result<size_t> Binder::ResolveColumn(const sql::ColumnRefExpr& ref) const {
  size_t found = schema_.size();
  size_t matches = 0;
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (!EqualsIgnoreCase(schema_[i].name, ref.name)) continue;
    if (!ref.qualifier.empty() &&
        !EqualsIgnoreCase(schema_[i].binding, ref.qualifier)) {
      continue;
    }
    found = i;
    ++matches;
  }
  if (matches == 0) {
    const std::string full =
        ref.qualifier.empty() ? ref.name : ref.qualifier + "." + ref.name;
    return Status::BindError("column '" + full + "' not found");
  }
  if (matches > 1) {
    return Status::BindError("column reference '" + ref.name +
                             "' is ambiguous");
  }
  return found;
}

Result<BoundExprPtr> Binder::Bind(const sql::Expr& expr) {
  switch (expr.kind()) {
    case sql::Expr::Kind::kColumnRef: {
      AAPAC_ASSIGN_OR_RETURN(
          size_t idx,
          ResolveColumn(static_cast<const sql::ColumnRefExpr&>(expr)));
      return BoundExprPtr(std::make_unique<BoundColumnRef>(idx));
    }
    case sql::Expr::Kind::kLiteral: {
      const auto& lit = static_cast<const sql::LiteralExpr&>(expr);
      struct Visitor {
        Result<Value> operator()(std::monostate) const { return Value::Null(); }
        Result<Value> operator()(int64_t v) const { return Value::Int(v); }
        Result<Value> operator()(double v) const { return Value::Double(v); }
        Result<Value> operator()(const std::string& v) const {
          return Value::String(v);
        }
        Result<Value> operator()(bool v) const { return Value::Bool(v); }
        Result<Value> operator()(const sql::BitLiteral& v) const {
          AAPAC_ASSIGN_OR_RETURN(BitString bits, BitString::FromBinary(v.bits));
          return Value::Bytes(bits.ToBytes());
        }
      };
      AAPAC_ASSIGN_OR_RETURN(Value v, std::visit(Visitor{}, lit.value));
      return BoundExprPtr(std::make_unique<BoundLiteral>(std::move(v)));
    }
    case sql::Expr::Kind::kStar:
      return Status::BindError("'*' is only valid in count(*) or as a "
                               "top-level select item");
    case sql::Expr::Kind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr lhs, Bind(*e.lhs));
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr rhs, Bind(*e.rhs));
      return BoundExprPtr(std::make_unique<BoundBinary>(e.op, std::move(lhs),
                                                        std::move(rhs)));
    }
    case sql::Expr::Kind::kUnary: {
      const auto& e = static_cast<const sql::UnaryExpr&>(expr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*e.operand));
      return BoundExprPtr(
          std::make_unique<BoundUnary>(e.op, std::move(operand)));
    }
    case sql::Expr::Kind::kFuncCall:
      return BindFuncCall(static_cast<const sql::FuncCallExpr&>(expr));
    case sql::Expr::Kind::kIn:
      return BindIn(static_cast<const sql::InExpr&>(expr));
    case sql::Expr::Kind::kIsNull: {
      const auto& e = static_cast<const sql::IsNullExpr&>(expr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*e.operand));
      return BoundExprPtr(
          std::make_unique<BoundIsNull>(std::move(operand), e.negated));
    }
    case sql::Expr::Kind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*e.operand));
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr lo, Bind(*e.lo));
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr hi, Bind(*e.hi));
      return BoundExprPtr(std::make_unique<BoundBetween>(
          std::move(operand), std::move(lo), std::move(hi), e.negated));
    }
    case sql::Expr::Kind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      BoundExprPtr operand;
      if (e.operand != nullptr) {
        AAPAC_ASSIGN_OR_RETURN(operand, Bind(*e.operand));
      }
      std::vector<BoundCase::BoundWhen> whens;
      whens.reserve(e.whens.size());
      for (const auto& w : e.whens) {
        BoundCase::BoundWhen bound;
        AAPAC_ASSIGN_OR_RETURN(bound.condition, Bind(*w.condition));
        AAPAC_ASSIGN_OR_RETURN(bound.result, Bind(*w.result));
        whens.push_back(std::move(bound));
      }
      BoundExprPtr else_result;
      if (e.else_result != nullptr) {
        AAPAC_ASSIGN_OR_RETURN(else_result, Bind(*e.else_result));
      }
      return BoundExprPtr(std::make_unique<BoundCase>(
          std::move(operand), std::move(whens), std::move(else_result)));
    }
    case sql::Expr::Kind::kScalarSubquery:
      return BindScalarSubquery(
          static_cast<const sql::ScalarSubqueryExpr&>(expr));
  }
  return Status::Internal("unhandled expression kind");
}

Result<BoundExprPtr> Binder::BindFuncCall(const sql::FuncCallExpr& call) {
  if (IsAggregateFunctionName(call.name)) {
    if (agg_specs_ == nullptr) {
      return Status::BindError("aggregate function '" + call.name +
                               "' is not allowed in this clause");
    }
    if (in_aggregate_) {
      return Status::BindError("aggregate functions cannot be nested");
    }
    AAPAC_ASSIGN_OR_RETURN(AggKind kind, AggKindFromName(call.name));
    AggSpec spec;
    spec.distinct = call.distinct;
    if (call.args.size() == 1 &&
        call.args[0]->kind() == sql::Expr::Kind::kStar) {
      if (kind != AggKind::kCount) {
        return Status::BindError("'*' argument only valid for count(*)");
      }
      spec.kind = AggKind::kCountStar;
    } else {
      if (call.args.size() != 1) {
        return Status::BindError("aggregate '" + call.name +
                                 "' takes exactly one argument");
      }
      spec.kind = kind;
      in_aggregate_ = true;
      auto bound = Bind(*call.args[0]);
      in_aggregate_ = false;
      if (!bound.ok()) return bound.status();
      spec.arg = std::move(*bound);
    }
    agg_specs_->push_back(std::move(spec));
    return BoundExprPtr(std::make_unique<BoundAggRef>(agg_specs_->size() - 1));
  }
  const ScalarFunction* fn = db_->functions().Find(call.name);
  if (fn == nullptr) {
    return Status::BindError("unknown function '" + call.name + "'");
  }
  if (fn->arity >= 0 && static_cast<size_t>(fn->arity) != call.args.size()) {
    return Status::BindError("function '" + call.name + "' expects " +
                             std::to_string(fn->arity) + " argument(s), got " +
                             std::to_string(call.args.size()));
  }
  std::vector<BoundExprPtr> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) {
    AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(*a));
    args.push_back(std::move(bound));
  }
  // Verdict memoization: fn(<literal>, <expr>) with memoize_verdicts caches
  // the boolean result per policy-dictionary id of the second argument for
  // the statement's lifetime. The first argument must be a literal — it is
  // part of the memo key by construction (fixed per call site), so a
  // row-dependent first argument would make id-only keying unsound.
  if (fn->memoize_verdicts && call.args.size() == 2 &&
      call.args[0]->kind() == sql::Expr::Kind::kLiteral &&
      MemoizeVerdictsEnabled()) {
    const uint32_t ceiling = PolicyDictionary::IdCeiling();
    if (ceiling > 1) {
      // Rewriter-proved static marks ride through only while the executor's
      // static flag is on: a cached AST marked while the pass was enabled
      // binds as a plain memoized conjunct once the kill switch flips.
      const int static_class =
          call.synthetic && StaticVerdictEnabled() ? call.static_class : 0;
      return BoundExprPtr(std::make_unique<BoundMemoizedVerdict>(
          fn, std::move(args[0]), std::move(args[1]), ceiling, static_class));
    }
  }
  return BoundExprPtr(
      std::make_unique<BoundScalarCall>(fn, std::move(args)));
}

// ---------------------------------------------------------------------------
// ExecutorImpl implementation
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> ExecutorImpl::OutputNames(
    const sql::SelectStmt& stmt) {
  std::vector<std::string> names;
  for (const auto& item : stmt.items) {
    if (item.expr->kind() == sql::Expr::Kind::kStar) {
      const auto& star = static_cast<const sql::StarExpr&>(*item.expr);
      // Expand against the FROM schema.
      for (const auto& ref : stmt.from) {
        AAPAC_ASSIGN_OR_RETURN(BindingSchema schema, SchemaOfRef(*ref));
        for (const auto& col : schema) {
          if (star.qualifier.empty() ||
              EqualsIgnoreCase(col.binding, star.qualifier)) {
            names.push_back(col.name);
          }
        }
      }
      continue;
    }
    if (!item.alias.empty()) {
      names.push_back(item.alias);
    } else if (item.expr->kind() == sql::Expr::Kind::kColumnRef) {
      names.push_back(
          static_cast<const sql::ColumnRefExpr&>(*item.expr).name);
    } else if (item.expr->kind() == sql::Expr::Kind::kFuncCall) {
      names.push_back(
          static_cast<const sql::FuncCallExpr&>(*item.expr).name);
    } else {
      names.push_back("col" + std::to_string(names.size() + 1));
    }
  }
  return names;
}

Result<BindingSchema> ExecutorImpl::SchemaOfRef(const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      AAPAC_ASSIGN_OR_RETURN(Table * table, db_->GetTable(base.table_name));
      BindingSchema schema;
      schema.reserve(table->schema().num_columns());
      for (const auto& col : table->schema().columns()) {
        schema.push_back(BoundColumn{base.BindingName(), col.name, col.type});
      }
      return schema;
    }
    case sql::TableRef::Kind::kSubquery: {
      const auto& derived = static_cast<const sql::SubqueryTableRef&>(ref);
      AAPAC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                             OutputNames(*derived.subquery));
      BindingSchema schema;
      schema.reserve(names.size());
      for (const auto& name : names) {
        schema.push_back(BoundColumn{derived.alias, name, ValueType::kNull});
      }
      return schema;
    }
    case sql::TableRef::Kind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      AAPAC_ASSIGN_OR_RETURN(BindingSchema left, SchemaOfRef(*join.left));
      AAPAC_ASSIGN_OR_RETURN(BindingSchema right, SchemaOfRef(*join.right));
      for (auto& col : right) left.push_back(std::move(col));
      return left;
    }
  }
  return Status::Internal("unhandled table ref kind");
}

Result<std::vector<BoundExprPtr>> ExecutorImpl::ClaimConjuncts(
    const BindingSchema& schema, std::vector<PendingConjunct>* pending) {
  std::vector<BoundExprPtr> filters;
  // Ablation mode: the root applies everything.
  if (!opts_.pushdown) return filters;
  for (auto& pc : *pending) {
    if (pc.consumed) continue;
    Binder binder(schema, db_, this, /*agg_specs=*/nullptr);
    auto bound = binder.Bind(*pc.expr);
    if (bound.ok()) {
      pc.consumed = true;
      filters.push_back(std::move(*bound));
    }
    // A bind failure is fine: the conjunct may reference columns of a
    // sibling or enclosing relation. Genuine errors resurface at the root,
    // where every conjunct must bind.
  }
  return filters;
}

Status ExecutorImpl::RunMorsels(
    size_t n,
    const std::function<Status(size_t, size_t, std::vector<Row>*)>& body,
    std::vector<Row>* out) {
  using Clock = std::chrono::steady_clock;
  const size_t msize = parallel_->morsel_rows;
  const size_t num_morsels = (n + msize - 1) / msize;
  std::vector<std::vector<Row>> parts(num_morsels);
  std::vector<Status> statuses(num_morsels, Status::OK());
  // Checks performed on pool threads; the driver's own morsels land on its
  // thread-local tally directly and must not be folded twice. The profile
  // tally follows the same discipline: workers record their per-morsel
  // delta, the driver folds the combined foreign delta at operator close.
  std::atomic<uint64_t> foreign_checks{0};
  std::mutex foreign_tally_mu;
  obs::EnforceTally foreign_tally;
  std::atomic<uint64_t> wait_ns{0};
  std::atomic<uint64_t> exec_ns{0};
  const std::thread::id driver = std::this_thread::get_id();
  const bool timed =
      obs::kObsCompiledIn && parallel_->metrics != nullptr && obs::TimingEnabled();
  const Clock::time_point dispatched = timed ? Clock::now() : Clock::time_point();
  parallel_->pool->ParallelFor(
      num_morsels, parallel_->max_threads, [&](size_t m) {
        const Clock::time_point started =
            timed ? Clock::now() : Clock::time_point();
        const uint64_t checks_before = CheckTally::Current();
        const obs::EnforceTally tally_before = obs::ProfileTally::Snapshot();
        const size_t begin = m * msize;
        const size_t end = std::min(n, begin + msize);
        statuses[m] = body(begin, end, &parts[m]);
        const uint64_t delta = CheckTally::Current() - checks_before;
        if (delta != 0 && std::this_thread::get_id() != driver) {
          foreign_checks.fetch_add(delta, std::memory_order_relaxed);
        }
        if (std::this_thread::get_id() != driver) {
          const obs::EnforceTally tdelta =
              obs::ProfileTally::DeltaSince(tally_before);
          if (!tdelta.IsZero()) {
            std::lock_guard<std::mutex> lock(foreign_tally_mu);
            foreign_tally.Add(tdelta);
          }
        }
        if (timed) {
          const Clock::time_point finished = Clock::now();
          wait_ns.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(started -
                                                                   dispatched)
                  .count(),
              std::memory_order_relaxed);
          exec_ns.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                   started)
                  .count(),
              std::memory_order_relaxed);
        }
      });
  // Operator close: fold pool-thread check tallies into the calling thread
  // so the monitor's before/after read covers the whole statement.
  CheckTally::Add(foreign_checks.load(std::memory_order_relaxed));
  obs::ProfileTally::Fold(foreign_tally);
  if (parallel_->metrics != nullptr) {
    parallel_->metrics->counter("engine.morsels_dispatched")->Add(num_morsels);
    if (timed) {
      const uint64_t waited = wait_ns.load(std::memory_order_relaxed);
      const uint64_t executed = exec_ns.load(std::memory_order_relaxed);
      parallel_->metrics->histogram(obs::kStageMorselWait)->Record(waited);
      parallel_->metrics->histogram(obs::kStageMorselExec)->Record(executed);
      obs::TraceStore::AddSpan(obs::kStageMorselWait, waited);
      obs::TraceStore::AddSpan(obs::kStageMorselExec, executed);
    }
  }
  for (const Status& st : statuses) AAPAC_RETURN_NOT_OK(st);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out->reserve(out->size() + total);
  for (auto& p : parts) {
    for (Row& row : p) out->push_back(std::move(row));
  }
  return Status::OK();
}

/// One sargable predicate recognized on a base-table scan's first claimed
/// conjunct: an equality or range comparison between a stored column and
/// literal bound(s). The restriction to the FIRST claimed conjunct is what
/// makes the index path's check accounting line up with the scan path for
/// free: non-candidate rows fail filters[0] under the scan too, so they
/// spend zero compliance checks on either path.
struct SargPredicate {
  size_t column = 0;  // Stored-row index of the key column.
  bool is_equality = false;
  Value key;  // Equality probe key.
  bool has_lo = false;  // Range: lower bound present.
  bool lo_inclusive = false;
  Value lo;
  bool has_hi = false;  // Range: upper bound present.
  bool hi_inclusive = false;
  Value hi;
};

/// Converts a literal AST node into an index key. Only INT64 and STRING
/// literals qualify — the only indexable column types — and the literal's
/// type must equal the column's declared type, so Value::Equals /
/// Value::Compare agree with SQL comparison semantics for every stored key
/// (no numeric-coercion cases). NULL, double, bool and bit literals fall
/// back to the scan path.
static bool SargLiteral(const sql::Expr& expr, ValueType column_type,
                        Value* out) {
  // Negative numbers parse as unary minus over a literal; fold one level so
  // `k = -5` stays sargable.
  if (expr.kind() == sql::Expr::Kind::kUnary) {
    const auto& un = static_cast<const sql::UnaryExpr&>(expr);
    if (un.op != sql::UnaryOp::kNeg) return false;
    if (!SargLiteral(*un.operand, column_type, out)) return false;
    if (out->type() != ValueType::kInt64) return false;
    *out = Value::Int(-out->AsInt());
    return true;
  }
  if (expr.kind() != sql::Expr::Kind::kLiteral) return false;
  const auto& lit = static_cast<const sql::LiteralExpr&>(expr);
  if (const int64_t* i = std::get_if<int64_t>(&lit.value)) {
    if (column_type != ValueType::kInt64) return false;
    *out = Value::Int(*i);
    return true;
  }
  if (const std::string* s = std::get_if<std::string>(&lit.value)) {
    if (column_type != ValueType::kString) return false;
    *out = Value::String(*s);
    return true;
  }
  return false;
}

/// Resolves a column reference against the scan's full stored-row schema
/// (unique match required — the same rules conjunct binding applies).
static bool SargColumn(const BindingSchema& schema, const sql::Expr& expr,
                       size_t* index) {
  if (expr.kind() != sql::Expr::Kind::kColumnRef) return false;
  const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
  size_t matches = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!EqualsIgnoreCase(schema[i].name, ref.name)) continue;
    if (!ref.qualifier.empty() &&
        !EqualsIgnoreCase(schema[i].binding, ref.qualifier)) {
      continue;
    }
    *index = i;
    ++matches;
  }
  return matches == 1;
}

/// Recognizes `col = lit`, `col < / <= / > / >= lit` (either operand order)
/// and `col BETWEEN lo AND hi`. Shared by the executor's access-path choice
/// (EvalBase) and the plan printer, so `\explain` shows exactly the path
/// the executor would take.
static bool DetectSargable(const sql::Expr& expr, const BindingSchema& schema,
                           SargPredicate* out) {
  if (expr.kind() == sql::Expr::Kind::kBetween) {
    const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
    if (bt.negated) return false;
    size_t col = 0;
    if (!SargColumn(schema, *bt.operand, &col)) return false;
    Value lo, hi;
    if (!SargLiteral(*bt.lo, schema[col].type, &lo)) return false;
    if (!SargLiteral(*bt.hi, schema[col].type, &hi)) return false;
    out->column = col;
    out->is_equality = false;
    out->has_lo = out->lo_inclusive = true;
    out->lo = std::move(lo);
    out->has_hi = out->hi_inclusive = true;
    out->hi = std::move(hi);
    return true;
  }
  if (expr.kind() != sql::Expr::Kind::kBinary) return false;
  const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
  BinaryOp op = bin.op;
  const sql::Expr* col_side = bin.lhs.get();
  const sql::Expr* lit_side = bin.rhs.get();
  size_t col = 0;
  if (!SargColumn(schema, *col_side, &col)) {
    // `lit op col`: mirror the comparison around the column.
    std::swap(col_side, lit_side);
    if (!SargColumn(schema, *col_side, &col)) return false;
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  Value key;
  if (!SargLiteral(*lit_side, schema[col].type, &key)) return false;
  out->column = col;
  switch (op) {
    case BinaryOp::kEq:
      out->is_equality = true;
      out->key = std::move(key);
      return true;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      out->is_equality = false;
      out->has_hi = true;
      out->hi_inclusive = (op == BinaryOp::kLe);
      out->hi = std::move(key);
      return true;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      out->is_equality = false;
      out->has_lo = true;
      out->lo_inclusive = (op == BinaryOp::kGe);
      out->lo = std::move(key);
      return true;
    default:
      return false;
  }
}

/// The policy-aware index probe: visits the candidate slots in ascending
/// order, resolving each candidate's zone-block decision against the
/// statement's verdict tables BEFORE materialization. All-denied blocks
/// settle the exact per-id short-circuit cost the scan path would have
/// spent (same arithmetic as RowScanExecutor::Run) without copying a row;
/// all-allowed blocks settle the full tail cost per survivor; mixed blocks
/// fall back to the self-accounting per-tuple evaluation. Every candidate
/// re-runs the full claimed filter list prefix-first, so the output rows
/// and the CheckTally delta are byte-identical to the scan path.
static Status RunIndexProbe(const ScanPlan& plan,
                            const std::vector<uint32_t>& slots,
                            std::vector<Row>* sink,
                            uint64_t* denied_skipped) {
  const std::vector<Row>& rows = *plan.rows;
  const std::vector<BoundExprPtr>& filters = *plan.filters;
  const ZoneScanPlan& zplan = plan.zone;
  if (!zplan.valid) {
    // No zone plan: the memo machinery self-accounts per candidate, exactly
    // as the per-tuple scan would for these rows.
    for (uint32_t slot : slots) {
      const Row& row = rows[slot];
      AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(filters, row));
      if (pass) plan.Materialize(row, sink);
    }
    return Status::OK();
  }
  const ScalarFunction* zfn = plan.zone_fn;
  const size_t brows = zplan.zone->block_rows();
  const size_t m = zplan.user_filters;
  const uint64_t tail_len = zplan.verdicts.size();
  // Ascending slot order means each block is decided at most once, when the
  // probe first lands in it.
  size_t cur_block = static_cast<size_t>(-1);
  BlockDecision d;
  uint64_t settled = 0;
  uint64_t bulk_passes = 0;
  for (uint32_t slot : slots) {
    const Row& row = rows[slot];
    const size_t b = slot / brows;
    if (b != cur_block) {
      d = DecideBlock(zplan.zone->block(b), zplan.verdicts);
      cur_block = b;
    }
    switch (d.kind) {
      case BlockDecision::kSkip: {
        AAPAC_ASSIGN_OR_RETURN(bool pass,
                               PassesFilterPrefix(filters, m, row));
        if (!pass) break;
        const int64_t c =
            d.CostOf(row[zplan.subject_col].bytes_interned_id());
        if (c >= 0) {
          settled += static_cast<uint64_t>(c);
          ++*denied_skipped;
          break;
        }
        // Unreachable for a clean summary; stay exact regardless.
        AAPAC_ASSIGN_OR_RETURN(bool full, PassesFilters(filters, row));
        if (full) plan.Materialize(row, sink);
        break;
      }
      case BlockDecision::kBulkAccept: {
        AAPAC_ASSIGN_OR_RETURN(bool pass,
                               PassesFilterPrefix(filters, m, row));
        if (!pass) break;
        if (d.CostOf(row[zplan.subject_col].bytes_interned_id()) >= 0) {
          ++bulk_passes;
          plan.Materialize(row, sink);
          break;
        }
        AAPAC_ASSIGN_OR_RETURN(bool full, PassesFilters(filters, row));
        if (full) plan.Materialize(row, sink);
        break;
      }
      case BlockDecision::kMixed: {
        AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(filters, row));
        if (pass) plan.Materialize(row, sink);
        break;
      }
    }
  }
  // Settlement totals match the scan path's per-block settlements summed:
  // CheckTally and the profile tally only ever read aggregate deltas.
  if (settled != 0 && zfn->on_zone_checks) zfn->on_zone_checks(settled);
  if (bulk_passes != 0 && zfn->on_zone_checks) {
    zfn->on_zone_checks(bulk_passes * tail_len);
  }
  return Status::OK();
}

Result<Relation> ExecutorImpl::EvalBase(const sql::BaseTableRef& ref,
                                        const NeededColumns& needed,
                                        std::vector<PendingConjunct>* pending) {
  OpScope scan_op("Scan", ref.table_name);
  AAPAC_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ref.table_name));
  // Filters bind against the full table schema (scan-level predicates may
  // reference any stored column) and run against the stored rows in place;
  // only the columns the query needs are materialized into the relation.
  AAPAC_ASSIGN_OR_RETURN(BindingSchema full_schema, SchemaOfRef(ref));
  // Remember which pending conjunct ClaimConjuncts consumes first: claimed
  // filters keep the user's WHERE order, so that conjunct is filters[0] —
  // the only candidate for an index-sargable predicate.
  std::vector<bool> was_consumed;
  was_consumed.reserve(pending->size());
  for (const auto& pc : *pending) was_consumed.push_back(pc.consumed);
  AAPAC_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> filters,
                         ClaimConjuncts(full_schema, pending));
  const sql::Expr* first_claimed = nullptr;
  for (size_t i = 0; i < was_consumed.size(); ++i) {
    if (!was_consumed[i] && (*pending)[i].consumed) {
      first_claimed = (*pending)[i].expr;
      break;
    }
  }
  // Claiming must precede the keep computation: columns read only by the
  // conjuncts just claimed drop out of the materialized relation.
  const NeededColumns scan_needed = ScanNeeded(needed, *pending);
  Relation rel;
  std::vector<size_t> keep;
  for (size_t i = 0; i < full_schema.size(); ++i) {
    if (scan_needed.Needs(full_schema[i].binding, full_schema[i].name)) {
      keep.push_back(i);
      rel.schema.push_back(full_schema[i]);
    }
  }
  const std::vector<Row>& rows = table->rows();

  // Zone-map eligibility: the claimed filters must end in a consecutive
  // tail of memoized compliance conjuncts over the interned column.
  ZoneScanPlan zplan;
  if (opts_.zone_map && opts_.verdict_memo && table->zone_map() != nullptr &&
      table->intern_column().has_value()) {
    const size_t icol = *table->intern_column();
    bool eligible = true;
    size_t first_cc = filters.size();
    for (size_t i = 0; i < filters.size(); ++i) {
      const BoundMemoizedVerdict* mv = filters[i]->AsMemoizedVerdict();
      if (mv == nullptr) {
        if (first_cc != filters.size()) {
          eligible = false;  // Non-verdict conjunct after the tail began.
          break;
        }
        continue;
      }
      const std::optional<size_t> sc = mv->SubjectColumn();
      if (!sc.has_value() || *sc != icol) {
        eligible = false;
        break;
      }
      if (first_cc == filters.size()) first_cc = i;
      zplan.verdicts.push_back(mv);
    }
    if (eligible && !zplan.verdicts.empty()) {
      // Rebuild dirty blocks on the driver thread, before any fan-out:
      // morsel lanes then read immutable summaries.
      table->EnsureZoneCurrent();
      zplan.zone = table->zone_map();
      zplan.subject_col = icol;
      zplan.user_filters = first_cc;
      zplan.valid = true;
    }
  }

  // Access-path selection: a sargable first conjunct over an indexed column
  // turns the scan into an index probe. The index returns exactly the slots
  // where filters[0] is TRUE (NULL keys are absent from the index and fail
  // the conjunct under the scan too), every candidate still runs the full
  // claimed filter list, and the probe settles compliance checks with the
  // scan path's exact arithmetic — results, audit `checks` and ledger
  // totals are byte-identical either way. The probe runs serially even
  // under a ParallelSpec: candidate lists are small by construction and
  // serial settlement keeps check accounting DOP-invariant trivially.
  SargPredicate sarg;
  const SecondaryIndex* index = nullptr;
  if (opts_.index_scans && first_claimed != nullptr && !filters.empty() &&
      DetectSargable(*first_claimed, full_schema, &sarg)) {
    index =
        table->FindIndexOn(sarg.column, /*need_range=*/!sarg.is_equality);
  }

  // One plan, two executors (see engine/scan_plan.h): the vectorized batch
  // path by default, the row-at-a-time path when the vector kill switch is
  // on or there is nothing to filter. Either executor runs the whole scan
  // serially or one morsel at a time; stitching preserves the serial row
  // order and CheckTally folding keeps check accounting per-statement-exact
  // at any DOP. Close() fires only after a fully successful scan (zone
  // resolve timing + vec metrics), matching the previous inline behavior.
  ScanPlan splan;
  splan.rows = &rows;
  splan.filters = &filters;
  splan.keep = &keep;
  splan.zone = std::move(zplan);
  splan.zone_fn =
      splan.zone.valid ? splan.zone.verdicts[0]->function() : nullptr;

  {
    std::string detail = ref.table_name;
    if (!ref.alias.empty() && ref.alias != ref.table_name) {
      detail += " as " + ref.alias;
    }
    if (index != nullptr) {
      detail += std::string(" [idx:") + index->name();
    } else {
      detail += UseVec(filters) ? " [vec" : " [row";
    }
    if (splan.zone.valid) detail += "+zone";
    detail += "]";
    scan_op.SetDetail(detail);
  }

  if (index != nullptr) {
    using Clock = std::chrono::steady_clock;
    const bool timed = VecTimed();
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point();
    std::vector<uint32_t> slots;
    if (sarg.is_equality) {
      if (const std::vector<uint32_t>* list = index->Lookup(sarg.key)) {
        slots = *list;
      }
    } else {
      index->LookupRange(sarg.has_lo ? &sarg.lo : nullptr, sarg.lo_inclusive,
                         sarg.has_hi ? &sarg.hi : nullptr, sarg.hi_inclusive,
                         &slots);
    }
    uint64_t denied_skipped = 0;
    AAPAC_RETURN_NOT_OK(
        RunIndexProbe(splan, slots, &rel.rows, &denied_skipped));
    if (timed) {
      const uint64_t probe_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count();
      opts_.vec.metrics->histogram(obs::kIndexProbeHist)->Record(probe_ns);
    }
    // Only the probed candidates were visited; everything else was pruned
    // by the index.
    stats_->rows_scanned += slots.size();
    stats_->index_probes += 1;
    stats_->index_rows_pruned += rows.size() - slots.size();
    stats_->index_denied_skipped += denied_skipped;
    scan_op.SetRows(slots.size(), rel.rows.size());
    stats_->rows_materialized += rel.rows.size();
    return rel;
  }
  stats_->rows_scanned += table->num_rows();

  if (UseVec(filters)) {
    vec::VecScanExecutor scan(&splan, &opts_.vec);
    if (!ShouldParallelize(rows.size())) {
      AAPAC_RETURN_NOT_OK(scan.Run(0, rows.size(), &rel.rows));
    } else {
      AAPAC_RETURN_NOT_OK(RunMorsels(
          rows.size(),
          [&scan](size_t begin, size_t end, std::vector<Row>* sink) {
            return scan.Run(begin, end, sink);
          },
          &rel.rows));
    }
    scan.Close();
  } else {
    RowScanExecutor scan(&splan);
    if (!ShouldParallelize(rows.size())) {
      AAPAC_RETURN_NOT_OK(scan.Run(0, rows.size(), &rel.rows));
    } else {
      AAPAC_RETURN_NOT_OK(RunMorsels(
          rows.size(),
          [&scan](size_t begin, size_t end, std::vector<Row>* sink) {
            return scan.Run(begin, end, sink);
          },
          &rel.rows));
    }
    scan.Close();
  }
  scan_op.SetRows(rows.size(), rel.rows.size());
  stats_->rows_materialized += rel.rows.size();
  return rel;
}

Result<Relation> ExecutorImpl::EvalDerived(
    const sql::SubqueryTableRef& ref, std::vector<PendingConjunct>* pending) {
  // Opened before the subquery executes so its operators nest underneath.
  OpScope derived_op("DerivedTable", ref.alias);
  AAPAC_ASSIGN_OR_RETURN(ResultSet rs, Execute(*ref.subquery));
  Relation rel;
  rel.schema.reserve(rs.column_names.size());
  for (const auto& name : rs.column_names) {
    rel.schema.push_back(BoundColumn{ref.alias, name, ValueType::kNull});
  }
  AAPAC_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> filters,
                         ClaimConjuncts(rel.schema, pending));
  if (UseVec(filters)) {
    vec::VecTally tally;
    const Status st = vec::ForEachPassing(
        filters, filters.size(), rs.rows, 0, rs.rows.size(),
        opts_.vec.EffectiveBatchRows(), VecTimed(), &tally,
        [&](const vec::SelVector& sel) -> Status {
          for (uint32_t idx : sel) rel.rows.push_back(std::move(rs.rows[idx]));
          return Status::OK();
        });
    AAPAC_RETURN_NOT_OK(st);
    vec::VecAggregate agg;
    agg.Merge(tally);
    agg.PublishTo(opts_.vec.metrics);
  } else {
    for (Row& row : rs.rows) {
      AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(filters, row));
      if (pass) rel.rows.push_back(std::move(row));
    }
  }
  derived_op.SetRows(rs.rows.size(), rel.rows.size());
  stats_->rows_materialized += rel.rows.size();
  return rel;
}

namespace {

/// Tries to interpret one ON conjunct as `left_col = right_col`.
struct EquiPair {
  size_t left_index;
  size_t right_index;
};

bool TryResolve(const BindingSchema& schema, const sql::Expr& expr,
                size_t* index) {
  if (expr.kind() != sql::Expr::Kind::kColumnRef) return false;
  const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
  size_t matches = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (!EqualsIgnoreCase(schema[i].name, ref.name)) continue;
    if (!ref.qualifier.empty() &&
        !EqualsIgnoreCase(schema[i].binding, ref.qualifier)) {
      continue;
    }
    *index = i;
    ++matches;
  }
  return matches == 1;
}

}  // namespace

Result<Relation> ExecutorImpl::EvalJoin(const sql::JoinRef& ref,
                                        const NeededColumns& needed,
                                        std::vector<PendingConjunct>* pending) {
  // Opened before the inputs evaluate so the child scans nest underneath;
  // the detail is rewritten once the ON conjuncts are classified.
  OpScope join_op("Join");
  AAPAC_ASSIGN_OR_RETURN(Relation left, EvalRef(*ref.left, needed, pending));
  AAPAC_ASSIGN_OR_RETURN(Relation right, EvalRef(*ref.right, needed, pending));

  Relation out;
  out.schema = left.schema;
  out.schema.insert(out.schema.end(), right.schema.begin(),
                    right.schema.end());

  // Classify ON conjuncts into hashable equi-pairs and residual predicates.
  std::vector<PendingConjunct> on_conjuncts;
  DecomposeConjuncts(ref.on.get(), &on_conjuncts);
  std::vector<EquiPair> equi;
  std::vector<const sql::Expr*> residual_sql;
  for (const auto& pc : on_conjuncts) {
    const sql::Expr* e = pc.expr;
    bool matched = false;
    if (e->kind() == sql::Expr::Kind::kBinary) {
      const auto& bin = static_cast<const sql::BinaryExpr&>(*e);
      if (bin.op == BinaryOp::kEq) {
        size_t li = 0;
        size_t ri = 0;
        if (TryResolve(left.schema, *bin.lhs, &li) &&
            TryResolve(right.schema, *bin.rhs, &ri)) {
          equi.push_back(EquiPair{li, ri});
          matched = true;
        } else if (TryResolve(left.schema, *bin.rhs, &li) &&
                   TryResolve(right.schema, *bin.lhs, &ri)) {
          equi.push_back(EquiPair{li, ri});
          matched = true;
        }
      }
    }
    if (!matched) residual_sql.push_back(e);
  }

  // Bind residual ON predicates and claim WHERE conjuncts now resolvable
  // across both inputs.
  std::vector<BoundExprPtr> filters;
  for (const sql::Expr* e : residual_sql) {
    Binder binder(out.schema, db_, this, /*agg_specs=*/nullptr);
    AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*e));
    filters.push_back(std::move(bound));
  }
  AAPAC_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> claimed,
                         ClaimConjuncts(out.schema, pending));
  for (auto& f : claimed) filters.push_back(std::move(f));

  auto concat = [](const Row& lrow, const Row& rrow) {
    Row joined;
    joined.reserve(lrow.size() + rrow.size());
    joined.insert(joined.end(), lrow.begin(), lrow.end());
    joined.insert(joined.end(), rrow.begin(), rrow.end());
    return joined;
  };
  auto emit = [&](const Row& lrow, const Row& rrow,
                  std::vector<Row>* sink) -> Status {
    Row joined = concat(lrow, rrow);
    AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(filters, joined));
    if (pass) sink->push_back(std::move(joined));
    return Status::OK();
  };

  if (!equi.empty()) {
    // Hash join: build on the smaller input (serial), probe with the larger.
    const bool build_left = left.rows.size() <= right.rows.size();
    join_op.SetDetail(build_left ? "hash (build=left)" : "hash (build=right)");
    const Relation& build = build_left ? left : right;
    const Relation& probe = build_left ? right : left;
    auto key_of = [&](const Row& row, bool from_left) {
      Row key;
      key.reserve(equi.size());
      for (const auto& ep : equi) {
        key.push_back(row[from_left ? ep.left_index : ep.right_index]);
      }
      return key;
    };
    // Probe loops run once per probe row; refilling a caller-owned scratch
    // key instead of allocating a fresh Row keeps the per-row cost to the
    // Value copies themselves.
    auto key_into = [&](const Row& row, bool from_left, Row* key) {
      key->clear();
      for (const auto& ep : equi) {
        key->push_back(row[from_left ? ep.left_index : ep.right_index]);
      }
    };
    std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> table;
    table.reserve(build.rows.size());
    for (uint32_t i = 0; i < build.rows.size(); ++i) {
      Row key = key_of(build.rows[i], build_left);
      // SQL equality: NULL join keys match nothing.
      bool has_null = false;
      for (const Value& v : key) has_null |= v.is_null();
      if (!has_null) table[std::move(key)].push_back(i);
    }
    // Probing one row touches only the (frozen) hash table and appends to
    // the given sink, so probe rows fan out over morsels; emission order
    // within a morsel is probe-row order x build-index order, identical to
    // the serial loop, and stitching preserves it across morsels.
    auto probe_one = [&](const Row& prow, Row* key_scratch,
                         std::vector<Row>* sink) -> Status {
      key_into(prow, !build_left, key_scratch);
      const Row& key = *key_scratch;
      bool has_null = false;
      for (const Value& v : key) has_null |= v.is_null();
      if (has_null) return Status::OK();
      auto it = table.find(key);
      if (it == table.end()) return Status::OK();
      for (uint32_t bi : it->second) {
        const Row& brow = build.rows[bi];
        AAPAC_RETURN_NOT_OK(build_left ? emit(brow, prow, sink)
                                       : emit(prow, brow, sink));
      }
      return Status::OK();
    };
    // Vectorized probe: candidate joined rows accumulate in emission order
    // (probe-row order x build-index order) into a batch buffer, and each
    // full buffer runs through the batch filter kernels — post-join
    // predicates, including rewriter compliance conjuncts, evaluate one
    // kernel call per expression node per batch. Survivors move to the sink
    // in buffer order, so output and check accounting match the row path
    // exactly; the buffer is per morsel body, so deferred memo-hit checks
    // settle on the worker thread that probed.
    vec::VecAggregate probe_agg;
    const size_t batch = opts_.vec.EffectiveBatchRows();
    const bool vec_timed = VecTimed();
    auto probe_range_vec = [&](size_t begin, size_t end,
                               std::vector<Row>* sink) -> Status {
      vec::VecTally tally;
      std::vector<Row> cand;
      cand.reserve(batch);
      auto flush = [&]() -> Status {
        if (cand.empty()) return Status::OK();
        const Status fst = vec::ForEachPassing(
            filters, filters.size(), cand, 0, cand.size(), batch, vec_timed,
            &tally, [&](const vec::SelVector& sel) -> Status {
              for (uint32_t idx : sel) sink->push_back(std::move(cand[idx]));
              return Status::OK();
            });
        cand.clear();
        return fst;
      };
      Status st = Status::OK();
      Row key;
      key.reserve(equi.size());
      for (size_t i = begin; i < end && st.ok(); ++i) {
        const Row& prow = probe.rows[i];
        key_into(prow, !build_left, &key);
        bool has_null = false;
        for (const Value& v : key) has_null |= v.is_null();
        if (has_null) continue;
        auto it = table.find(key);
        if (it == table.end()) continue;
        for (uint32_t bi : it->second) {
          const Row& brow = build.rows[bi];
          cand.push_back(build_left ? concat(brow, prow) : concat(prow, brow));
          if (cand.size() >= batch) {
            st = flush();
            if (!st.ok()) break;
          }
        }
      }
      if (st.ok()) st = flush();
      probe_agg.Merge(tally);
      return st;
    };
    const bool use_vec = UseVec(filters);
    if (!ShouldParallelize(probe.rows.size())) {
      if (use_vec) {
        AAPAC_RETURN_NOT_OK(probe_range_vec(0, probe.rows.size(), &out.rows));
      } else {
        Row key;
        key.reserve(equi.size());
        for (const Row& prow : probe.rows) {
          AAPAC_RETURN_NOT_OK(probe_one(prow, &key, &out.rows));
        }
      }
    } else if (use_vec) {
      AAPAC_RETURN_NOT_OK(
          RunMorsels(probe.rows.size(), probe_range_vec, &out.rows));
    } else {
      AAPAC_RETURN_NOT_OK(RunMorsels(
          probe.rows.size(),
          [&](size_t begin, size_t end, std::vector<Row>* sink) -> Status {
            Row key;
            key.reserve(equi.size());
            for (size_t i = begin; i < end; ++i) {
              AAPAC_RETURN_NOT_OK(probe_one(probe.rows[i], &key, sink));
            }
            return Status::OK();
          },
          &out.rows));
    }
    if (use_vec) probe_agg.PublishTo(opts_.vec.metrics);
  } else {
    // Nested-loop join for non-equi conditions.
    join_op.SetDetail("nested-loop");
    for (const Row& lrow : left.rows) {
      for (const Row& rrow : right.rows) {
        AAPAC_RETURN_NOT_OK(emit(lrow, rrow, &out.rows));
      }
    }
  }
  join_op.SetRows(left.rows.size() + right.rows.size(), out.rows.size());
  stats_->rows_materialized += out.rows.size();
  return out;
}

Result<Relation> ExecutorImpl::EvalRef(const sql::TableRef& ref,
                                       const NeededColumns& needed,
                                       std::vector<PendingConjunct>* pending) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable:
      return EvalBase(static_cast<const sql::BaseTableRef&>(ref), needed,
                      pending);
    case sql::TableRef::Kind::kSubquery:
      return EvalDerived(static_cast<const sql::SubqueryTableRef&>(ref),
                         pending);
    case sql::TableRef::Kind::kJoin:
      return EvalJoin(static_cast<const sql::JoinRef&>(ref), needed, pending);
  }
  return Status::Internal("unhandled table ref kind");
}

Result<ResultSet> ExecutorImpl::Execute(const sql::SelectStmt& stmt) {
  // Root operator of this (sub)statement: every other scope nests beneath
  // it, and FinishOp's exclusive accounting credits it with whatever checks
  // no child operator claimed (e.g. uncorrelated IN-subquery evaluation
  // during binding).
  OpScope select_op("Select");
  if (stmt.items.empty()) {
    return Status::InvalidArgument("SELECT list is empty");
  }
  if (stmt.from.empty()) {
    return Status::Unsupported("FROM-less SELECT is not supported");
  }

  // --- FROM + WHERE (with single-relation pushdown). -----------------------
  std::vector<PendingConjunct> pending;
  DecomposeConjuncts(stmt.where.get(), &pending);
  const NeededColumns needed = CollectNeeded(stmt);

  AAPAC_ASSIGN_OR_RETURN(Relation rel,
                         EvalRef(*stmt.from[0], needed, &pending));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    // Comma-separated FROM items: cross join, filtered by whatever conjuncts
    // become resolvable at each step.
    AAPAC_ASSIGN_OR_RETURN(Relation next,
                           EvalRef(*stmt.from[i], needed, &pending));
    Relation combined;
    combined.schema = rel.schema;
    combined.schema.insert(combined.schema.end(), next.schema.begin(),
                           next.schema.end());
    AAPAC_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> filters,
                           ClaimConjuncts(combined.schema, &pending));
    for (const Row& lrow : rel.rows) {
      for (const Row& rrow : next.rows) {
        Row joined;
        joined.reserve(lrow.size() + rrow.size());
        joined.insert(joined.end(), lrow.begin(), lrow.end());
        joined.insert(joined.end(), rrow.begin(), rrow.end());
        AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(filters, joined));
        if (pass) combined.rows.push_back(std::move(joined));
      }
    }
    rel = std::move(combined);
  }

  // Every conjunct must have been claimed by now; force-bind the remainder
  // at the root to surface genuine bind errors.
  {
    std::vector<BoundExprPtr> root_filters;
    for (auto& pc : pending) {
      if (pc.consumed) continue;
      Binder binder(rel.schema, db_, this, /*agg_specs=*/nullptr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*pc.expr));
      pc.consumed = true;
      root_filters.push_back(std::move(bound));
    }
    if (!root_filters.empty()) {
      OpScope filter_op("Filter", "residual WHERE");
      const size_t filter_in = rel.rows.size();
      std::vector<Row> kept;
      kept.reserve(rel.rows.size());
      if (UseVec(root_filters)) {
        vec::VecTally tally;
        const Status st = vec::ForEachPassing(
            root_filters, root_filters.size(), rel.rows, 0, rel.rows.size(),
            opts_.vec.EffectiveBatchRows(), VecTimed(), &tally,
            [&](const vec::SelVector& sel) -> Status {
              for (uint32_t idx : sel) kept.push_back(std::move(rel.rows[idx]));
              return Status::OK();
            });
        AAPAC_RETURN_NOT_OK(st);
        vec::VecAggregate agg;
        agg.Merge(tally);
        agg.PublishTo(opts_.vec.metrics);
      } else {
        for (Row& row : rel.rows) {
          AAPAC_ASSIGN_OR_RETURN(bool pass, PassesFilters(root_filters, row));
          if (pass) kept.push_back(std::move(row));
        }
      }
      filter_op.SetRows(filter_in, kept.size());
      rel.rows = std::move(kept);
    }
  }

  // --- Aggregate or plain projection. --------------------------------------
  bool is_aggregate = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr->kind() != sql::Expr::Kind::kStar &&
        ContainsAggregate(*item.expr)) {
      is_aggregate = true;
    }
  }
  if (stmt.having != nullptr) is_aggregate = true;

  ResultSet result;
  AAPAC_ASSIGN_OR_RETURN(result.column_names, OutputNames(stmt));

  if (!is_aggregate) {
    // Row-at-a-time projection; stars expand to input columns.
    OpScope project_op("Project");
    struct Projection {
      BoundExprPtr expr;     // Null for direct column copies.
      size_t column = 0;     // Used when expr is null.
    };
    std::vector<Projection> projections;
    for (const auto& item : stmt.items) {
      if (item.expr->kind() == sql::Expr::Kind::kStar) {
        const auto& star = static_cast<const sql::StarExpr&>(*item.expr);
        for (size_t c = 0; c < rel.schema.size(); ++c) {
          if (star.qualifier.empty() ||
              EqualsIgnoreCase(rel.schema[c].binding, star.qualifier)) {
            projections.push_back(Projection{nullptr, c});
          }
        }
        continue;
      }
      Binder binder(rel.schema, db_, this, /*agg_specs=*/nullptr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
      // A bare column item degrades to the star-style direct copy: one
      // Value copy per output cell instead of a virtual Eval + Result hop.
      if (const std::optional<size_t> ci = bound->TryColumnIndex();
          ci.has_value()) {
        projections.push_back(Projection{nullptr, *ci});
      } else {
        projections.push_back(Projection{std::move(bound), 0});
      }
    }
    result.rows.reserve(rel.rows.size());
    for (const Row& row : rel.rows) {
      Row out;
      out.reserve(projections.size());
      for (const auto& p : projections) {
        if (p.expr == nullptr) {
          out.push_back(row[p.column]);
        } else {
          AAPAC_ASSIGN_OR_RETURN(Value v, p.expr->Eval(row, nullptr));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
    project_op.SetRows(rel.rows.size(), result.rows.size());
  } else {
    // Aggregate pipeline: group -> accumulate -> having -> project.
    OpScope agg_op("Aggregate",
                   stmt.group_by.empty() ? "global" : "grouped");
    std::vector<AggSpec> agg_specs;
    std::vector<BoundExprPtr> group_exprs;
    for (const auto& g : stmt.group_by) {
      Binder binder(rel.schema, db_, this, /*agg_specs=*/nullptr);
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*g));
      group_exprs.push_back(std::move(bound));
    }
    std::vector<BoundExprPtr> item_exprs;
    {
      Binder binder(rel.schema, db_, this, &agg_specs);
      for (const auto& item : stmt.items) {
        if (item.expr->kind() == sql::Expr::Kind::kStar) {
          return Status::Unsupported(
              "'*' select item in an aggregate query is not supported");
        }
        AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
        item_exprs.push_back(std::move(bound));
      }
      if (stmt.having != nullptr) {
        AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*stmt.having));
        item_exprs.push_back(std::move(bound));  // Last slot = HAVING.
      }
    }
    const bool has_having = stmt.having != nullptr;

    struct Group {
      Row representative;
      std::vector<AggState> states;
    };
    std::unordered_map<Row, Group, RowHash, RowEq> groups;
    // The key scratch refills per row; only a first-seen key pays the copy
    // into the map, so the per-row cost is the Eval calls themselves.
    Row key;
    key.reserve(group_exprs.size());
    for (const Row& row : rel.rows) {
      key.clear();
      for (const auto& g : group_exprs) {
        if (const Value* pv = g->TryEvalRef(row); pv != nullptr) {
          key.push_back(*pv);  // Column key: one copy, no Result hop.
        } else {
          AAPAC_ASSIGN_OR_RETURN(Value v, g->Eval(row, nullptr));
          key.push_back(std::move(v));
        }
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.try_emplace(key).first;
        it->second.representative = row;
        it->second.states.resize(agg_specs.size());
      }
      for (size_t s = 0; s < agg_specs.size(); ++s) {
        AAPAC_RETURN_NOT_OK(Accumulate(agg_specs[s], row, &it->second.states[s]));
      }
    }
    // A global aggregate (no GROUP BY) over an empty input still yields one
    // group, e.g. count(*) = 0.
    if (groups.empty() && stmt.group_by.empty()) {
      Group g;
      g.representative = Row(rel.schema.size());  // All NULLs.
      g.states.resize(agg_specs.size());
      groups.emplace(Row{}, std::move(g));
    }
    stats_->groups_built += groups.size();

    for (auto& [key, group] : groups) {
      Row agg_slots;
      agg_slots.reserve(agg_specs.size());
      for (size_t s = 0; s < agg_specs.size(); ++s) {
        AAPAC_ASSIGN_OR_RETURN(Value v, Finalize(agg_specs[s], group.states[s]));
        agg_slots.push_back(std::move(v));
      }
      if (has_having) {
        AAPAC_ASSIGN_OR_RETURN(
            Value hv, item_exprs.back()->Eval(group.representative, &agg_slots));
        if (hv.is_null() || hv.type() != ValueType::kBool || !hv.AsBool()) {
          continue;
        }
      }
      Row out;
      const size_t n_items = item_exprs.size() - (has_having ? 1 : 0);
      out.reserve(n_items);
      for (size_t i = 0; i < n_items; ++i) {
        AAPAC_ASSIGN_OR_RETURN(
            Value v, item_exprs[i]->Eval(group.representative, &agg_slots));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
    }
    agg_op.SetRows(rel.rows.size(), result.rows.size());
  }

  // --- DISTINCT. ------------------------------------------------------------
  if (stmt.distinct) {
    OpScope distinct_op("Distinct");
    const size_t distinct_in = result.rows.size();
    // Dedup by pointer into `unique`: rows move (never copy) into the kept
    // vector, and the set holds pointers at stable addresses — `unique` is
    // reserved to its maximum size up front, so it never reallocates.
    struct PtrRowHash {
      size_t operator()(const Row* r) const { return RowHash{}(*r); }
    };
    struct PtrRowEq {
      bool operator()(const Row* a, const Row* b) const {
        return RowEq{}(*a, *b);
      }
    };
    std::unordered_set<const Row*, PtrRowHash, PtrRowEq> seen;
    seen.reserve(result.rows.size());
    std::vector<Row> unique;
    unique.reserve(result.rows.size());
    for (Row& row : result.rows) {
      // find-before-insert: inserting every row would allocate (and free) a
      // hash node per duplicate; probing first pays that only for rows that
      // actually survive.
      if (seen.find(&row) != seen.end()) continue;
      unique.push_back(std::move(row));
      seen.insert(&unique.back());
    }
    result.rows = std::move(unique);
    distinct_op.SetRows(distinct_in, result.rows.size());
  }

  // --- ORDER BY (output columns / aliases / 1-based positions). -------------
  if (!stmt.order_by.empty()) {
    OpScope sort_op("Sort");
    sort_op.SetRows(result.rows.size(), result.rows.size());
    struct SortKey {
      size_t column;
      bool descending;
    };
    std::vector<SortKey> keys;
    for (const auto& ob : stmt.order_by) {
      size_t col = result.column_names.size();
      if (ob.expr->kind() == sql::Expr::Kind::kColumnRef) {
        const auto& ref = static_cast<const sql::ColumnRefExpr&>(*ob.expr);
        for (size_t c = 0; c < result.column_names.size(); ++c) {
          if (EqualsIgnoreCase(result.column_names[c], ref.name)) {
            col = c;
            break;
          }
        }
      } else if (ob.expr->kind() == sql::Expr::Kind::kLiteral) {
        const auto& lit = static_cast<const sql::LiteralExpr&>(*ob.expr);
        if (const int64_t* pos = std::get_if<int64_t>(&lit.value)) {
          if (*pos >= 1 &&
              static_cast<size_t>(*pos) <= result.column_names.size()) {
            col = static_cast<size_t>(*pos) - 1;
          }
        }
      }
      if (col == result.column_names.size()) {
        return Status::Unsupported(
            "ORDER BY supports output column names and 1-based positions");
      }
      keys.push_back(SortKey{col, ob.descending});
    }
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&keys](const Row& a, const Row& b) {
                       for (const auto& k : keys) {
                         const int c = a[k.column].Compare(b[k.column]);
                         if (c != 0) return k.descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }

  // --- LIMIT. ----------------------------------------------------------------
  if (stmt.limit.has_value() &&
      result.rows.size() > static_cast<size_t>(*stmt.limit)) {
    result.rows.resize(static_cast<size_t>(*stmt.limit));
  }

  select_op.SetRows(rel.rows.size(), result.rows.size());
  stats_->rows_output += result.rows.size();
  return result;
}

// ---------------------------------------------------------------------------
// Binder methods needing ExecutorImpl
// ---------------------------------------------------------------------------

Result<BoundExprPtr> Binder::BindIn(const sql::InExpr& in) {
  AAPAC_ASSIGN_OR_RETURN(BoundExprPtr operand, Bind(*in.operand));
  if (in.subquery == nullptr) {
    std::vector<BoundExprPtr> list;
    list.reserve(in.list.size());
    for (const auto& e : in.list) {
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(*e));
      list.push_back(std::move(bound));
    }
    return BoundExprPtr(std::make_unique<BoundInList>(
        std::move(operand), std::move(list), in.negated));
  }
  // Uncorrelated IN sub-query, evaluated once and hashed.
  AAPAC_ASSIGN_OR_RETURN(ResultSet rs, exec_->Execute(*in.subquery));
  if (rs.column_names.empty()) {
    return Status::BindError("IN sub-query yields no columns");
  }
  std::unordered_set<Value, ValueHash, ValueEq> set;
  bool has_null = false;
  for (const Row& row : rs.rows) {
    if (row[0].is_null()) {
      has_null = true;
    } else {
      set.insert(row[0]);
    }
  }
  return BoundExprPtr(std::make_unique<BoundInSet>(
      std::move(operand), std::move(set), has_null, in.negated));
}

Result<BoundExprPtr> Binder::BindScalarSubquery(
    const sql::ScalarSubqueryExpr& sub) {
  AAPAC_ASSIGN_OR_RETURN(ResultSet rs, exec_->Execute(*sub.subquery));
  if (rs.column_names.empty()) {
    return Status::BindError("scalar sub-query yields no columns");
  }
  if (rs.rows.size() > 1) {
    return Status::ExecutionError(
        "scalar sub-query returned more than one row");
  }
  Value v = rs.rows.empty() ? Value::Null() : rs.rows[0][0];
  return BoundExprPtr(std::make_unique<BoundLiteral>(std::move(v)));
}

}  // namespace

// ===========================================================================
// Public Executor facade
// ===========================================================================


namespace {

// ---------------------------------------------------------------------------
// Static plan rendering (ExplainPlan)
// ---------------------------------------------------------------------------

/// True iff every column reference of `expr` resolves uniquely in `schema`
/// (sub-queries are self-contained and always "resolve"). This mirrors how
/// the executor's ClaimConjuncts would succeed, without executing anything.
bool ExprResolvesIn(const sql::Expr& expr, const BindingSchema& schema) {
  switch (expr.kind()) {
    case sql::Expr::Kind::kColumnRef: {
      size_t index = 0;
      return TryResolve(schema, expr, &index);
    }
    case sql::Expr::Kind::kLiteral:
    case sql::Expr::Kind::kStar:
    case sql::Expr::Kind::kScalarSubquery:
      return true;
    case sql::Expr::Kind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      return ExprResolvesIn(*e.lhs, schema) && ExprResolvesIn(*e.rhs, schema);
    }
    case sql::Expr::Kind::kUnary:
      return ExprResolvesIn(
          *static_cast<const sql::UnaryExpr&>(expr).operand, schema);
    case sql::Expr::Kind::kFuncCall: {
      const auto& e = static_cast<const sql::FuncCallExpr&>(expr);
      for (const auto& a : e.args) {
        if (!ExprResolvesIn(*a, schema)) return false;
      }
      return true;
    }
    case sql::Expr::Kind::kIn: {
      const auto& e = static_cast<const sql::InExpr&>(expr);
      if (!ExprResolvesIn(*e.operand, schema)) return false;
      for (const auto& item : e.list) {
        if (!ExprResolvesIn(*item, schema)) return false;
      }
      return true;
    }
    case sql::Expr::Kind::kIsNull:
      return ExprResolvesIn(
          *static_cast<const sql::IsNullExpr&>(expr).operand, schema);
    case sql::Expr::Kind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      return ExprResolvesIn(*e.operand, schema) &&
             ExprResolvesIn(*e.lo, schema) && ExprResolvesIn(*e.hi, schema);
    }
    case sql::Expr::Kind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      if (e.operand != nullptr && !ExprResolvesIn(*e.operand, schema)) {
        return false;
      }
      for (const auto& w : e.whens) {
        if (!ExprResolvesIn(*w.condition, schema) ||
            !ExprResolvesIn(*w.result, schema)) {
          return false;
        }
      }
      return e.else_result == nullptr ||
             ExprResolvesIn(*e.else_result, schema);
    }
  }
  return false;
}

class PlanPrinter {
 public:
  explicit PlanPrinter(ExecutorImpl* impl) : impl_(impl) {}

  Result<std::string> Print(const sql::SelectStmt& stmt, int depth) {
    std::string out;
    const std::string indent(static_cast<size_t>(depth) * 2, ' ');

    bool is_aggregate = !stmt.group_by.empty() || stmt.having != nullptr;
    for (const auto& item : stmt.items) {
      if (item.expr->kind() != sql::Expr::Kind::kStar &&
          ContainsAggregate(*item.expr)) {
        is_aggregate = true;
      }
    }
    out += indent + "Select";
    if (stmt.distinct) out += " distinct";
    if (is_aggregate) {
      out += " [aggregate";
      if (!stmt.group_by.empty()) {
        out += " group by ";
        for (size_t i = 0; i < stmt.group_by.size(); ++i) {
          if (i > 0) out += ", ";
          out += sql::ToSql(*stmt.group_by[i]);
        }
      }
      if (stmt.having != nullptr) out += " having";
      out += "]";
    }
    if (!stmt.order_by.empty()) out += " [order by]";
    if (stmt.limit.has_value()) {
      out += " [limit " + std::to_string(*stmt.limit) + "]";
    }
    out += "\n";

    std::vector<PendingConjunct> pending;
    DecomposeConjuncts(stmt.where.get(), &pending);
    const NeededColumns needed = CollectNeeded(stmt);
    for (const auto& ref : stmt.from) {
      AAPAC_ASSIGN_OR_RETURN(std::string sub,
                             PrintRef(*ref, needed, &pending, depth + 1));
      out += sub;
    }
    std::vector<std::string> root_filters;
    for (const auto& pc : pending) {
      if (!pc.consumed) root_filters.push_back(sql::ToSql(*pc.expr));
    }
    if (!root_filters.empty()) {
      out += indent + "  Filter (post-join): ";
      for (size_t i = 0; i < root_filters.size(); ++i) {
        if (i > 0) out += " and ";
        out += root_filters[i];
      }
      out += "\n";
    }
    return out;
  }

 private:
  Result<std::string> PrintRef(const sql::TableRef& ref,
                               const NeededColumns& needed,
                               std::vector<PendingConjunct>* pending,
                               int depth) {
    const std::string indent(static_cast<size_t>(depth) * 2, ' ');
    switch (ref.kind()) {
      case sql::TableRef::Kind::kBaseTable: {
        const auto& base = static_cast<const sql::BaseTableRef&>(ref);
        AAPAC_ASSIGN_OR_RETURN(BindingSchema schema, impl_->SchemaOfRef(ref));
        std::string out = indent + "Scan " + base.table_name;
        if (!base.alias.empty()) out += " as " + base.alias;
        const Table* table = impl_->db_->FindTable(base.table_name);
        out += " rows=" + std::to_string(table ? table->num_rows() : 0);
        // Mirror EvalBase's access-path choice: the first conjunct this
        // scan would claim, tested for index sargability. Peek only — the
        // plan must not trigger an index rebuild.
        const SecondaryIndex* index = nullptr;
        SargPredicate sarg;
        if (opts().index_scans && opts().pushdown && table != nullptr) {
          for (const auto& pc : *pending) {
            if (pc.consumed) continue;
            if (!ExprResolvesIn(*pc.expr, schema)) continue;
            if (DetectSargable(*pc.expr, schema, &sarg)) {
              index = table->PeekIndexOn(sarg.column,
                                         /*need_range=*/!sarg.is_equality);
            }
            break;  // Only the first claimable conjunct can be sargable.
          }
        }
        // Claim before counting kept columns, mirroring EvalBase: conjuncts
        // this scan absorbs do not force their columns into the relation.
        const std::string claim = ClaimLine(schema, pending, depth);
        const NeededColumns scan_needed = ScanNeeded(needed, *pending);
        size_t kept = 0;
        for (const auto& col : schema) {
          if (scan_needed.Needs(col.binding, col.name)) ++kept;
        }
        out += " cols=" + std::to_string(kept) + "/" +
               std::to_string(schema.size()) + "\n";
        if (index != nullptr) {
          out += indent + "  IndexScan " + index->name() + " (" +
                 IndexKindName(index->kind()) + ") on " + index->column() +
                 (sarg.is_equality ? " [point]" : " [range]") + "\n";
        }
        out += claim;
        return out;
      }
      case sql::TableRef::Kind::kSubquery: {
        const auto& derived = static_cast<const sql::SubqueryTableRef&>(ref);
        std::string out = indent + "DerivedTable " + derived.alias + "\n";
        AAPAC_ASSIGN_OR_RETURN(std::string sub,
                               Print(*derived.subquery, depth + 1));
        out += sub;
        AAPAC_ASSIGN_OR_RETURN(BindingSchema schema, impl_->SchemaOfRef(ref));
        out += ClaimLine(schema, pending, depth);
        return out;
      }
      case sql::TableRef::Kind::kJoin: {
        const auto& join = static_cast<const sql::JoinRef&>(ref);
        AAPAC_ASSIGN_OR_RETURN(BindingSchema left_schema,
                               impl_->SchemaOfRef(*join.left));
        AAPAC_ASSIGN_OR_RETURN(BindingSchema right_schema,
                               impl_->SchemaOfRef(*join.right));
        // Mirror EvalJoin's equi-pair extraction to report the strategy.
        std::vector<PendingConjunct> on_conjuncts;
        DecomposeConjuncts(join.on.get(), &on_conjuncts);
        std::vector<std::string> keys;
        std::vector<std::string> residual;
        for (const auto& pc : on_conjuncts) {
          bool matched = false;
          if (pc.expr->kind() == sql::Expr::Kind::kBinary) {
            const auto& bin = static_cast<const sql::BinaryExpr&>(*pc.expr);
            if (bin.op == BinaryOp::kEq) {
              size_t li = 0;
              size_t ri = 0;
              if ((TryResolve(left_schema, *bin.lhs, &li) &&
                   TryResolve(right_schema, *bin.rhs, &ri)) ||
                  (TryResolve(left_schema, *bin.rhs, &li) &&
                   TryResolve(right_schema, *bin.lhs, &ri))) {
                keys.push_back(sql::ToSql(*pc.expr));
                matched = true;
              }
            }
          }
          if (!matched) residual.push_back(sql::ToSql(*pc.expr));
        }
        std::string out = indent;
        out += keys.empty() ? "NestedLoopJoin" : "HashJoin";
        if (!keys.empty()) {
          out += " on ";
          for (size_t i = 0; i < keys.size(); ++i) {
            if (i > 0) out += " and ";
            out += keys[i];
          }
        }
        out += "\n";
        if (!residual.empty()) {
          out += indent + "  Residual: ";
          for (size_t i = 0; i < residual.size(); ++i) {
            if (i > 0) out += " and ";
            out += residual[i];
          }
          out += "\n";
        }
        AAPAC_ASSIGN_OR_RETURN(
            std::string left,
            PrintRef(*join.left, needed, pending, depth + 1));
        out += left;
        AAPAC_ASSIGN_OR_RETURN(
            std::string right,
            PrintRef(*join.right, needed, pending, depth + 1));
        out += right;
        BindingSchema combined = left_schema;
        combined.insert(combined.end(), right_schema.begin(),
                        right_schema.end());
        out += ClaimLine(combined, pending, depth);
        return out;
      }
    }
    return Status::Internal("unhandled table ref kind");
  }

  /// Prints claimed (pushed-down) conjuncts for a node schema.
  std::string ClaimLine(const BindingSchema& schema,
                        std::vector<PendingConjunct>* pending, int depth) {
    if (!opts().pushdown) return "";
    std::vector<std::string> claimed;
    for (auto& pc : *pending) {
      if (pc.consumed) continue;
      if (ExprResolvesIn(*pc.expr, schema)) {
        pc.consumed = true;
        claimed.push_back(sql::ToSql(*pc.expr));
      }
    }
    if (claimed.empty()) return "";
    std::string out(static_cast<size_t>(depth) * 2 + 2, ' ');
    out += "Filter: ";
    for (size_t i = 0; i < claimed.size(); ++i) {
      if (i > 0) out += " and ";
      out += claimed[i];
    }
    out += "\n";
    return out;
  }

  const ExecOptions& opts() const { return impl_->opts_; }

  ExecutorImpl* impl_;
};

}  // namespace

Result<std::string> Executor::ExplainPlan(const sql::SelectStmt& stmt) {
  ExecutorImpl impl(db_, &stats_, options_);
  PlanPrinter printer(&impl);
  return printer.Print(stmt, 0);
}

Result<std::string> Executor::ExplainPlanSql(const std::string& sql) {
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql));
  return ExplainPlan(*stmt);
}

Result<ResultSet> Executor::Execute(const sql::SelectStmt& stmt) {
  return Execute(stmt, ParallelSpec{});
}

Result<ResultSet> Executor::Execute(const sql::SelectStmt& stmt,
                                    const ParallelSpec& spec) {
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  // A disabled spec runs exactly the serial path.
  ExecutorImpl impl(db_, &stats_, options_, spec.enabled() ? &spec : nullptr);
  return impl.Execute(stmt);
}

Result<ResultSet> Executor::ExecuteSql(const std::string& sql) {
  AAPAC_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                         sql::ParseSelect(sql));
  return Execute(*stmt);
}

Result<std::vector<Row>> Executor::EvalInsertSource(
    const sql::InsertStmt& stmt) {
  ExecutorImpl impl(db_, &stats_, options_);
  if (stmt.select != nullptr) {
    AAPAC_ASSIGN_OR_RETURN(ResultSet rs, impl.Execute(*stmt.select));
    return std::move(rs.rows);
  }
  if (stmt.rows.empty()) {
    return Status::InvalidArgument("INSERT without source rows");
  }
  // Constant VALUES rows bind against an empty schema: column references
  // are rejected, scalar functions and (uncorrelated) sub-queries work.
  const BindingSchema empty;
  Binder binder(empty, db_, &impl, /*agg_specs=*/nullptr);
  const Row no_input;
  std::vector<Row> out;
  out.reserve(stmt.rows.size());
  for (const auto& exprs : stmt.rows) {
    Row row;
    row.reserve(exprs.size());
    for (const auto& e : exprs) {
      AAPAC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*e));
      AAPAC_ASSIGN_OR_RETURN(Value v, bound->Eval(no_input, nullptr));
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

namespace {

/// Scoped copy-on-write transaction for the three DML entry points under
/// epoch versioning (no-ops when the database is unversioned): opens the
/// target table's working clone up front and publishes every open working
/// copy on ALL exit paths — success and error alike. Publishing a
/// rolled-back or untouched working state is deliberate: it reproduces the
/// unversioned path's observable state (intern-version bumps included) byte
/// for byte, which the differential harness's epoch-on/off legs assert.
struct ScopedDmlWrite {
  Database* db;
  ScopedDmlWrite(Database* db, Table* table) : db(db) { table->BeginWrite(); }
  ~ScopedDmlWrite() { db->PublishWrites(); }
};

}  // namespace

Result<size_t> Executor::ExecuteInsert(
    const sql::InsertStmt& stmt,
    const std::optional<std::pair<std::string, Value>>& forced_column) {
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  AAPAC_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  ScopedDmlWrite write(db_, table);
  const Schema& schema = table->schema();

  std::optional<size_t> forced_index;
  if (forced_column.has_value()) {
    forced_index = schema.FindColumn(forced_column->first);
    if (!forced_index.has_value()) {
      return Status::NotFound("forced column '" + forced_column->first +
                              "' not found in '" + stmt.table + "'");
    }
  }

  // Resolve target column indices.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (forced_index.has_value() && i == *forced_index) continue;
      targets.push_back(i);
    }
  } else {
    for (const std::string& name : stmt.columns) {
      auto idx = schema.FindColumn(name);
      if (!idx.has_value()) {
        return Status::NotFound("column '" + name + "' not found in '" +
                                stmt.table + "'");
      }
      if (forced_index.has_value() && *idx == *forced_index) {
        return Status::InvalidArgument("column '" + name +
                                       "' is managed by the system and "
                                       "cannot be inserted explicitly");
      }
      for (size_t t : targets) {
        if (t == *idx) {
          return Status::InvalidArgument("column '" + name +
                                         "' listed twice in INSERT");
        }
      }
      targets.push_back(*idx);
    }
  }

  AAPAC_ASSIGN_OR_RETURN(std::vector<Row> source, EvalInsertSource(stmt));

  // All-or-nothing: build full rows, then insert with rollback on failure.
  std::vector<Row> full;
  full.reserve(source.size());
  for (Row& row : source) {
    if (row.size() != targets.size()) {
      return Status::InvalidArgument(
          "INSERT row has " + std::to_string(row.size()) + " value(s), " +
          std::to_string(targets.size()) + " expected");
    }
    Row out(schema.num_columns());  // Unlisted columns default to NULL.
    for (size_t i = 0; i < targets.size(); ++i) {
      out[targets[i]] = std::move(row[i]);
    }
    if (forced_index.has_value()) out[*forced_index] = forced_column->second;
    full.push_back(std::move(out));
  }
  const size_t before = table->num_rows();
  for (Row& row : full) {
    Status st = table->Insert(std::move(row));
    if (!st.ok()) {
      table->TruncateTo(before);
      return st;
    }
  }
  return full.size();
}

namespace {

/// Binds an expression against a base table's own schema (binding name =
/// table name), as UPDATE/DELETE clauses see it.
Result<BoundExprPtr> BindAgainstTable(const Table& table, Database* db,
                                      ExecutorImpl* impl,
                                      const sql::Expr& expr) {
  BindingSchema schema;
  schema.reserve(table.schema().num_columns());
  for (const auto& col : table.schema().columns()) {
    schema.push_back(BoundColumn{table.name(), col.name, col.type});
  }
  Binder binder(schema, db, impl, /*agg_specs=*/nullptr);
  return binder.Bind(expr);
}

/// True iff `row` satisfies the (optional) bound predicate.
Result<bool> RowMatches(const BoundExprPtr& predicate, const Row& row) {
  if (predicate == nullptr) return true;
  AAPAC_ASSIGN_OR_RETURN(Value v, predicate->Eval(row, nullptr));
  return !v.is_null() && v.type() == ValueType::kBool && v.AsBool();
}

}  // namespace

Result<size_t> Executor::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  AAPAC_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  ScopedDmlWrite write(db_, table);
  if (stmt.assignments.empty()) {
    return Status::InvalidArgument("UPDATE without assignments");
  }
  ExecutorImpl impl(db_, &stats_, options_);

  // Resolve targets and bind right-hand sides.
  std::vector<size_t> targets;
  std::vector<BoundExprPtr> values;
  for (const auto& assignment : stmt.assignments) {
    auto idx = table->schema().FindColumn(assignment.column);
    if (!idx.has_value()) {
      return Status::NotFound("column '" + assignment.column +
                              "' not found in '" + stmt.table + "'");
    }
    for (size_t t : targets) {
      if (t == *idx) {
        return Status::InvalidArgument("column '" + assignment.column +
                                       "' assigned twice");
      }
    }
    targets.push_back(*idx);
    AAPAC_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        BindAgainstTable(*table, db_, &impl, *assignment.value));
    values.push_back(std::move(bound));
  }
  BoundExprPtr predicate;
  if (stmt.where != nullptr) {
    AAPAC_ASSIGN_OR_RETURN(predicate,
                           BindAgainstTable(*table, db_, &impl, *stmt.where));
  }

  // Snapshot pass: evaluate everything against the old rows first.
  struct StagedUpdate {
    size_t row;
    std::vector<Value> values;
  };
  std::vector<StagedUpdate> staged;
  stats_.rows_scanned += table->num_rows();
  for (size_t i = 0; i < table->num_rows(); ++i) {
    AAPAC_ASSIGN_OR_RETURN(bool match, RowMatches(predicate, table->row(i)));
    if (!match) continue;
    StagedUpdate update;
    update.row = i;
    update.values.reserve(values.size());
    for (size_t v = 0; v < values.size(); ++v) {
      AAPAC_ASSIGN_OR_RETURN(Value value,
                             values[v]->Eval(table->row(i), nullptr));
      const ValueType declared = table->schema().column(targets[v]).type;
      if (!ColumnTypeAccepts(declared, value.type())) {
        return Status::InvalidArgument(
            "value of type " + std::string(ValueTypeToString(value.type())) +
            " not accepted by column '" +
            table->schema().column(targets[v]).name + "'");
      }
      if (declared == ValueType::kDouble &&
          value.type() == ValueType::kInt64) {
        value = Value::Double(static_cast<double>(value.AsInt()));
      }
      update.values.push_back(std::move(value));
    }
    staged.push_back(std::move(update));
  }
  // Write pass.
  for (StagedUpdate& update : staged) {
    Row& row = table->mutable_row(update.row);
    for (size_t v = 0; v < targets.size(); ++v) {
      table->InternColumnValue(targets[v], &update.values[v]);
      row[targets[v]] = std::move(update.values[v]);
    }
  }
  return staged.size();
}

Result<size_t> Executor::ExecuteDelete(const sql::DeleteStmt& stmt) {
  stats_.statements.fetch_add(1, std::memory_order_relaxed);
  AAPAC_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  ScopedDmlWrite write(db_, table);
  ExecutorImpl impl(db_, &stats_, options_);
  BoundExprPtr predicate;
  if (stmt.where != nullptr) {
    AAPAC_ASSIGN_OR_RETURN(predicate,
                           BindAgainstTable(*table, db_, &impl, *stmt.where));
  }
  std::vector<size_t> doomed;
  stats_.rows_scanned += table->num_rows();
  for (size_t i = 0; i < table->num_rows(); ++i) {
    AAPAC_ASSIGN_OR_RETURN(bool match, RowMatches(predicate, table->row(i)));
    if (match) doomed.push_back(i);
  }
  return table->EraseRows(doomed);
}

}  // namespace aapac::engine
