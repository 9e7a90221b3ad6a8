#ifndef AAPAC_ENGINE_EXPR_H_
#define AAPAC_ENGINE_EXPR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/functions.h"
#include "engine/value.h"
#include "sql/ast.h"
#include "util/result.h"
#include "util/strings.h"

/// Bound expression trees shared by the row-at-a-time executor (engine/exec)
/// and the vectorized executor (engine/vec): column references resolved to
/// row indices, functions to registry entries, aggregate calls to slots in a
/// per-group array, and uncorrelated sub-queries to materialized values or
/// sets. Evaluation is allocation-light. The introspection hooks (AsBinary,
/// TryLiteral, TryColumnIndex, AsMemoizedVerdict) exist so batch kernels can
/// recognize the shapes they specialize — a comparison over column/literal
/// operands, a memoized compliance conjunct — and fall back to per-row Eval
/// for everything else, keeping the two executors semantically identical by
/// construction.

namespace aapac::engine {

class BoundMemoizedVerdict;
class BoundBinary;
class BoundUnary;

/// Evaluates `l <op> r` for a comparison operator with SQL semantics:
/// NULL operands yield NULL, operands of incomparable types are an
/// execution error. Shared by BoundBinary::Eval and the vectorized
/// comparison kernel so both paths produce identical values and identical
/// error messages.
Result<Value> EvalComparison(sql::BinaryOp op, const Value& l, const Value& r);

/// Evaluates `l <op> r` for an arithmetic operator (integer or double,
/// integer division as in PostgreSQL, division by zero is an error).
Result<Value> EvalArithmetic(sql::BinaryOp op, const Value& l, const Value& r);

/// Expression bound to a concrete BindingSchema.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// `agg_slots` carries per-group aggregate results during the aggregate
  /// output phase; it is nullptr in the row phase.
  virtual Result<Value> Eval(const Row& row, const Row* agg_slots) const = 0;

  /// Zero-copy fast path: a pointer into `row` when this expression is a
  /// plain column reference, nullptr otherwise. Hot call sites that only
  /// inspect a value — the memoized compliance conjunct reading a multi-KB
  /// policy blob's interned id — use this to skip the Eval copy.
  virtual const Value* TryEvalRef(const Row& /*row*/) const { return nullptr; }

  /// Downcast for the zone-map and batch-compliance fast paths: non-null
  /// when this node is a memoized compliance conjunct.
  virtual const BoundMemoizedVerdict* AsMemoizedVerdict() const {
    return nullptr;
  }

  /// Downcast for the vectorized comparison kernel: non-null when this node
  /// is a binary operator.
  virtual const BoundBinary* AsBinary() const { return nullptr; }

  /// Downcast for the vectorized predicate kernel: non-null when this node
  /// is a unary operator. Lets the kernel see through NOT wrappers (e.g.
  /// `NOT x LIKE 'p%'`) and run the inner comparison loop with the keep
  /// condition inverted.
  virtual const BoundUnary* AsUnary() const { return nullptr; }

  /// The row index this expression reads when it is a plain column
  /// reference; nullopt otherwise.
  virtual std::optional<size_t> TryColumnIndex() const { return std::nullopt; }

  /// The constant this expression evaluates to when it is a literal;
  /// nullptr otherwise. Batch kernels hoist literal operands out of their
  /// per-row loops.
  virtual const Value* TryLiteral() const { return nullptr; }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

class BoundColumnRef final : public BoundExpr {
 public:
  explicit BoundColumnRef(size_t index) : index_(index) {}
  Result<Value> Eval(const Row& row, const Row*) const override {
    return row[index_];
  }
  const Value* TryEvalRef(const Row& row) const override {
    return &row[index_];
  }
  std::optional<size_t> TryColumnIndex() const override { return index_; }

 private:
  size_t index_;
};

class BoundLiteral final : public BoundExpr {
 public:
  explicit BoundLiteral(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(const Row&, const Row*) const override { return value_; }
  const Value* TryLiteral() const override { return &value_; }

 private:
  Value value_;
};

class BoundAggRef final : public BoundExpr {
 public:
  explicit BoundAggRef(size_t slot) : slot_(slot) {}
  Result<Value> Eval(const Row&, const Row* agg_slots) const override {
    if (agg_slots == nullptr) {
      return Status::Internal("aggregate referenced outside aggregate phase");
    }
    return (*agg_slots)[slot_];
  }

 private:
  size_t slot_;
};

class BoundBinary final : public BoundExpr {
 public:
  BoundBinary(sql::BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    // AND / OR implement Kleene logic with left-to-right short-circuiting;
    // the short-circuit on a false conjunct is load-bearing for the paper's
    // enforcement cost model (non-compliant rows skip later policy checks).
    if (op_ == sql::BinaryOp::kAnd) {
      AAPAC_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row, agg));
      if (!l.is_null() && l.type() == ValueType::kBool && !l.AsBool()) {
        return Value::Bool(false);
      }
      AAPAC_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row, agg));
      if (!r.is_null() && r.type() == ValueType::kBool && !r.AsBool()) {
        return Value::Bool(false);
      }
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    if (op_ == sql::BinaryOp::kOr) {
      AAPAC_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row, agg));
      if (!l.is_null() && l.type() == ValueType::kBool && l.AsBool()) {
        return Value::Bool(true);
      }
      AAPAC_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row, agg));
      if (!r.is_null() && r.type() == ValueType::kBool && r.AsBool()) {
        return Value::Bool(true);
      }
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    AAPAC_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row, agg));
    AAPAC_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row, agg));
    switch (op_) {
      case sql::BinaryOp::kEq:
      case sql::BinaryOp::kNe:
      case sql::BinaryOp::kLt:
      case sql::BinaryOp::kLe:
      case sql::BinaryOp::kGt:
      case sql::BinaryOp::kGe:
        return EvalComparison(op_, l, r);
      case sql::BinaryOp::kAdd:
      case sql::BinaryOp::kSub:
      case sql::BinaryOp::kMul:
      case sql::BinaryOp::kDiv:
      case sql::BinaryOp::kMod:
        return EvalArithmetic(op_, l, r);
      case sql::BinaryOp::kLike:
      case sql::BinaryOp::kNotLike: {
        if (l.is_null() || r.is_null()) return Value::Null();
        if (l.type() != ValueType::kString || r.type() != ValueType::kString) {
          return Status::ExecutionError("LIKE requires string operands");
        }
        const bool m = SqlLikeMatch(l.AsString(), r.AsString());
        return Value::Bool(op_ == sql::BinaryOp::kLike ? m : !m);
      }
      case sql::BinaryOp::kConcat: {
        if (l.is_null() || r.is_null()) return Value::Null();
        if (l.type() != ValueType::kString || r.type() != ValueType::kString) {
          return Status::ExecutionError("|| requires string operands");
        }
        return Value::String(l.AsString() + r.AsString());
      }
      default:
        return Status::Internal("unhandled binary operator");
    }
  }

  const BoundBinary* AsBinary() const override { return this; }

  sql::BinaryOp op() const { return op_; }
  const BoundExpr& lhs() const { return *lhs_; }
  const BoundExpr& rhs() const { return *rhs_; }

 private:
  sql::BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class BoundUnary final : public BoundExpr {
 public:
  BoundUnary(sql::UnaryOp op, BoundExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    AAPAC_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, agg));
    if (v.is_null()) return Value::Null();
    if (op_ == sql::UnaryOp::kNot) {
      if (v.type() != ValueType::kBool) {
        return Status::ExecutionError("NOT requires a boolean operand");
      }
      return Value::Bool(!v.AsBool());
    }
    // Negation.
    if (v.type() == ValueType::kInt64) return Value::Int(-v.AsInt());
    if (v.type() == ValueType::kDouble) return Value::Double(-v.AsDouble());
    return Status::ExecutionError("unary minus requires a numeric operand");
  }

  const BoundUnary* AsUnary() const override { return this; }

  sql::UnaryOp op() const { return op_; }
  const BoundExpr& operand() const { return *operand_; }

 private:
  sql::UnaryOp op_;
  BoundExprPtr operand_;
};

class BoundScalarCall final : public BoundExpr {
 public:
  BoundScalarCall(const ScalarFunction* fn, std::vector<BoundExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    std::vector<Value> arg_values;
    arg_values.reserve(args_.size());
    for (const auto& a : args_) {
      AAPAC_ASSIGN_OR_RETURN(Value v, a->Eval(row, agg));
      arg_values.push_back(std::move(v));
    }
    return fn_->fn(arg_values);
  }

 private:
  const ScalarFunction* fn_;
  std::vector<BoundExprPtr> args_;
};

/// A memoize_verdicts call site `fn(<literal>, <expr>)` — in practice the
/// rewriter-injected `complies_with(b'<asm>', t.policy)` conjunct. The node
/// owns a verdict table: one byte per policy-dictionary id, lazily filled
/// with fn's boolean result the first time a tuple carrying that id reaches
/// this call site, then replayed for every later tuple with the same id.
/// Because binding happens per statement execution (even for server-cached
/// ASTs), the table's lifetime is exactly one execution of one call site —
/// one signature mask — so the (signature, policy) key collapses to the id.
///
/// Tuples whose second argument carries no id (NULL policies, blobs written
/// without a dictionary, ids allocated after bind time) fall through to the
/// plain call, byte-for-byte the unmemoized path.
///
/// Thread safety: morsel workers evaluate shared bound filters
/// concurrently, so verdict slots are atomics, and the array is sized once
/// at bind time, so there is no resize race. A slot is filled exactly once
/// per execution (claim before compute, see EvalWithSubject): the memo's
/// miss count is the number of distinct ids evaluated, at any DOP.
class BoundMemoizedVerdict final : public BoundExpr {
 public:
  /// `static_class` != 0 puts the node in static-verdict mode: the
  /// rewriter's bind-time pass proved every policy the table can hold
  /// evaluates the same way for this conjunct's mask (1 = all allow,
  /// 2 = all deny), so Eval and Probe answer from that constant without a
  /// verdict table, a memo probe or even reading the subject. Each Eval
  /// still settles exactly one logical check (on_static_checks), keeping
  /// the Fig. 6 / audit accounting identical to the per-tuple path.
  BoundMemoizedVerdict(const ScalarFunction* fn, BoundExprPtr signature,
                       BoundExprPtr subject, uint32_t id_ceiling,
                       int static_class = 0)
      : fn_(fn),
        signature_(std::move(signature)),
        subject_(std::move(subject)),
        // make_unique value-initializes: every slot starts at kUnknown.
        // Static nodes never probe slots, so skip the allocation.
        verdicts_(static_class == 0
                      ? std::make_unique<std::atomic<uint8_t>[]>(id_ceiling)
                      : nullptr),
        ceiling_(id_ceiling),
        static_class_(static_class) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    return EvalImpl(row, agg, nullptr);
  }

  /// Eval for batch kernels, which settle Probe hits in aggregate: a row
  /// answered from the memo — its slot was filled by another lane after the
  /// caller's Probe saw kUnknown — sets `*memo_hit` and fires no callback,
  /// so the caller settles it exactly like a Probe hit. Fills, direct calls
  /// and static verdicts self-account as in Eval.
  Result<Value> EvalDeferringHit(const Row& row, bool* memo_hit) const {
    *memo_hit = false;
    return EvalImpl(row, nullptr, memo_hit);
  }

  const BoundMemoizedVerdict* AsMemoizedVerdict() const override {
    return this;
  }

  // --- Zone-map / batch-kernel probing. ------------------------------------

  /// Slot states. kFilling is transient: one lane claimed the slot and is
  /// computing its verdict. Probe reports it as kUnknown; Eval waits it out.
  static constexpr uint8_t kUnknown = 0, kFalse = 1, kTrue = 2, kFilling = 3;

  const ScalarFunction* function() const { return fn_; }

  /// The scan-relative column this conjunct's subject reads, when it is a
  /// plain column reference (the rewriter-injected `t.policy` always is).
  std::optional<size_t> SubjectColumn() const {
    return subject_->TryColumnIndex();
  }

  /// The cached verdict for `id` without filling: kUnknown when the id is
  /// out of range, untracked, not yet evaluated at this call site, or still
  /// being filled by another lane (callers fall back to Eval, which waits
  /// for the fill and reports the row as a hit). A static node answers its
  /// constant for every id — the pass already proved the whole dictionary
  /// uniform, and its decision is only valid while the table holds no
  /// un-interned policies, so the id cannot name a blob the classification
  /// missed.
  uint8_t Probe(uint32_t id) const {
    if (static_class_ != 0) return static_class_ == 1 ? kTrue : kFalse;
    if (id == 0 || id >= ceiling_) return kUnknown;
    const uint8_t v = verdicts_[id].load(std::memory_order_acquire);
    return v == kFilling ? kUnknown : v;
  }

  /// Bind-time static classification: 0 none, 1 all-allow, 2 all-deny.
  int static_class() const { return static_class_; }

 private:
  Result<Value> EvalImpl(const Row& row, const Row* agg,
                         bool* memo_hit) const {
    if (static_class_ != 0) {
      if (fn_->on_static_checks) {
        fn_->on_static_checks(1);
      } else if (fn_->on_memo_hit) {
        fn_->on_memo_hit();
      }
      return Value::Bool(static_class_ == 1);
    }
    // Hit-path tuples never copy the policy blob out of the row: the verdict
    // lookup only reads the interned id.
    if (const Value* ref = subject_->TryEvalRef(row); ref != nullptr) {
      return EvalWithSubject(*ref, row, agg, memo_hit);
    }
    AAPAC_ASSIGN_OR_RETURN(Value subject, subject_->Eval(row, agg));
    return EvalWithSubject(subject, row, agg, memo_hit);
  }

  /// Once-per-slot rule: a lane that finds the slot kUnknown claims it
  /// (kUnknown -> kFilling) before computing. Only the claiming lane calls
  /// fn — whose CheckTally bump is the row's one logical check — publishes
  /// the verdict with release ordering and reports on_memo_fill. Every other
  /// lane waits out kFilling and takes the stored verdict as a hit: through
  /// on_memo_hit, or through `*memo_hit` when the caller settles hits in
  /// aggregate. An error or a non-bool result puts the slot back to
  /// kUnknown, so the next lane computes (and fails) on its own.
  Result<Value> EvalWithSubject(const Value& subject, const Row& row,
                                const Row* agg, bool* memo_hit) const {
    const uint32_t id = subject.bytes_interned_id();
    if (id == 0 || id >= ceiling_) {
      return CallDirect(subject, row, agg);
    }
    std::atomic<uint8_t>& slot = verdicts_[id];
    uint8_t cached = slot.load(std::memory_order_acquire);
    for (;;) {
      if (cached == kTrue || cached == kFalse) break;
      if (cached == kFilling) {
        std::this_thread::yield();
        cached = slot.load(std::memory_order_acquire);
        continue;
      }
      // kUnknown: claim. On failure `cached` holds the slot's new state.
      if (slot.compare_exchange_weak(cached, kFilling,
                                     std::memory_order_acquire)) {
        break;
      }
    }
    if (cached != kUnknown) {
      if (memo_hit != nullptr) {
        *memo_hit = true;
      } else if (fn_->on_memo_hit) {
        fn_->on_memo_hit();
      }
      return Value::Bool(cached == kTrue);
    }
    const auto start = std::chrono::steady_clock::now();
    Result<Value> v = CallDirect(subject, row, agg);
    if (!v.ok() || v->type() != ValueType::kBool) {
      slot.store(kUnknown, std::memory_order_release);
      return v;
    }
    slot.store(v->AsBool() ? kTrue : kFalse, std::memory_order_release);
    if (fn_->on_memo_fill) {
      fn_->on_memo_fill(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
    return v;
  }

  Result<Value> CallDirect(const Value& subject, const Row& row,
                           const Row* agg) const {
    std::vector<Value> args;
    args.reserve(2);
    AAPAC_ASSIGN_OR_RETURN(Value sig, signature_->Eval(row, agg));
    args.push_back(std::move(sig));
    args.push_back(subject);
    return fn_->fn(args);
  }

  const ScalarFunction* fn_;
  BoundExprPtr signature_;
  BoundExprPtr subject_;
  std::unique_ptr<std::atomic<uint8_t>[]> verdicts_;
  const uint32_t ceiling_;
  const int static_class_;
};

class BoundInList final : public BoundExpr {
 public:
  BoundInList(BoundExprPtr operand, std::vector<BoundExprPtr> list,
              bool negated)
      : operand_(std::move(operand)),
        list_(std::move(list)),
        negated_(negated) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    AAPAC_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, agg));
    if (v.is_null()) return Value::Null();
    bool saw_null = false;
    for (const auto& item : list_) {
      AAPAC_ASSIGN_OR_RETURN(Value e, item->Eval(row, agg));
      if (e.is_null()) {
        saw_null = true;
        continue;
      }
      if (v.Equals(e)) return Value::Bool(!negated_);
    }
    if (saw_null) return Value::Null();
    return Value::Bool(negated_);
  }

 private:
  BoundExprPtr operand_;
  std::vector<BoundExprPtr> list_;
  bool negated_;
};

/// IN over an uncorrelated sub-query, materialized to a hash set at bind
/// time (mirrors PostgreSQL's hashed subplan).
class BoundInSet final : public BoundExpr {
 public:
  BoundInSet(BoundExprPtr operand,
             std::unordered_set<Value, ValueHash, ValueEq> set, bool has_null,
             bool negated)
      : operand_(std::move(operand)),
        set_(std::move(set)),
        has_null_(has_null),
        negated_(negated) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    AAPAC_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, agg));
    if (v.is_null()) return Value::Null();
    if (set_.count(v) > 0) return Value::Bool(!negated_);
    if (has_null_) return Value::Null();
    return Value::Bool(negated_);
  }

 private:
  BoundExprPtr operand_;
  std::unordered_set<Value, ValueHash, ValueEq> set_;
  bool has_null_;
  bool negated_;
};

class BoundIsNull final : public BoundExpr {
 public:
  BoundIsNull(BoundExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    AAPAC_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, agg));
    return Value::Bool(negated_ ? !v.is_null() : v.is_null());
  }

 private:
  BoundExprPtr operand_;
  bool negated_;
};

class BoundBetween final : public BoundExpr {
 public:
  BoundBetween(BoundExprPtr operand, BoundExprPtr lo, BoundExprPtr hi,
               bool negated)
      : operand_(std::move(operand)),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        negated_(negated) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    AAPAC_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, agg));
    AAPAC_ASSIGN_OR_RETURN(Value lo, lo_->Eval(row, agg));
    AAPAC_ASSIGN_OR_RETURN(Value hi, hi_->Eval(row, agg));
    AAPAC_ASSIGN_OR_RETURN(Value ge, EvalComparison(sql::BinaryOp::kGe, v, lo));
    AAPAC_ASSIGN_OR_RETURN(Value le, EvalComparison(sql::BinaryOp::kLe, v, hi));
    if (ge.is_null() || le.is_null()) return Value::Null();
    const bool in_range = ge.AsBool() && le.AsBool();
    return Value::Bool(negated_ ? !in_range : in_range);
  }

 private:
  BoundExprPtr operand_;
  BoundExprPtr lo_;
  BoundExprPtr hi_;
  bool negated_;
};

/// CASE expression: searched (predicate WHENs) or simple (operand equality).
class BoundCase final : public BoundExpr {
 public:
  struct BoundWhen {
    BoundExprPtr condition;
    BoundExprPtr result;
  };

  BoundCase(BoundExprPtr operand, std::vector<BoundWhen> whens,
            BoundExprPtr else_result)
      : operand_(std::move(operand)),
        whens_(std::move(whens)),
        else_result_(std::move(else_result)) {}

  Result<Value> Eval(const Row& row, const Row* agg) const override {
    Value subject;
    if (operand_ != nullptr) {
      AAPAC_ASSIGN_OR_RETURN(subject, operand_->Eval(row, agg));
    }
    for (const BoundWhen& when : whens_) {
      AAPAC_ASSIGN_OR_RETURN(Value cond, when.condition->Eval(row, agg));
      bool taken = false;
      if (operand_ != nullptr) {
        taken = !subject.is_null() && subject.Equals(cond);
      } else {
        taken = !cond.is_null() && cond.type() == ValueType::kBool &&
                cond.AsBool();
      }
      if (taken) return when.result->Eval(row, agg);
    }
    if (else_result_ != nullptr) return else_result_->Eval(row, agg);
    return Value::Null();
  }

 private:
  BoundExprPtr operand_;
  std::vector<BoundWhen> whens_;
  BoundExprPtr else_result_;
};

/// True iff the first `count` filters all evaluate to TRUE on `row`, left
/// to right, stopping at the first non-TRUE (NULL and non-boolean count as
/// non-TRUE). The row executor's per-tuple predicate; batch kernels must
/// keep exactly these semantics.
Result<bool> PassesFilterPrefix(const std::vector<BoundExprPtr>& filters,
                                size_t count, const Row& row);

/// PassesFilterPrefix over the whole filter list.
inline Result<bool> PassesFilters(const std::vector<BoundExprPtr>& filters,
                                  const Row& row) {
  return PassesFilterPrefix(filters, filters.size(), row);
}

}  // namespace aapac::engine

#endif  // AAPAC_ENGINE_EXPR_H_
