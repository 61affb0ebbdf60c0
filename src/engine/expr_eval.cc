#include "engine/expr_eval.h"

#include <algorithm>

namespace galois::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

/// Tri-state boolean for SQL three-valued logic.
enum class Tri { kFalse, kTrue, kNull };

Tri ValueToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.type() == DataType::kBool) {
    return v.bool_value() ? Tri::kTrue : Tri::kFalse;
  }
  auto d = v.AsDouble();
  if (d.ok()) return d.value() != 0.0 ? Tri::kTrue : Tri::kFalse;
  // Non-empty strings are truthy (lenient, matches the cleaning layer).
  if (v.type() == DataType::kString) {
    return v.string_value().empty() ? Tri::kFalse : Tri::kTrue;
  }
  return Tri::kNull;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

Result<Value> EvalComparison(BinaryOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  int cmp = lhs.Compare(rhs);
  bool out = false;
  switch (op) {
    case BinaryOp::kEq:
      out = cmp == 0;
      break;
    case BinaryOp::kNotEq:
      out = cmp != 0;
      break;
    case BinaryOp::kLt:
      out = cmp < 0;
      break;
    case BinaryOp::kLtEq:
      out = cmp <= 0;
      break;
    case BinaryOp::kGt:
      out = cmp > 0;
      break;
    case BinaryOp::kGtEq:
      out = cmp >= 0;
      break;
    default:
      return Status::Internal("EvalComparison called with non-comparison op");
  }
  return Value::Bool(out);
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  GALOIS_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
  GALOIS_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
  bool both_int = lhs.type() == DataType::kInt64 &&
                  rhs.type() == DataType::kInt64;
  switch (op) {
    case BinaryOp::kPlus:
      return both_int ? Value::Int(lhs.int_value() + rhs.int_value())
                      : Value::Double(a + b);
    case BinaryOp::kMinus:
      return both_int ? Value::Int(lhs.int_value() - rhs.int_value())
                      : Value::Double(a - b);
    case BinaryOp::kMul:
      return both_int ? Value::Int(lhs.int_value() * rhs.int_value())
                      : Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (!both_int || rhs.int_value() == 0) return Value::Null();
      return Value::Int(lhs.int_value() % rhs.int_value());
    default:
      return Status::Internal("EvalArithmetic called with non-arith op");
  }
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Classic two-pointer wildcard match: % = any run, _ = one char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

BoundExpr::BoundExpr(const Expr& expr, const Schema& schema,
                     const AggregateLayout* aggregates)
    : schema_(&schema), root_(Bind(expr, schema, aggregates)) {}

BoundExpr::Node BoundExpr::Bind(const Expr& expr, const Schema& schema,
                                const AggregateLayout* aggregates) {
  Node node;
  node.expr = &expr;
  if (expr.kind == ExprKind::kColumnRef) {
    auto idx = schema.ResolveQualified(expr.table, expr.column);
    if (idx.ok()) node.slot = idx.value();
    return node;
  }
  if (expr.kind == ExprKind::kFunction) {
    // Aggregate calls read their value from the row; arguments are never
    // evaluated here, so they stay unbound.
    if (aggregates != nullptr && aggregates->keys != nullptr) {
      const std::vector<std::string>& keys = *aggregates->keys;
      auto it = std::find(keys.begin(), keys.end(), expr.ToString());
      if (it != keys.end()) {
        node.slot = aggregates->first_column +
                    static_cast<size_t>(it - keys.begin());
      }
    }
    return node;
  }
  node.children.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    node.children.push_back(Bind(*child, schema, aggregates));
  }
  return node;
}

bool BoundExpr::CannotRaise() const { return CannotRaise(root_); }

bool BoundExpr::CannotRaise(const Node& node) {
  const Expr& e = *node.expr;
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
    case ExprKind::kFunction:
      return node.slot != kUnbound;
    case ExprKind::kStar:
      return false;
    case ExprKind::kUnary:
      if (e.unary_op != UnaryOp::kNot) return false;  // negate: strings
      break;
    case ExprKind::kBinary:
      switch (e.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          break;
        default:
          return false;  // arithmetic and LIKE type-check their operands
      }
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      break;
  }
  for (const Node& child : node.children) {
    if (!CannotRaise(child)) return false;
  }
  return true;
}

const Value* BoundExpr::Peek(const Node& node, const Tuple& tuple) {
  if (node.expr->kind == ExprKind::kLiteral) return &node.expr->literal;
  if (node.expr->kind == ExprKind::kColumnRef && node.slot < tuple.size()) {
    return &tuple[node.slot];
  }
  return nullptr;
}

Result<Value> BoundExpr::Eval(const Tuple& tuple) const {
  return EvalNode(root_, tuple);
}

Result<bool> BoundExpr::Test(const Tuple& tuple) const {
  GALOIS_ASSIGN_OR_RETURN(Value v, EvalNode(root_, tuple));
  return ValueToTri(v) == Tri::kTrue;
}

Result<Value> BoundExpr::EvalNode(const Node& node,
                                  const Tuple& tuple) const {
  const Expr& expr = *node.expr;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kStar:
      return Status::ExecutionError(
          "'*' is only valid inside COUNT(*) or as the whole select list");
    case ExprKind::kColumnRef: {
      size_t idx = node.slot;
      if (idx == kUnbound) {
        GALOIS_ASSIGN_OR_RETURN(
            idx, schema_->ResolveQualified(expr.table, expr.column));
      }
      if (idx >= tuple.size()) {
        return Status::Internal("tuple narrower than schema");
      }
      return tuple[idx];
    }
    case ExprKind::kUnary: {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalNode(node.children[0], tuple));
      if (expr.unary_op == UnaryOp::kNot) {
        Tri t = ValueToTri(v);
        if (t == Tri::kNull) return Value::Null();
        return Value::Bool(t == Tri::kFalse);
      }
      // negate
      if (v.is_null()) return Value::Null();
      if (v.type() == DataType::kInt64) return Value::Int(-v.int_value());
      GALOIS_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::Double(-d);
    }
    case ExprKind::kBinary: {
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        GALOIS_ASSIGN_OR_RETURN(Value lv, EvalNode(node.children[0], tuple));
        Tri lt = ValueToTri(lv);
        if (expr.binary_op == BinaryOp::kAnd && lt == Tri::kFalse) {
          return Value::Bool(false);
        }
        if (expr.binary_op == BinaryOp::kOr && lt == Tri::kTrue) {
          return Value::Bool(true);
        }
        GALOIS_ASSIGN_OR_RETURN(Value rv, EvalNode(node.children[1], tuple));
        Tri rt = ValueToTri(rv);
        if (expr.binary_op == BinaryOp::kAnd) {
          if (rt == Tri::kFalse) return Value::Bool(false);
          if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
          return Value::Bool(true);
        }
        if (rt == Tri::kTrue) return Value::Bool(true);
        if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
        return Value::Bool(false);
      }
      if (IsComparison(expr.binary_op)) {
        // Literal and bound-column operands cannot fail: compare them in
        // place instead of copying them out of the tuple.
        const Value* l = Peek(node.children[0], tuple);
        const Value* r = Peek(node.children[1], tuple);
        if (l != nullptr && r != nullptr) {
          return EvalComparison(expr.binary_op, *l, *r);
        }
      }
      GALOIS_ASSIGN_OR_RETURN(Value lhs, EvalNode(node.children[0], tuple));
      GALOIS_ASSIGN_OR_RETURN(Value rhs, EvalNode(node.children[1], tuple));
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return EvalComparison(expr.binary_op, lhs, rhs);
        case BinaryOp::kPlus:
        case BinaryOp::kMinus:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArithmetic(expr.binary_op, lhs, rhs);
        case BinaryOp::kLike: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          if (lhs.type() != DataType::kString ||
              rhs.type() != DataType::kString) {
            return Status::TypeError("LIKE requires string operands");
          }
          return Value::Bool(
              LikeMatch(lhs.string_value(), rhs.string_value()));
        }
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    case ExprKind::kFunction: {
      if (node.slot != kUnbound) {
        if (node.slot >= tuple.size()) {
          return Status::Internal("tuple narrower than aggregate layout");
        }
        return tuple[node.slot];
      }
      return Status::ExecutionError(
          "aggregate '" + expr.ToString() +
          "' evaluated outside an aggregation context");
    }
    case ExprKind::kBetween: {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalNode(node.children[0], tuple));
      GALOIS_ASSIGN_OR_RETURN(Value lo, EvalNode(node.children[1], tuple));
      GALOIS_ASSIGN_OR_RETURN(Value hi, EvalNode(node.children[2], tuple));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kInList: {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalNode(node.children[0], tuple));
      if (v.is_null()) return Value::Null();
      bool found = false;
      bool saw_null = false;
      for (size_t i = 1; i < node.children.size(); ++i) {
        GALOIS_ASSIGN_OR_RETURN(Value item, EvalNode(node.children[i], tuple));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(item) == 0) {
          found = true;
          break;
        }
      }
      if (!found && saw_null) return Value::Null();
      return Value::Bool(expr.negated ? !found : found);
    }
    case ExprKind::kIsNull: {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalNode(node.children[0], tuple));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> EvalExpr(const Expr& expr, const Schema& schema,
                       const Tuple& tuple) {
  return BoundExpr(expr, schema).Eval(tuple);
}

Result<bool> EvalPredicate(const Expr& expr, const Schema& schema,
                           const Tuple& tuple) {
  return BoundExpr(expr, schema).Test(tuple);
}

}  // namespace galois::engine
