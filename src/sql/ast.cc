#include "sql/ast.h"

#include <functional>
#include <sstream>

#include "common/strings.h"

namespace galois::sql {

const char* AggregateFunctionName(AggregateFunction f) {
  switch (f) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
  }
  return "?";
}

namespace {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLtEq:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGtEq:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kPlus:
      return "+";
    case BinaryOp::kMinus:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.type() == DataType::kString) {
        return "'" + literal.string_value() + "'";
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNot ? "NOT (" : "-(") +
             children[0]->ToString() + ")";
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " +
             BinaryOpSymbol(binary_op) + " " + children[1]->ToString() + ")";
    case ExprKind::kFunction: {
      std::string out = function_name + "(";
      if (distinct) out += "DISTINCT ";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      out += ")";
      return out;
    }
    case ExprKind::kBetween:
      return "(" + children[0]->ToString() + " BETWEEN " +
             children[1]->ToString() + " AND " + children[2]->ToString() +
             ")";
    case ExprKind::kInList: {
      std::string out = "(" + children[0]->ToString() +
                        (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      out += "))";
      return out;
    }
    case ExprKind::kIsNull:
      return "(" + children[0]->ToString() +
             (negated ? " IS NOT NULL)" : " IS NULL)");
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->table = table;
  out->column = column;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  out->function_name = function_name;
  out->distinct = distinct;
  out->negated = negated;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr Expr::MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeFunction(std::string name, std::vector<ExprPtr> args,
                           bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = ToUpper(name);
  e->children = std::move(args);
  e->distinct = distinct;
  return e;
}

std::string SelectStatement::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  for (size_t i = 0; i < select_list.size(); ++i) {
    if (i > 0) os << ", ";
    os << select_list[i].expr->ToString();
    if (!select_list[i].alias.empty()) os << " AS " << select_list[i].alias;
  }
  os << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    if (!from[i].source.empty()) os << from[i].source << ".";
    os << from[i].table;
    if (!from[i].alias.empty()) os << " " << from[i].alias;
  }
  for (const auto& j : joins) {
    os << (j.type == JoinType::kLeft ? " LEFT JOIN " : " JOIN ");
    if (!j.table.source.empty()) os << j.table.source << ".";
    os << j.table.table;
    if (!j.table.alias.empty()) os << " " << j.table.alias;
    if (j.condition) os << " ON " << j.condition->ToString();
  }
  if (where) os << " WHERE " << where->ToString();
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i]->ToString();
    }
  }
  if (having) os << " HAVING " << having->ToString();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].expr->ToString();
      if (order_by[i].descending) os << " DESC";
    }
  }
  if (limit.has_value()) os << " LIMIT " << *limit;
  return os.str();
}

void VisitExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  for (const auto& c : e.children) VisitExpr(*c, fn);
}

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

bool ContainsAggregate(const Expr& e) {
  bool found = false;
  VisitExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kFunction) {
      const std::string& f = node.function_name;
      if (f == "COUNT" || f == "SUM" || f == "AVG" || f == "MIN" ||
          f == "MAX") {
        found = true;
      }
    }
  });
  return found;
}

}  // namespace galois::sql
