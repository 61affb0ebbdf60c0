#include "sql/parser.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "sql/lexer.h"

namespace galois::sql {

namespace {

/// Recursive-descent parser over the token stream. Every Parse* function
/// that returns an expression leaves its tree depth in depth_, so each
/// node's depth is known the moment it is built and an over-deep tree is
/// rejected before it grows further (and before anything has to walk or
/// destroy it recursively).
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    GALOIS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelectBody());
    // optional trailing semicolon
    if (Current().type == TokenType::kSemicolon) Advance();
    if (Current().type != TokenType::kEof) {
      return Unexpected("end of query");
    }
    return stmt;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead = 1) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (Current().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) return Unexpected("keyword " + kw);
    return Status::OK();
  }

  bool Accept(TokenType t) {
    if (Current().type == t) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(TokenType t, const std::string& what) {
    if (!Accept(t)) return Unexpected(what);
    return Status::OK();
  }

  Status Unexpected(const std::string& expected) const {
    return Status::ParseError("expected " + expected + " but found '" +
                              (Current().type == TokenType::kEof
                                   ? "<eof>"
                                   : Current().text) +
                              "' at offset " +
                              std::to_string(Current().position));
  }

  /// Opens one level of syntactic nesting (a recursive descent into a
  /// sub-expression); fails past kMaxExprDepth so the parser's own
  /// recursion stays bounded. Callers close the level with `--nesting_`
  /// on success; an error abandons the whole parse, so it needs no
  /// unwinding.
  Status Enter() {
    if (++nesting_ > kMaxExprDepth) return TooDeep();
    return Status::OK();
  }

  /// Records that the node about to be built sits directly above children
  /// whose deepest is `child_depth`.
  Status Deepen(int child_depth) {
    depth_ = child_depth + 1;
    if (depth_ > kMaxExprDepth) return TooDeep();
    return Status::OK();
  }

  Status TooDeep() const {
    return Status::ParseError("expression nested deeper than " +
                              std::to_string(kMaxExprDepth) +
                              " levels at offset " +
                              std::to_string(Current().position));
  }

  Result<SelectStatement> ParseSelectBody() {
    SelectStatement stmt;
    GALOIS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    stmt.distinct = AcceptKeyword("DISTINCT");
    // select list
    while (true) {
      SelectItem item;
      GALOIS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        if (Current().type != TokenType::kIdentifier) {
          return Unexpected("alias identifier after AS");
        }
        item.alias = Current().text;
        Advance();
      } else if (Current().type == TokenType::kIdentifier) {
        item.alias = Current().text;
        Advance();
      }
      stmt.select_list.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
    GALOIS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    // from list
    while (true) {
      GALOIS_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt.from.push_back(std::move(ref));
      if (!Accept(TokenType::kComma)) break;
    }
    // explicit joins
    while (true) {
      JoinType jt = JoinType::kInner;
      if (AcceptKeyword("JOIN")) {
        jt = JoinType::kInner;
      } else if (Current().IsKeyword("INNER") &&
                 Peek().IsKeyword("JOIN")) {
        Advance();
        Advance();
      } else if (Current().IsKeyword("LEFT")) {
        Advance();
        AcceptKeyword("OUTER");
        GALOIS_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jt = JoinType::kLeft;
      } else {
        break;
      }
      JoinClause clause;
      clause.type = jt;
      GALOIS_ASSIGN_OR_RETURN(clause.table, ParseTableRef());
      GALOIS_RETURN_IF_ERROR(ExpectKeyword("ON"));
      GALOIS_ASSIGN_OR_RETURN(clause.condition, ParseExpr());
      stmt.joins.push_back(std::move(clause));
    }
    if (AcceptKeyword("WHERE")) {
      GALOIS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      GALOIS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        GALOIS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      GALOIS_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      GALOIS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        GALOIS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Current().type != TokenType::kIntLiteral) {
        return Unexpected("integer after LIMIT");
      }
      stmt.limit = std::strtoll(Current().text.c_str(), nullptr, 10);
      Advance();
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Current().type != TokenType::kIdentifier) {
      return Unexpected("table name");
    }
    std::string first = Current().text;
    Advance();
    if (Accept(TokenType::kDot)) {
      if (Current().type != TokenType::kIdentifier) {
        return Unexpected("table name after source qualifier");
      }
      ref.source = ToUpper(first);
      ref.table = Current().text;
      Advance();
    } else {
      ref.table = first;
    }
    if (AcceptKeyword("AS")) {
      if (Current().type != TokenType::kIdentifier) {
        return Unexpected("alias after AS");
      }
      ref.alias = Current().text;
      Advance();
    } else if (Current().type == TokenType::kIdentifier) {
      ref.alias = Current().text;
      Advance();
    }
    return ref;
  }

  // Expression grammar, lowest precedence first.
  Result<ExprPtr> ParseExpr() {
    GALOIS_RETURN_IF_ERROR(Enter());
    GALOIS_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    --nesting_;
    return e;
  }

  Result<ExprPtr> ParseOr() {
    GALOIS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      const int lhs_depth = depth_;
      GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
      lhs = Expr::MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    GALOIS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AcceptKeyword("AND")) {
      const int lhs_depth = depth_;
      GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
      lhs = Expr::MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      GALOIS_RETURN_IF_ERROR(Enter());
      GALOIS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      --nesting_;
      GALOIS_RETURN_IF_ERROR(Deepen(depth_));
      return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    GALOIS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    const int lhs_depth = depth_;
    // IS [NOT] NULL
    if (Current().IsKeyword("IS")) {
      Advance();
      bool negated = AcceptKeyword("NOT");
      GALOIS_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      GALOIS_RETURN_IF_ERROR(Deepen(lhs_depth));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      return ExprPtr(std::move(e));
    }
    // [NOT] BETWEEN / IN / LIKE
    bool negated = false;
    if (Current().IsKeyword("NOT") &&
        (Peek().IsKeyword("BETWEEN") || Peek().IsKeyword("IN") ||
         Peek().IsKeyword("LIKE"))) {
      negated = true;
      Advance();
    }
    if (AcceptKeyword("BETWEEN")) {
      GALOIS_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      const int lo_depth = depth_;
      GALOIS_RETURN_IF_ERROR(ExpectKeyword("AND"));
      GALOIS_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max({lhs_depth, lo_depth, depth_})));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      ExprPtr out(std::move(e));
      if (negated) {
        GALOIS_RETURN_IF_ERROR(Deepen(depth_));
        out = Expr::MakeUnary(UnaryOp::kNot, std::move(out));
      }
      return out;
    }
    if (AcceptKeyword("IN")) {
      GALOIS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after IN"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      int child_depth = lhs_depth;
      while (true) {
        GALOIS_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        child_depth = std::max(child_depth, depth_);
        e->children.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
      GALOIS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      GALOIS_RETURN_IF_ERROR(Deepen(child_depth));
      return ExprPtr(std::move(e));
    }
    if (AcceptKeyword("LIKE")) {
      GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
      ExprPtr out =
          Expr::MakeBinary(BinaryOp::kLike, std::move(lhs), std::move(rhs));
      if (negated) {
        GALOIS_RETURN_IF_ERROR(Deepen(depth_));
        out = Expr::MakeUnary(UnaryOp::kNot, std::move(out));
      }
      return out;
    }
    BinaryOp op;
    switch (Current().type) {
      case TokenType::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenType::kNotEq:
        op = BinaryOp::kNotEq;
        break;
      case TokenType::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenType::kLtEq:
        op = BinaryOp::kLtEq;
        break;
      case TokenType::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenType::kGtEq:
        op = BinaryOp::kGtEq;
        break;
      default:
        return lhs;
    }
    Advance();
    GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
    return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    GALOIS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Current().type == TokenType::kPlus) {
        op = BinaryOp::kPlus;
      } else if (Current().type == TokenType::kMinus) {
        op = BinaryOp::kMinus;
      } else {
        break;
      }
      Advance();
      const int lhs_depth = depth_;
      GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    GALOIS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Current().type == TokenType::kStar) {
        op = BinaryOp::kMul;
      } else if (Current().type == TokenType::kSlash) {
        op = BinaryOp::kDiv;
      } else if (Current().type == TokenType::kPercent) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      Advance();
      const int lhs_depth = depth_;
      GALOIS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      GALOIS_RETURN_IF_ERROR(Deepen(std::max(lhs_depth, depth_)));
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept(TokenType::kMinus)) {
      GALOIS_RETURN_IF_ERROR(Enter());
      GALOIS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      --nesting_;
      GALOIS_RETURN_IF_ERROR(Deepen(depth_));
      return Expr::MakeUnary(UnaryOp::kNegate, std::move(operand));
    }
    if (Accept(TokenType::kPlus)) {
      // A unary plus builds no node, but still recurses.
      GALOIS_RETURN_IF_ERROR(Enter());
      GALOIS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      --nesting_;
      return operand;
    }
    return ParsePrimary();
  }

  bool IsAggregateKeyword(const Token& t) const {
    return t.type == TokenType::kKeyword &&
           (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" ||
            t.text == "MIN" || t.text == "MAX");
  }

  Result<ExprPtr> ParsePrimary() {
    depth_ = 1;  // a leaf; parenthesised and aggregate primaries overwrite it
    const Token& tok = Current();
    switch (tok.type) {
      case TokenType::kIntLiteral: {
        int64_t v = std::strtoll(tok.text.c_str(), nullptr, 10);
        Advance();
        return Expr::MakeLiteral(Value::Int(v));
      }
      case TokenType::kDoubleLiteral: {
        double v = std::strtod(tok.text.c_str(), nullptr);
        Advance();
        return Expr::MakeLiteral(Value::Double(v));
      }
      case TokenType::kStringLiteral: {
        std::string s = tok.text;
        Advance();
        return Expr::MakeLiteral(Value::String(std::move(s)));
      }
      case TokenType::kStar:
        Advance();
        return Expr::MakeStar();
      case TokenType::kLParen: {
        Advance();
        GALOIS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        GALOIS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      case TokenType::kKeyword: {
        if (tok.text == "NULL") {
          Advance();
          return Expr::MakeLiteral(Value::Null());
        }
        if (tok.text == "TRUE") {
          Advance();
          return Expr::MakeLiteral(Value::Bool(true));
        }
        if (tok.text == "FALSE") {
          Advance();
          return Expr::MakeLiteral(Value::Bool(false));
        }
        if (IsAggregateKeyword(tok)) {
          std::string name = tok.text;
          Advance();
          GALOIS_RETURN_IF_ERROR(
              Expect(TokenType::kLParen, "'(' after " + name));
          bool distinct = AcceptKeyword("DISTINCT");
          std::vector<ExprPtr> args;
          if (Current().type == TokenType::kStar) {
            Advance();
            args.push_back(Expr::MakeStar());
          } else {
            GALOIS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          }
          GALOIS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          GALOIS_RETURN_IF_ERROR(Deepen(depth_));
          return Expr::MakeFunction(name, std::move(args), distinct);
        }
        return Unexpected("expression");
      }
      case TokenType::kIdentifier: {
        std::string first = tok.text;
        Advance();
        if (Current().type == TokenType::kDot) {
          Advance();
          if (Current().type == TokenType::kStar) {
            // alias.* — treated as star scoped to the alias.
            Advance();
            auto e = Expr::MakeStar();
            e->table = first;
            return e;
          }
          if (Current().type != TokenType::kIdentifier) {
            return Unexpected("column name after '.'");
          }
          std::string col = Current().text;
          Advance();
          return Expr::MakeColumnRef(first, std::move(col));
        }
        // plain function call on identifier? none in the dialect; treat as
        // unqualified column ref.
        return Expr::MakeColumnRef("", std::move(first));
      }
      default:
        return Unexpected("expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;  // open syntactic nesting levels (Enter)
  int depth_ = 0;    // tree depth of the expression last parsed
};

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& query) {
  GALOIS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace galois::sql
