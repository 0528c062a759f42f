#include "flwor/parser.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"
#include "util/trace.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace flwor {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

class QueryParser {
 public:
  QueryParser(std::string_view input, const util::ParseLimits& limits)
      : input_(input), limits_(limits) {}

  Status Error(const std::string& msg) const {
    return Status::ParseError("FLWOR parse error at offset " +
                              std::to_string(pos_) + ": " + msg);
  }

  /// Bounds the mutual recursion ParseExpr → ParseFlwor → ParseExpr,
  /// ParseBool → … → ParsePrimary → ParseBool, and ParseConstructor →
  /// ParseConstructor: without it ~100k-deep inputs like `((((…))))`
  /// overflow the parser stack.
  Status EnterNesting() {
    if (++depth_ > limits_.max_depth) {
      return Error("nesting depth exceeds limit of " +
                   std::to_string(limits_.max_depth));
    }
    return Status::OK();
  }
  void LeaveNesting() { --depth_; }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return AtEnd() ? '\0' : input_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  /// True if the upcoming token is exactly the keyword `kw` (not a prefix
  /// of a longer name).
  bool PeekKeyword(std::string_view kw) {
    SkipSpace();
    if (!input_.substr(pos_).starts_with(kw)) return false;
    size_t after = pos_ + kw.size();
    return after >= input_.size() || !IsWordChar(input_[after]);
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    pos_ += kw.size();
    return true;
  }

  bool ConsumeToken(std::string_view tok) {
    SkipSpace();
    if (!input_.substr(pos_).starts_with(tok)) return false;
    pos_ += tok.size();
    return true;
  }

  Status ParseVariable(std::string* out) {
    SkipSpace();
    if (Peek() != '$') return Error("expected '$variable'");
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && IsWordChar(Peek())) ++pos_;
    if (pos_ == start) return Error("empty variable name");
    *out = std::string(input_.substr(start, pos_ - start));
    return Status::OK();
  }

  /// Parses a path and resolves its variable reference.
  Status ParseEmbeddedPath(xpath::PathExpr* out) {
    SkipSpace();
    size_t pos = pos_;
    auto r = xpath::ParsePathPrefix(input_, &pos, limits_.max_depth);
    if (!r.ok()) return r.status();
    pos_ = pos;
    *out = r.MoveValue();
    return Resolve(out);
  }

  /// Resolves a `$v` reference, once, to the slot of the innermost binding
  /// of `v` in scope. As in XQuery (XPST0008), a reference no binding
  /// reaches is a static error, whatever the data.
  Status Resolve(xpath::PathExpr* path) const {
    if (path->start == xpath::PathExpr::StartKind::kVariable) {
      auto it = std::find(scope_.rbegin(), scope_.rend(), path->variable);
      if (it == scope_.rend()) {
        return Status::InvalidArgument("unbound variable $" + path->variable);
      }
      path->var_slot = static_cast<uint32_t>(scope_.rend() - it) - 1;
    }
    return Status::OK();
  }

  Status ParseExpr(std::unique_ptr<Expr>* out) {
    BT_RETURN_NOT_OK(EnterNesting());
    Status st = ParseExprNoGuard(out);
    LeaveNesting();
    return st;
  }

  Status ParseExprNoGuard(std::unique_ptr<Expr>* out) {
    SkipSpace();
    auto expr = std::make_unique<Expr>();
    if (Peek() == '<' && PeekAt(1) != '/') {
      expr->kind = Expr::Kind::kConstructor;
      expr->ctor = std::make_unique<Constructor>();
      BT_RETURN_NOT_OK(ParseConstructor(expr->ctor.get()));
    } else if (PeekKeyword("for") || PeekKeyword("let")) {
      expr->kind = Expr::Kind::kFlwor;
      expr->flwor = std::make_unique<Flwor>();
      BT_RETURN_NOT_OK(ParseFlwor(expr->flwor.get()));
    } else {
      expr->kind = Expr::Kind::kPath;
      BT_RETURN_NOT_OK(ParseEmbeddedPath(&expr->path));
    }
    *out = std::move(expr);
    return Status::OK();
  }

  Status ParseWholeQuery(std::unique_ptr<Expr>* out) {
    BT_RETURN_NOT_OK(ParseExpr(out));
    SkipSpace();
    if (!AtEnd()) return Error("trailing input after query");
    return Status::OK();
  }

 private:
  Status ParseFlwor(Flwor* out) {
    size_t outer_scope = scope_.size();
    while (true) {
      Binding::Kind kind;
      if (ConsumeKeyword("for")) {
        kind = Binding::Kind::kFor;
      } else if (ConsumeKeyword("let")) {
        kind = Binding::Kind::kLet;
      } else {
        break;
      }
      // Both clauses allow a comma-separated binding list.
      while (true) {
        Binding b;
        b.kind = kind;
        BT_RETURN_NOT_OK(ParseVariable(&b.var));
        if (kind == Binding::Kind::kFor ? !ConsumeKeyword("in")
                                        : !ConsumeToken(":=")) {
          return Error(kind == Binding::Kind::kFor ? "expected 'in'"
                                                   : "expected ':='");
        }
        SkipSpace();
        // The path sees only earlier bindings; the new one takes the next
        // slot.
        BT_RETURN_NOT_OK(ParseEmbeddedPath(&b.path));
        b.var_slot = static_cast<uint32_t>(scope_.size());
        scope_.push_back(b.var);
        out->bindings.push_back(std::move(b));
        SkipSpace();
        if (!ConsumeToken(",")) break;
      }
    }
    if (out->bindings.empty()) {
      return Error("FLWOR requires at least one for/let clause");
    }
    if (ConsumeKeyword("where")) {
      BT_RETURN_NOT_OK(ParseBool(&out->where));
    }
    if (ConsumeKeyword("order")) {
      if (!ConsumeKeyword("by")) return Error("expected 'by' after 'order'");
      SkipSpace();
      xpath::PathExpr key;
      BT_RETURN_NOT_OK(ParseEmbeddedPath(&key));
      out->order_by = std::move(key);
      if (ConsumeKeyword("descending")) {
        out->order_descending = true;
      } else {
        (void)ConsumeKeyword("ascending");
      }
    }
    if (!ConsumeKeyword("return")) return Error("expected 'return'");
    Status st = ParseExpr(&out->ret);
    scope_.resize(outer_scope);  // The FLWOR's variables leave scope.
    return st;
  }

  Status ParseBool(std::unique_ptr<BoolExpr>* out) {
    BT_RETURN_NOT_OK(EnterNesting());
    Status st = ParseBoolNoGuard(out);
    LeaveNesting();
    return st;
  }

  Status ParseBoolNoGuard(std::unique_ptr<BoolExpr>* out) {
    BT_RETURN_NOT_OK(ParseAnd(out));
    while (PeekKeyword("or")) {
      ConsumeKeyword("or");
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolExpr::Kind::kOr;
      node->children.push_back(std::move(*out));
      std::unique_ptr<BoolExpr> rhs;
      BT_RETURN_NOT_OK(ParseAnd(&rhs));
      node->children.push_back(std::move(rhs));
      *out = std::move(node);
    }
    return Status::OK();
  }

  Status ParseAnd(std::unique_ptr<BoolExpr>* out) {
    BT_RETURN_NOT_OK(ParsePrimary(out));
    while (PeekKeyword("and")) {
      ConsumeKeyword("and");
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolExpr::Kind::kAnd;
      node->children.push_back(std::move(*out));
      std::unique_ptr<BoolExpr> rhs;
      BT_RETURN_NOT_OK(ParsePrimary(&rhs));
      node->children.push_back(std::move(rhs));
      *out = std::move(node);
    }
    return Status::OK();
  }

  Status ParsePrimary(std::unique_ptr<BoolExpr>* out) {
    SkipSpace();
    if (PeekKeyword("not")) {
      ConsumeKeyword("not");
      if (!ConsumeToken("(")) return Error("expected '(' after 'not'");
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolExpr::Kind::kNot;
      std::unique_ptr<BoolExpr> inner;
      BT_RETURN_NOT_OK(ParseBool(&inner));
      node->children.push_back(std::move(inner));
      if (!ConsumeToken(")")) return Error("expected ')' after not(...)");
      *out = std::move(node);
      return Status::OK();
    }
    if (PeekKeyword("exists") || PeekKeyword("empty")) {
      bool empty_form = PeekKeyword("empty");
      ConsumeKeyword(empty_form ? "empty" : "exists");
      if (!ConsumeToken("(")) return Error("expected '(' after exists/empty");
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolExpr::Kind::kCompare;
      node->op = WhereOp::kExists;
      BT_RETURN_NOT_OK(ParseOperand(&node->left));
      if (!ConsumeToken(")")) return Error("expected ')' after exists/empty");
      if (empty_form) {
        // empty(p) ≡ not(exists(p)).
        auto wrapper = std::make_unique<BoolExpr>();
        wrapper->kind = BoolExpr::Kind::kNot;
        wrapper->children.push_back(std::move(node));
        *out = std::move(wrapper);
      } else {
        *out = std::move(node);
      }
      return Status::OK();
    }
    if (PeekKeyword("deep-equal")) {
      ConsumeKeyword("deep-equal");
      if (!ConsumeToken("(")) return Error("expected '(' after 'deep-equal'");
      auto node = std::make_unique<BoolExpr>();
      node->kind = BoolExpr::Kind::kCompare;
      node->op = WhereOp::kDeepEqual;
      BT_RETURN_NOT_OK(ParseOperand(&node->left));
      if (!ConsumeToken(",")) return Error("expected ',' in deep-equal");
      BT_RETURN_NOT_OK(ParseOperand(&node->right));
      if (!ConsumeToken(")")) return Error("expected ')' in deep-equal");
      *out = std::move(node);
      return Status::OK();
    }
    if (ConsumeToken("(")) {
      BT_RETURN_NOT_OK(ParseBool(out));
      if (!ConsumeToken(")")) return Error("expected ')'");
      return Status::OK();
    }
    auto node = std::make_unique<BoolExpr>();
    node->kind = BoolExpr::Kind::kCompare;
    BT_RETURN_NOT_OK(ParseOperand(&node->left));
    SkipSpace();
    if (ConsumeToken("<<")) {
      node->op = WhereOp::kDocBefore;
    } else if (ConsumeToken(">>")) {
      node->op = WhereOp::kDocAfter;
    } else if (ConsumeToken("!=")) {
      node->op = WhereOp::kNeq;
    } else if (Peek() == '=') {
      ++pos_;
      node->op = WhereOp::kEq;
    } else if (PeekKeyword("isnot")) {
      // Convenience surface form for the paper's "isnot" join: not(a is b).
      ConsumeKeyword("isnot");
      node->op = WhereOp::kIs;
      BT_RETURN_NOT_OK(ParseOperand(&node->right));
      auto wrapper = std::make_unique<BoolExpr>();
      wrapper->kind = BoolExpr::Kind::kNot;
      wrapper->children.push_back(std::move(node));
      *out = std::move(wrapper);
      return Status::OK();
    } else if (PeekKeyword("is")) {
      ConsumeKeyword("is");
      node->op = WhereOp::kIs;
    } else {
      // Bare existence test: "where $v/path" — model as path != empty via
      // kEq against a sentinel? Keep it explicit: unsupported.
      return Error("expected a comparison operator in where-clause");
    }
    BT_RETURN_NOT_OK(ParseOperand(&node->right));
    *out = std::move(node);
    return Status::OK();
  }

  Status ParseOperand(Operand* out) {
    SkipSpace();
    if (PeekKeyword("count")) {
      ConsumeKeyword("count");
      if (!ConsumeToken("(")) return Error("expected '(' after count");
      out->kind = Operand::Kind::kCount;
      SkipSpace();
      BT_RETURN_NOT_OK(ParseEmbeddedPath(&out->path));
      if (!ConsumeToken(")")) return Error("expected ')' after count(...)");
      return Status::OK();
    }
    if (Peek() == '"' || Peek() == '\'') {
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated string literal");
      out->kind = Operand::Kind::kLiteral;
      out->literal = std::string(input_.substr(start, pos_ - start));
      ++pos_;
      return Status::OK();
    }
    if (std::isdigit(static_cast<unsigned char>(Peek())) || Peek() == '-') {
      size_t start = pos_;
      if (Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek())) ||
             Peek() == '.') {
        ++pos_;
      }
      out->kind = Operand::Kind::kLiteral;
      out->literal = std::string(input_.substr(start, pos_ - start));
      return Status::OK();
    }
    out->kind = Operand::Kind::kPath;
    return ParseEmbeddedPath(&out->path);
  }

  Status ParseConstructor(Constructor* out) {
    BT_RETURN_NOT_OK(EnterNesting());
    Status st = ParseConstructorNoGuard(out);
    LeaveNesting();
    return st;
  }

  Status ParseConstructorNoGuard(Constructor* out) {
    // Cursor at '<'.
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && IsWordChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected element name in constructor");
    out->name = std::string(input_.substr(start, pos_ - start));
    // Attributes (literal values only).
    while (true) {
      SkipSpace();
      if (Peek() == '>' || Peek() == '/') break;
      size_t astart = pos_;
      while (!AtEnd() && IsWordChar(Peek())) ++pos_;
      if (pos_ == astart) return Error("expected attribute name");
      std::string aname(input_.substr(astart, pos_ - astart));
      if (!ConsumeToken("=")) return Error("expected '=' in attribute");
      SkipSpace();
      char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      ++pos_;
      size_t vstart = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      out->attributes.emplace_back(
          aname, std::string(input_.substr(vstart, pos_ - vstart)));
      ++pos_;
    }
    if (ConsumeToken("/>")) return Status::OK();
    if (!ConsumeToken(">")) return Error("expected '>'");
    // Content.
    while (true) {
      if (AtEnd()) return Error("unterminated constructor <" + out->name + ">");
      if (Peek() == '<' && PeekAt(1) == '/') {
        pos_ += 2;
        size_t nstart = pos_;
        while (!AtEnd() && IsWordChar(Peek())) ++pos_;
        std::string_view closing = input_.substr(nstart, pos_ - nstart);
        if (closing != out->name) {
          return Error("mismatched </" + std::string(closing) + ">");
        }
        SkipSpace();
        if (!ConsumeToken(">")) return Error("expected '>' in end tag");
        return Status::OK();
      }
      if (Peek() == '<') {
        ConstructorItem item;
        item.kind = ConstructorItem::Kind::kElement;
        item.expr = std::make_unique<Expr>();
        item.expr->kind = Expr::Kind::kConstructor;
        item.expr->ctor = std::make_unique<Constructor>();
        BT_RETURN_NOT_OK(ParseConstructor(item.expr->ctor.get()));
        out->items.push_back(std::move(item));
        continue;
      }
      if (Peek() == '{') {
        ++pos_;
        ConstructorItem item;
        item.kind = ConstructorItem::Kind::kExpr;
        BT_RETURN_NOT_OK(ParseExpr(&item.expr));
        SkipSpace();
        if (!ConsumeToken("}")) return Error("expected '}'");
        out->items.push_back(std::move(item));
        continue;
      }
      // Literal text run.
      size_t tstart = pos_;
      while (!AtEnd() && Peek() != '<' && Peek() != '{') ++pos_;
      std::string_view raw = input_.substr(tstart, pos_ - tstart);
      if (!IsAllWhitespace(raw)) {
        ConstructorItem item;
        item.kind = ConstructorItem::Kind::kText;
        item.text = std::string(Trim(raw));
        out->items.push_back(std::move(item));
      }
    }
  }

  std::string_view input_;
  util::ParseLimits limits_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  /// Variables in scope, outermost first; a variable's index is its slot.
  std::vector<std::string> scope_;
};

}  // namespace

Result<std::unique_ptr<Expr>> ParseQuery(std::string_view input,
                                         const util::ParseLimits& limits) {
  util::TraceSpan span("parse", "flwor::ParseQuery");
  if (input.size() > limits.max_input_bytes) {
    return Status::ResourceExhausted(
        "query of " + std::to_string(input.size()) +
        " bytes exceeds limit of " + std::to_string(limits.max_input_bytes));
  }
  QueryParser parser(input, limits);
  std::unique_ptr<Expr> out;
  BT_RETURN_NOT_OK(parser.ParseWholeQuery(&out));
  return out;
}

}  // namespace flwor
}  // namespace blossomtree
