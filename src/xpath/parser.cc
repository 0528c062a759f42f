#include "xpath/parser.h"

#include <cctype>

#include "util/strings.h"

namespace blossomtree {
namespace xpath {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

/// Recursive-descent parser over a flat character buffer.
class PathParser {
 public:
  PathParser(std::string_view input, size_t pos, size_t max_depth)
      : input_(input), pos_(pos), max_depth_(max_depth) {}

  size_t pos() const { return pos_; }

  Status Error(const std::string& msg) const {
    return Status::ParseError("XPath parse error at offset " +
                              std::to_string(pos_) + ": " + msg);
  }

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

  Status ParseName(std::string* out) {
    if (!IsNameStart(Peek()) && Peek() != '*') {
      return Error("expected a name");
    }
    if (Peek() == '*') {
      ++pos_;
      out->assign(1, '*');
      return Status::OK();
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    // A trailing '.' is never part of a name in our grammar (it would begin
    // a context step); names like "following-sibling" keep internal dashes.
    *out = std::string(input_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status ParseStringLiteral(std::string* out) {
    char quote = Peek();
    if (quote != '"' && quote != '\'') return Error("expected string literal");
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Error("unterminated string literal");
    *out = std::string(input_.substr(start, pos_ - start));
    ++pos_;
    return Status::OK();
  }

  /// Parses a full path expression: start spec + steps.
  Status ParsePathExpr(PathExpr* out, bool inside_predicate) {
    SkipSpace();
    if (Peek() == '$') {
      // A predicate sees only its context node, never a variable binding.
      if (inside_predicate) return Error("variable inside a predicate");
      ++pos_;
      out->start = PathExpr::StartKind::kVariable;
      BT_RETURN_NOT_OK(ParseName(&out->variable));
      if (out->variable == "*") return Error("'*' is not a variable name");
      if (AtEnd() || (Peek() != '/' )) {
        return Status::OK();  // Bare variable reference: "$v".
      }
      return ParseSteps(out);
    }
    if (input_.substr(pos_).starts_with("doc(")) {
      pos_ += 4;
      SkipSpace();
      out->start = PathExpr::StartKind::kRoot;
      BT_RETURN_NOT_OK(ParseStringLiteral(&out->document));
      SkipSpace();
      if (Peek() != ')') return Error("expected ')' after doc(...)");
      ++pos_;
      if (Peek() != '/') return Error("expected '/' or '//' after doc(...)");
      return ParseSteps(out);
    }
    if (Peek() == '/') {
      // Inside a predicate, "[//c]" and "[/c]" are relative to the context
      // node (the paper's Appendix A queries use "[//c]" as ".//c").
      out->start = inside_predicate ? PathExpr::StartKind::kContext
                                    : PathExpr::StartKind::kRoot;
      return ParseSteps(out);
    }
    // Context-relative (only meaningful inside predicates / FLWOR bodies).
    out->start = PathExpr::StartKind::kContext;
    if (Peek() == '.') {
      ++pos_;
      if (Peek() == '/') {
        // "./a" or ".//a" — the leading self step is a no-op; "//" keeps
        // descendant semantics via ParseSteps.
        return ParseSteps(out);
      }
      Step self;
      self.axis = Axis::kSelf;
      out->steps.push_back(std::move(self));
      return Status::OK();
    }
    if (!IsNameStart(Peek()) && Peek() != '*' && Peek() != '@') {
      return Error("expected a path expression");
    }
    BT_RETURN_NOT_OK(ParseOneStep(out, Axis::kChild));
    return ParseStepsContinuation(out, inside_predicate);
  }

  /// Parses "/step" and "//step" sequences (cursor is at '/').
  Status ParseSteps(PathExpr* out) {
    while (Peek() == '/') {
      Axis axis = Axis::kChild;
      ++pos_;
      if (Peek() == '/') {
        axis = Axis::kDescendant;
        ++pos_;
      }
      BT_RETURN_NOT_OK(ParseOneStep(out, axis));
    }
    return Status::OK();
  }

  Status ParseStepsContinuation(PathExpr* out, bool /*inside_predicate*/) {
    return ParseSteps(out);
  }

  /// Parses one step (name test, optional axis prefix, predicates).
  Status ParseOneStep(PathExpr* out, Axis axis) {
    Step step;
    step.axis = axis;
    if (Peek() == '@') {
      ++pos_;
      step.axis = Axis::kAttribute;
      BT_RETURN_NOT_OK(ParseName(&step.name));
      out->steps.push_back(std::move(step));
      return Status::OK();
    }
    if (Peek() == '.' && PeekAt(1) == '.') {
      // ".." is parent::*.
      pos_ += 2;
      step.axis = Axis::kParent;
      step.name = "*";
      out->steps.push_back(std::move(step));
      return Status::OK();
    }
    if (Peek() == '[') {
      // "//[c/d]" appears in the paper's Q1 for d1 — a wildcard step with a
      // predicate. Treat the missing name test as '*'.
      step.name = "*";
    } else {
      std::string name;
      BT_RETURN_NOT_OK(ParseName(&name));
      if (Peek() == ':' && PeekAt(1) == ':') {
        if (axis == Axis::kDescendant) {
          return Error("'//' cannot combine with a named axis");
        }
        pos_ += 2;
        if (name == "following-sibling") {
          step.axis = Axis::kFollowingSibling;
        } else if (name == "parent") {
          step.axis = Axis::kParent;
        } else if (name == "ancestor") {
          step.axis = Axis::kAncestor;
        } else if (name == "following") {
          step.axis = Axis::kFollowing;
        } else if (name == "preceding") {
          step.axis = Axis::kPreceding;
        } else if (name == "child") {
          step.axis = Axis::kChild;
        } else if (name == "self") {
          step.axis = Axis::kSelf;
        } else {
          return Error("unsupported axis '" + name + "::'");
        }
        BT_RETURN_NOT_OK(ParseName(&step.name));
      } else {
        step.name = std::move(name);
      }
    }
    while (Peek() == '[') {
      Predicate pred;
      BT_RETURN_NOT_OK(ParsePredicate(&pred));
      step.predicates.push_back(std::move(pred));
    }
    out->steps.push_back(std::move(step));
    return Status::OK();
  }

  Status ParsePredicate(Predicate* out) {
    // The only recursion cycle in this parser runs through predicates
    // (ParsePredicate → ParsePathExpr → ParseOneStep → ParsePredicate), so
    // guarding the depth here bounds the whole parse: `a[a[a[…]]]` at
    // ~100k levels would otherwise overflow the stack.
    if (++depth_ > max_depth_) {
      return Error("predicate nesting depth exceeds limit of " +
                   std::to_string(max_depth_));
    }
    Status st = ParsePredicateNoGuard(out);
    --depth_;
    return st;
  }

  Status ParsePredicateNoGuard(Predicate* out) {
    ++pos_;  // '['
    SkipSpace();
    if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      size_t start = pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
      out->kind = Predicate::Kind::kPosition;
      out->position =
          ParseNonNegativeInt(input_.substr(start, pos_ - start));
      if (out->position <= 0) return Error("positions are 1-based");
      SkipSpace();
      if (Peek() != ']') return Error("expected ']'");
      ++pos_;
      return Status::OK();
    }
    auto path = std::make_unique<PathExpr>();
    BT_RETURN_NOT_OK(ParsePathExpr(path.get(), /*inside_predicate=*/true));
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      out->kind = Predicate::Kind::kExists;
      out->path = std::move(path);
      return Status::OK();
    }
    // Value comparison.
    CompareOp op;
    if (Peek() == '=') {
      op = CompareOp::kEq;
      ++pos_;
    } else if (Peek() == '!' && PeekAt(1) == '=') {
      op = CompareOp::kNeq;
      pos_ += 2;
    } else if (Peek() == '<') {
      ++pos_;
      if (Peek() == '=') {
        op = CompareOp::kLe;
        ++pos_;
      } else {
        op = CompareOp::kLt;
      }
    } else if (Peek() == '>') {
      ++pos_;
      if (Peek() == '=') {
        op = CompareOp::kGe;
        ++pos_;
      } else {
        op = CompareOp::kGt;
      }
    } else {
      return Error("expected ']' or comparison operator in predicate");
    }
    SkipSpace();
    std::string literal;
    if (Peek() == '"' || Peek() == '\'') {
      BT_RETURN_NOT_OK(ParseStringLiteral(&literal));
    } else {
      // Bare numeric literal.
      size_t start = pos_;
      if (Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek())) ||
             Peek() == '.') {
        ++pos_;
      }
      if (pos_ == start) return Error("expected literal in predicate");
      literal = std::string(input_.substr(start, pos_ - start));
    }
    SkipSpace();
    if (Peek() != ']') return Error("expected ']'");
    ++pos_;
    out->kind = Predicate::Kind::kValueCompare;
    out->path = std::move(path);
    out->op = op;
    out->literal = std::move(literal);
    return Status::OK();
  }

 private:
  std::string_view input_;
  size_t pos_;
  size_t max_depth_;
  size_t depth_ = 0;
};

}  // namespace

Result<PathExpr> ParsePath(std::string_view input, size_t max_depth) {
  size_t pos = 0;
  BT_ASSIGN_OR_RETURN(PathExpr path, ParsePathPrefix(input, &pos, max_depth));
  while (pos < input.size() &&
         std::isspace(static_cast<unsigned char>(input[pos]))) {
    ++pos;
  }
  if (pos != input.size()) {
    return Status::ParseError("XPath parse error: trailing input at offset " +
                              std::to_string(pos) + " in '" +
                              std::string(input) + "'");
  }
  return path;
}

Result<PathExpr> ParsePathPrefix(std::string_view input, size_t* pos,
                                 size_t max_depth) {
  PathParser parser(input, *pos, max_depth);
  PathExpr path;
  Status st = parser.ParsePathExpr(&path, /*inside_predicate=*/false);
  if (!st.ok()) return st;
  *pos = parser.pos();
  return path;
}

}  // namespace xpath
}  // namespace blossomtree
