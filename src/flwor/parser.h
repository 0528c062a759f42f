#ifndef BLOSSOMTREE_FLWOR_PARSER_H_
#define BLOSSOMTREE_FLWOR_PARSER_H_

#include <memory>
#include <string_view>

#include "util/resource_guard.h"
#include "util/status.h"
#include "flwor/ast.h"

namespace blossomtree {
namespace flwor {

/// \brief Parses a query expression: a FLWOR expression, a direct element
/// constructor wrapping one (as in the paper's Example 1), or a bare path.
///
/// Grammar (paper §3.1, plus constructors for the return clause):
///
///   Expr      ::= Flwor | Constructor | Path
///   Flwor     ::= ('for' Var 'in' Path (',' Var 'in' Path)*
///                 | 'let' Var ':=' Path)+
///                 ('where' Bool)? ('order' 'by' Path Dir?)? 'return' Expr
///   Bool      ::= And ('or' And)*
///   And       ::= Primary ('and' Primary)*
///   Primary   ::= 'not' '(' Bool ')' | 'deep-equal' '(' Op ',' Op ')'
///               | '(' Bool ')' | Op (('<<'|'>>'|'='|'!='|'is') Op)?
///   Op        ::= Path | StringLiteral | Number
///   Constructor ::= '<' Name Attr* '>' (Text | '{' Expr '}' | Constructor)*
///                   '</' Name '>'
///
/// Variables are resolved here, once: each for/let binding takes the next
/// tuple slot (the number of variables in scope, outer FLWORs included), and
/// every `$v` reference records the slot of the innermost binding of `v`
/// (PathExpr::var_slot). A reference no binding reaches fails with
/// kInvalidArgument.
///
/// `limits` bounds the recursion depth (expression / boolean / constructor
/// nesting) and the input size; exceeding either returns a ParseError /
/// ResourceExhausted instead of overflowing the stack.
Result<std::unique_ptr<Expr>> ParseQuery(std::string_view input,
                                         const util::ParseLimits& limits = {});

}  // namespace flwor
}  // namespace blossomtree

#endif  // BLOSSOMTREE_FLWOR_PARSER_H_
