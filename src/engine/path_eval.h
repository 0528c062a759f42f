#ifndef BLOSSOMTREE_ENGINE_PATH_EVAL_H_
#define BLOSSOMTREE_ENGINE_PATH_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "xml/document.h"
#include "xpath/ast.h"

namespace blossomtree {
namespace engine {

/// \brief A variable tuple, indexed by the slots flwor::ParseQuery resolved
/// (Binding::var_slot, PathExpr::var_slot): `env[s]` is the node sequence
/// bound to slot `s` (singleton for for-bound variables, any length for
/// let-bound ones). This is the paper's `Env` abstract data type (§3.2,
/// Figure 2).
using Env = std::vector<std::vector<xml::NodeId>>;

/// \brief The attribute name `path`'s last step selects, or empty if that
/// step is not an attribute step. Attribute steps surface their owner
/// element, so a comparison on such a path compares this attribute's value
/// (exec::OperandValue), as the NoK matcher does.
std::string_view FinalAttribute(const xpath::PathExpr& path);

/// \brief Navigational XPath evaluation over the DOM: every step traverses
/// the tree directly, with no indexes and no sharing — the per-step
/// semantics a navigational engine (the paper's X-Hive comparator) uses.
///
/// Also serves as the engine's utility for where-clause operands and
/// return-clause paths, which are evaluated from variable bindings.
class PathEvaluator {
 public:
  explicit PathEvaluator(const xml::Document* doc) : doc_(doc) {}

  /// \brief Evaluates an absolute path (start kRoot). Result is a
  /// document-ordered set of nodes.
  Result<std::vector<xml::NodeId>> Evaluate(const xpath::PathExpr& path);

  /// \brief Evaluates a path whose start may be a variable (read from
  /// `env[path.var_slot]`; kInvalidArgument if that slot is not in `env`,
  /// e.g. for a path parsed without a FLWOR) or the context node(s).
  Result<std::vector<xml::NodeId>> EvaluateWith(
      const xpath::PathExpr& path, const Env& env,
      const std::vector<xml::NodeId>& context);

  /// \brief Evaluates path steps from a set of context nodes.
  Result<std::vector<xml::NodeId>> EvaluateSteps(
      const std::vector<xpath::Step>& steps, size_t first,
      const std::vector<xml::NodeId>& context);

  /// \brief Tree nodes touched (the navigational work metric).
  uint64_t NodesVisited() const { return nodes_visited_; }

  const xml::Document* doc() const { return doc_; }

 private:
  Result<std::vector<xml::NodeId>> ApplyStep(
      const xpath::Step& step, const std::vector<xml::NodeId>& context);
  Result<bool> EvalPredicate(const xpath::Predicate& pred, xml::NodeId node);
  void CollectDescendants(xml::NodeId n, const std::string& tag,
                          std::vector<xml::NodeId>* out);

  const xml::Document* doc_;
  uint64_t nodes_visited_ = 0;
};

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_PATH_EVAL_H_
