#ifndef BLOSSOMTREE_ENGINE_PLAN_CACHE_H_
#define BLOSSOMTREE_ENGINE_PLAN_CACHE_H_

#include <memory>
#include <string>

#include "engine/binder.h"
#include "flwor/ast.h"
#include "pattern/blossom_tree.h"
#include "pattern/decompose.h"
#include "util/cache.h"
#include "xpath/ast.h"

namespace blossomtree {
namespace engine {

/// \brief A compiled query short of physical operators: the finalized
/// BlossomTree, its NoK decomposition (Algorithm 1), the per-slot binding
/// metadata FlworTuples expands (empty for an absolute path query, whose
/// result pattern::BuildFromPath binds to the "result" variable), and the
/// residual where-clause. All are pure functions of the AST, so they are
/// shared read-only across repeat executions (physical operators are
/// rebuilt per query — they are stateful iterators).
struct CompiledFlwor {
  pattern::BlossomTree tree;
  pattern::Decomposition decomposition;
  std::vector<SlotBinding> bindings;
  /// Positions, in flwor::Conjuncts order, of the where conjuncts the tree
  /// does not enforce (pattern::BuildFromFlwor). Positions rather than
  /// pointers: every text that shares this entry has its own AST, and
  /// equal canonical keys give equal conjunct lists.
  std::vector<uint32_t> residual;
};

/// \brief The engine's plan cache (DESIGN.md §11): two levels over
/// util::ShardedLruCache.
///
/// Level 1 maps verbatim query text to the parsed flwor::Expr (skips the
/// parser). Level 2 maps a *canonical fingerprint* of the FLWOR or path —
/// whitespace- and formatting-insensitive, injective over every field the
/// compilation consumes — to the compiled artifacts (skips BuildFromFlwor /
/// BuildFromPath, Algorithm 1, and the binder). Each level has its own
/// byte budget carved from CacheOptions::max_bytes, so a flood of distinct
/// query texts cannot evict every compiled tree.
class PlanCache {
 public:
  explicit PlanCache(const util::CacheOptions& options);

  // -- Level 1: query text -> parsed AST -------------------------------------
  std::shared_ptr<const flwor::Expr> GetParsed(const std::string& text);
  void PutParsed(const std::string& text,
                 std::shared_ptr<const flwor::Expr> expr);

  // -- Level 2: canonical fingerprint -> compiled artifacts ------------------
  // FLWOR ("flwor{") and path ("path:") keys are disjoint.
  std::shared_ptr<const CompiledFlwor> GetCompiled(const std::string& key);
  void PutCompiled(const std::string& key,
                   std::shared_ptr<const CompiledFlwor> compiled);

  /// \brief Merged counters across the two levels.
  util::CacheStats Stats() const;

 private:
  util::ShardedLruCache<std::string, flwor::Expr> parsed_;
  util::ShardedLruCache<std::string, CompiledFlwor> compiled_;
};

/// \brief Canonical fingerprint of a FLWOR: every binding, the where tree,
/// ordering, and the return expression, with literals length-prefixed so
/// the encoding is injective. Two query texts with equal keys compile to
/// identical BlossomTrees, decompositions, and slot bindings.
std::string CanonicalFlworKey(const flwor::Flwor& flwor);

/// \brief Canonical fingerprint of an absolute path query.
std::string CanonicalPathKey(const xpath::PathExpr& path);

}  // namespace engine
}  // namespace blossomtree

#endif  // BLOSSOMTREE_ENGINE_PLAN_CACHE_H_
