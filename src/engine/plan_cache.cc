#include "engine/plan_cache.h"

namespace blossomtree {
namespace engine {

namespace {

/// Budget split: level 1 (parsed ASTs, small) gets a quarter; the compiled
/// plans get the rest. Separate ledgers keep a flood of distinct query
/// texts from evicting compiled trees.
util::CacheOptions Fraction(const util::CacheOptions& options,
                            uint64_t num, uint64_t den) {
  util::CacheOptions out = options;
  out.max_bytes = options.max_bytes * num / den;
  if (out.max_bytes == 0) out.max_bytes = 1;
  return out;
}

/// Injective string field: "<len>:<bytes>".
void AppendString(const std::string& s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

/// Canonical path rendering with length-prefixed literals. Unlike
/// PathExpr::ToString (a display form), this stays injective even when a
/// literal contains quotes or bracket characters.
void AppendPath(const xpath::PathExpr& path, std::string* out) {
  out->push_back('p');
  out->push_back('{');
  switch (path.start) {
    case xpath::PathExpr::StartKind::kRoot:
      out->push_back('/');
      AppendString(path.document, out);
      break;
    case xpath::PathExpr::StartKind::kVariable:
      out->push_back('$');
      AppendString(path.variable, out);
      out->append(std::to_string(path.var_slot));
      break;
    case xpath::PathExpr::StartKind::kContext:
      out->push_back('.');
      break;
  }
  for (const xpath::Step& step : path.steps) {
    out->push_back(';');
    out->append(std::to_string(static_cast<int>(step.axis)));
    AppendString(step.name, out);
    for (const xpath::Predicate& p : step.predicates) {
      out->push_back('[');
      switch (p.kind) {
        case xpath::Predicate::Kind::kExists:
          out->push_back('e');
          if (p.path != nullptr) AppendPath(*p.path, out);
          break;
        case xpath::Predicate::Kind::kValueCompare:
          out->append(xpath::CompareOpToString(p.op));
          if (p.path != nullptr) AppendPath(*p.path, out);
          AppendString(p.literal, out);
          break;
        case xpath::Predicate::Kind::kPosition:
          out->push_back('#');
          out->append(std::to_string(p.position));
          break;
      }
      out->push_back(']');
    }
  }
  out->push_back('}');
}

void AppendOperand(const flwor::Operand& operand, std::string* out) {
  switch (operand.kind) {
    case flwor::Operand::Kind::kPath:
      AppendPath(operand.path, out);
      break;
    case flwor::Operand::Kind::kLiteral:
      out->push_back('l');
      AppendString(operand.literal, out);
      break;
    case flwor::Operand::Kind::kCount:
      out->append("cnt");
      AppendPath(operand.path, out);
      break;
  }
}

void AppendBool(const flwor::BoolExpr& b, std::string* out) {
  switch (b.kind) {
    case flwor::BoolExpr::Kind::kAnd:
    case flwor::BoolExpr::Kind::kOr:
    case flwor::BoolExpr::Kind::kNot:
      out->append(b.kind == flwor::BoolExpr::Kind::kAnd
                      ? "and("
                      : b.kind == flwor::BoolExpr::Kind::kOr ? "or("
                                                             : "not(");
      for (const auto& child : b.children) AppendBool(*child, out);
      out->push_back(')');
      break;
    case flwor::BoolExpr::Kind::kCompare:
      out->append(flwor::WhereOpToString(b.op));
      out->push_back('(');
      AppendOperand(b.left, out);
      out->push_back(',');
      AppendOperand(b.right, out);
      out->push_back(')');
      break;
  }
}

void AppendExpr(const flwor::Expr& expr, std::string* out);

void AppendFlwor(const flwor::Flwor& flwor, std::string* out) {
  out->append("flwor{");
  for (const flwor::Binding& b : flwor.bindings) {
    out->append(b.kind == flwor::Binding::Kind::kFor ? "for$" : "let$");
    AppendString(b.var, out);
    out->append(std::to_string(b.var_slot));
    AppendPath(b.path, out);
    out->push_back(';');
  }
  if (flwor.where != nullptr) {
    out->append("where{");
    AppendBool(*flwor.where, out);
    out->push_back('}');
  }
  if (flwor.order_by.has_value()) {
    out->append(flwor.order_descending ? "order-d{" : "order-a{");
    AppendPath(*flwor.order_by, out);
    out->push_back('}');
  }
  out->append("return{");
  if (flwor.ret != nullptr) AppendExpr(*flwor.ret, out);
  out->push_back('}');
  out->push_back('}');
}

void AppendExpr(const flwor::Expr& expr, std::string* out) {
  switch (expr.kind) {
    case flwor::Expr::Kind::kPath:
      AppendPath(expr.path, out);
      break;
    case flwor::Expr::Kind::kFlwor:
      AppendFlwor(*expr.flwor, out);
      break;
    case flwor::Expr::Kind::kConstructor: {
      out->append("ctor{");
      AppendString(expr.ctor->name, out);
      for (const auto& [name, value] : expr.ctor->attributes) {
        out->push_back('@');
        AppendString(name, out);
        AppendString(value, out);
      }
      for (const flwor::ConstructorItem& item : expr.ctor->items) {
        if (item.kind == flwor::ConstructorItem::Kind::kText) {
          out->push_back('t');
          AppendString(item.text, out);
        } else {
          out->push_back('e');
          out->push_back('(');
          if (item.expr != nullptr) AppendExpr(*item.expr, out);
          out->push_back(')');
        }
      }
      out->push_back('}');
      break;
    }
  }
}

/// Rough per-entry footprints. The cache budget is approximate by design
/// (DESIGN.md §9): these scale with the real allocation sizes without
/// walking every vector.
uint64_t ParsedBytes(const std::string& text) {
  return text.size() * 3 + 128;
}

uint64_t TreeBytes(const pattern::BlossomTree& tree,
                   const pattern::Decomposition& decomposition) {
  return tree.NumVertices() * 160 + tree.NumSlots() * 96 +
         decomposition.noks.size() * 64 +
         decomposition.nok_of_vertex.size() * 4 + 256;
}

}  // namespace

PlanCache::PlanCache(const util::CacheOptions& options)
    : parsed_(Fraction(options, 1, 4)), compiled_(Fraction(options, 3, 4)) {}

std::shared_ptr<const flwor::Expr> PlanCache::GetParsed(
    const std::string& text) {
  return parsed_.Get(text);
}

void PlanCache::PutParsed(const std::string& text,
                          std::shared_ptr<const flwor::Expr> expr) {
  parsed_.Put(text, std::move(expr), ParsedBytes(text));
}

std::shared_ptr<const CompiledFlwor> PlanCache::GetCompiled(
    const std::string& key) {
  return compiled_.Get(key);
}

void PlanCache::PutCompiled(const std::string& key,
                            std::shared_ptr<const CompiledFlwor> compiled) {
  uint64_t bytes = TreeBytes(compiled->tree, compiled->decomposition) +
                   compiled->bindings.size() * 48 +
                   compiled->residual.size() * 4 + key.size();
  compiled_.Put(key, std::move(compiled), bytes);
}

util::CacheStats PlanCache::Stats() const {
  util::CacheStats total;
  for (const util::CacheStats& s : {parsed_.Stats(), compiled_.Stats()}) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.insertions += s.insertions;
    total.entries += s.entries;
    total.bytes += s.bytes;
  }
  return total;
}

std::string CanonicalFlworKey(const flwor::Flwor& flwor) {
  std::string out;
  out.reserve(256);
  AppendFlwor(flwor, &out);
  return out;
}

std::string CanonicalPathKey(const xpath::PathExpr& path) {
  std::string out;
  out.reserve(128);
  out.append("path:");
  AppendPath(path, &out);
  return out;
}

}  // namespace engine
}  // namespace blossomtree
