#include "exec/nok_scan.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "exec/value_ops.h"
#include "nestedlist/ops.h"

namespace blossomtree {
namespace exec {

using nestedlist::Entry;
using nestedlist::Group;
using pattern::EdgeMode;
using pattern::SlotId;
using pattern::VertexId;

namespace {

void AppendTopSlots(const pattern::BlossomTree& tree,
                    const pattern::NokTree& nok, VertexId v,
                    std::vector<SlotId>* out) {
  if (tree.vertex(v).returning) {
    out->push_back(tree.SlotOfVertex(v));
    return;
  }
  for (VertexId c : tree.vertex(v).children) {
    if (xpath::IsLocalAxis(tree.vertex(c).axis) && nok.Contains(c)) {
      AppendTopSlots(tree, nok, c, out);
    }
  }
}

}  // namespace

std::vector<SlotId> NokTopSlots(const pattern::BlossomTree& tree,
                                const pattern::NokTree& nok) {
  std::vector<SlotId> out;
  AppendTopSlots(tree, nok, nok.root, &out);
  return out;
}

NokMatcher::NokMatcher(const xml::Document* doc,
                       const pattern::BlossomTree* tree,
                       const pattern::NokTree* nok)
    : doc_(doc), tree_(tree), nok_(nok) {
  // Build the local vertex table in the NoK's DFS vertex order; the root is
  // locals_[0].
  std::vector<uint32_t> local_of(tree->NumVertices(),
                                 static_cast<uint32_t>(-1));
  locals_.reserve(nok->vertices.size());
  for (VertexId v : nok->vertices) {
    local_of[v] = static_cast<uint32_t>(locals_.size());
    LocalVertex lv;
    lv.vertex = v;
    const pattern::Vertex& vx = tree->vertex(v);
    lv.position = vx.position;
    lv.mode = vx.mode;
    lv.returning = vx.returning;
    lv.axis = vx.axis;
    // Resolve the tag test once: the per-child test is then an id compare.
    if (vx.IsVirtualRoot()) {
      lv.test = TagTest::kVirtualRoot;
    } else if (vx.MatchesAnyTag()) {
      lv.test = TagTest::kAny;
    } else if (!vx.tag.empty() && vx.tag[0] == '@') {
      lv.test = TagTest::kAttribute;
      lv.attribute = vx.tag.substr(1);
    } else {
      lv.tag = doc->tags().Lookup(vx.tag);
    }
    if (vx.value) lv.value.emplace(vx.value->op, vx.value->literal);
    locals_.push_back(std::move(lv));
  }
  for (const pattern::Connection& c : nok->probes) {
    const pattern::Vertex& to = tree->vertex(c.to);
    Probe& p = locals_[local_of[c.from]].probes.emplace_back();
    xml::TagId t = doc->tags().Lookup(to.tag);
    if (t != xml::kNullTag) p.stream = doc->TagIndex(t);
    if (to.value) p.value.emplace(to.value->op, to.value->literal);
  }
  for (LocalVertex& lv : locals_) {
    for (VertexId c : tree->vertex(lv.vertex).children) {
      if (xpath::IsLocalAxis(tree->vertex(c).axis) &&
          local_of[c] != static_cast<uint32_t>(-1)) {
        lv.local_children.push_back(local_of[c]);
      }
    }
  }
  // next_slots: bottom-up over the NoK (children have larger local index
  // only if DFS order guarantees it — Algorithm 1 pushes children after
  // parents, so iterate in reverse).
  for (size_t i = locals_.size(); i-- > 0;) {
    LocalVertex& lv = locals_[i];
    if (lv.returning) {
      lv.next_slots.push_back(tree->SlotOfVertex(lv.vertex));
    } else {
      for (uint32_t c : lv.local_children) {
        lv.next_slots.insert(lv.next_slots.end(),
                             locals_[c].next_slots.begin(),
                             locals_[c].next_slots.end());
      }
    }
    if (lv.returning) {
      // Map each child-contributed slot to its index in the global child
      // layout of this vertex's slot.
      SlotId my_slot = tree->SlotOfVertex(lv.vertex);
      lv.num_child_slots =
          static_cast<uint32_t>(tree->slot(my_slot).children.size());
      for (uint32_t c : lv.local_children) {
        for (SlotId s : locals_[c].next_slots) {
          lv.child_slot_index.push_back(
              nestedlist::ChildIndex(*tree, my_slot, s));
        }
      }
    }
    uint32_t flat = 0;
    for (uint32_t c : lv.local_children) {
      lv.acc_begin.push_back(flat);
      flat += static_cast<uint32_t>(locals_[c].next_slots.size());
    }
    lv.acc.resize(flat);
    lv.matched.resize(lv.local_children.size());
    lv.tag_count.resize(lv.local_children.size());
  }
  top_slots_ = locals_[0].next_slots;
  top_acc_.resize(top_slots_.size());
}

bool NokMatcher::TagOk(const LocalVertex& lv, xml::NodeId x) const {
  if (lv.test == TagTest::kVirtualRoot) return x == kVirtualRootNode;
  if (x == kVirtualRootNode) return false;
  if (lv.test == TagTest::kAny) return doc_->IsElement(x);
  // Text nodes carry kNullTag, so an absent tag (kNullTag) must not match.
  return lv.tag != xml::kNullTag && doc_->Tag(x) == lv.tag;
}

bool NokMatcher::ValueOk(const LocalVertex& lv, xml::NodeId x) {
  if (!lv.value || x == kVirtualRootNode) return true;
  ++value_tests_;
  return lv.value->MatchesNode(*doc_, x);
}

bool NokMatcher::ProbeOk(Probe* p, xml::NodeId x) {
  ++match_work_;
  const xml::NodeId* s = p->stream.data();
  const size_t n = p->stream.size();
  if (x < p->last) {
    // x went back (a nested match, a rewound scan): search behind.
    p->next = std::upper_bound(s, s + p->next, x) - s;
  } else {
    // Gallop forward: the next candidate is usually a few entries on.
    const size_t left = n - p->next;
    size_t bound = 1;
    while (bound <= left && s[p->next + bound - 1] <= x) bound *= 2;
    p->next = std::upper_bound(s + p->next + bound / 2,
                               s + p->next + std::min(bound, left), x) -
              s;
  }
  p->last = x;
  const xml::NodeId end = doc_->SubtreeEnd(x);
  if (!p->value) return p->next < n && s[p->next] <= end;
  for (size_t i = p->next; i < n && s[i] <= end; ++i) {
    ++value_tests_;
    if (p->value->MatchesNode(*doc_, s[i])) return true;
  }
  return false;
}

bool NokMatcher::RootTest(xml::NodeId x) {
  return TagOk(locals_[0], x) && ValueOk(locals_[0], x);
}

bool NokMatcher::MatchAt(xml::NodeId x, nestedlist::Arena* out) {
  // Positional predicate on the NoK root (e.g. //book[2] after the cut):
  // positions count among same-parent siblings matching the tag test.
  if (locals_[0].position > 0 && x != kVirtualRootNode) {
    if (xml::SiblingRank(*doc_, x, tree_->vertex(locals_[0].vertex).tag) !=
        static_cast<uint32_t>(locals_[0].position)) {
      return false;
    }
  }
  arena_ = out;
  const nestedlist::Arena::Mark start = out->GetMark();
  for (std::vector<Entry>& acc : top_acc_) acc.clear();
  if (!MatchVertex(0, x, top_acc_.data())) return false;
  group_scratch_.clear();
  for (const std::vector<Entry>& acc : top_acc_) {
    group_scratch_.push_back(out->PlaceGroup(acc));
  }
  out->PlaceRow(group_scratch_, start);
  return true;
}

Entry NokMatcher::CloseEntry(const LocalVertex& lv, xml::NodeId x) {
  // One group per child slot, in the global child-slot layout; each is the
  // concatenation of the accumulators mapped to it (slots the NoK does not
  // reach, e.g. across a cut //-edge, stay empty for a join to fill).
  group_scratch_.assign(lv.num_child_slots, Group{});
  for (uint32_t c = 0; c < lv.num_child_slots; ++c) {
    const uint32_t begin = static_cast<uint32_t>(arena_->entries.size());
    for (size_t f = 0; f < lv.acc.size(); ++f) {
      if (lv.child_slot_index[f] == c) arena_->PlaceGroup(lv.acc[f]);
    }
    group_scratch_[c] = {begin, static_cast<uint32_t>(arena_->entries.size())};
  }
  return arena_->PlaceEntry(x, group_scratch_);
}

bool NokMatcher::MatchVertex(uint32_t local_index, xml::NodeId x,
                             std::vector<Entry>* dst) {
  ++match_work_;
  // Guard sample (DESIGN.md §9): a full Check (clock + token) every ~1k
  // work units keeps deadline detection prompt even when one match recurses
  // for a long time, at negligible cost. A tripped guard aborts the match;
  // the driver stops the scan and the engine reports guard->status().
  if (guard_ != nullptr && (match_work_ & 0x3FF) == 0 && !guard_->Check()) {
    return false;
  }
  LocalVertex& lv = locals_[local_index];
  // The root's tests are MatchAt's precondition and a child's tag test
  // passed in its parent's try_child: only a child's value test is left.
  if (local_index != 0 && !ValueOk(lv, x)) return false;
  for (Probe& p : lv.probes) {
    if (!ProbeOk(&p, x)) return false;
  }
  if (lv.local_children.empty()) {
    // A leaf accumulates nothing. A returning one still places an empty
    // group per child slot: slots past a cut //-edge, which a join fills.
    if (lv.returning) {
      dst[0].push_back(lv.num_child_slots == 0 ? arena_->PlaceEntry(x, {})
                                               : CloseEntry(lv, x));
    }
    return true;
  }

  // Accumulate matches per local child (each child contributes a fixed
  // number of slot groups). Attribute children are constraints evaluated
  // directly on x. Children place their own subtrees in the arena; what
  // they hand up waits here until this vertex closes.
  const nestedlist::Arena::Mark undo = arena_->GetMark();
  const size_t n_children = lv.local_children.size();
  for (std::vector<Entry>& acc : lv.acc) acc.clear();
  std::fill(lv.matched.begin(), lv.matched.end(), 0);
  std::fill(lv.tag_count.begin(), lv.tag_count.end(), 0);

  auto try_child = [&](size_t k, xml::NodeId u) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    ++match_work_;
    if (!TagOk(s, u)) return;
    if (s.position > 0) {
      ++lv.tag_count[k];
      if (lv.tag_count[k] != s.position) return;
    }
    if (!MatchVertex(lv.local_children[k], u,
                     lv.acc.data() + lv.acc_begin[k])) {
      return;
    }
    lv.matched[k] = 1;
  };

  for (size_t k = 0; k < n_children; ++k) {
    const LocalVertex& s = locals_[lv.local_children[k]];
    if (s.test == TagTest::kAttribute) {
      // Attribute constraint: check presence (and value) on x itself.
      std::string_view value;
      if (x != kVirtualRootNode &&
          doc_->AttributeValue(x, s.attribute, &value)) {
        if (s.value) ++value_tests_;
        if (!s.value || s.value->Matches(value)) {
          lv.matched[k] = 1;
          if (s.returning) {
            // Attribute matches surface their owner element.
            lv.acc[lv.acc_begin[k]].push_back(CloseEntry(s, x));
          }
        }
      }
      continue;
    }
    if (s.axis == xpath::Axis::kFollowingSibling) {
      if (x == kVirtualRootNode) continue;
      for (xml::NodeId u = doc_->NextSibling(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
      continue;
    }
    // Child axis.
    if (x == kVirtualRootNode) {
      if (!doc_->empty()) try_child(k, doc_->Root());
    } else {
      for (xml::NodeId u = doc_->FirstChild(x); u != xml::kNullNode;
           u = doc_->NextSibling(u)) {
        try_child(k, u);
      }
    }
  }

  // Mandatory (f-mode) children must have matched (Algorithm 2 line 21:
  // unmatched pattern nodes invalidate the partial result).
  for (size_t k = 0; k < n_children; ++k) {
    if (locals_[lv.local_children[k]].mode == EdgeMode::kFor &&
        !lv.matched[k]) {
      arena_->Truncate(undo);
      return false;
    }
  }

  // Hand this vertex's contribution up.
  if (lv.returning) {
    dst[0].push_back(CloseEntry(lv, x));
  } else {
    for (size_t f = 0; f < lv.acc.size(); ++f) {
      dst[f].insert(dst[f].end(), lv.acc[f].begin(), lv.acc[f].end());
    }
  }
  return true;
}

NokScanOperator::NokScanOperator(const xml::Document* doc,
                                 const pattern::BlossomTree* tree,
                                 const pattern::NokTree* nok,
                                 util::ThreadPool* pool,
                                 util::ResourceGuard* guard,
                                 NokResultCache* cache,
                                 const storage::DiskStore* store,
                                 std::optional<std::vector<xml::NodeId>> run)
    : NestedListOperator(guard),
      doc_(doc),
      tree_(tree),
      nok_(nok),
      top_slots_(NokTopSlots(*tree, *nok)),
      virtual_root_(tree->vertex(nok->root).IsVirtualRoot()),
      range_end_(doc->NumNodes() == 0
                     ? 0
                     : static_cast<xml::NodeId>(doc->NumNodes() - 1)),
      pool_(pool),
      cache_(cache),
      store_(store) {
  // Cache keys take their pattern half from the NoK's fingerprint, which
  // pattern::Decompose sets.
  assert(cache_ == nullptr || !nok->fingerprint.empty());
  const pattern::Vertex& rootv = tree->vertex(nok->root);
  if (run) {
    // The run is the whole candidate set, whatever the root: an empty one
    // (a NoK proven empty) tests nothing, not even "~".
    run_ = std::move(run);
    candidates_ = *run_;
    virtual_root_ = false;
  } else if (!virtual_root_ && !rootv.MatchesAnyTag() &&
             !rootv.tag.empty() && rootv.tag[0] != '@') {
    // A concrete element root can only pass RootTest on a node with its
    // tag. A tag absent from the document (Lookup -> kNullTag) has an
    // empty stream — the correct answer, since no node can pass TagOk.
    candidates_ = doc->TagIndex(doc->tags().Lookup(rootv.tag));
  } else {
    per_node_ = !virtual_root_;
  }
}

void NokScanOperator::SetRange(xml::NodeId begin, xml::NodeId end) {
  range_begin_ = begin;
  range_end_ = end;
  Rewind();
}

bool NokScanOperator::ParallelEligible() const {
  return pool_ != nullptr && pool_->NumThreads() > 1 && !virtual_root_ &&
         !run_ && range_begin_ == 0 && doc_->NumNodes() > 1 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

bool NokScanOperator::CacheEligible() const {
  // Full-document scans only: the BNLJ's range-restricted inner re-scans
  // are many, small, and keyed by arbitrary subtree ranges — caching them
  // would flood the budget with entries that rarely recur. An unfinished
  // document (generation 0) has no invalidation identity, so it is never
  // cached either.
  return cache_ != nullptr && !run_ && doc_->generation() != 0 &&
         doc_->NumNodes() > 0 && range_begin_ == 0 &&
         static_cast<size_t>(range_end_) + 1 >= doc_->NumNodes();
}

std::shared_ptr<const nestedlist::Arena> NokScanOperator::ProbeCache(
    const NokCacheKey& key) {
  std::shared_ptr<const nestedlist::Arena> hit = cache_->Get(key);
  cache_probes_.Count(hit != nullptr);
  return hit;
}

void NokScanOperator::FillCache(
    const NokCacheKey& key, std::shared_ptr<const nestedlist::Arena> matches) {
  if (guard() != nullptr && guard()->Tripped()) return;
  util::TraceSpan span("cache", "result.fill");
  cache_->Put(key, std::move(matches));
}

size_t NokScanOperator::FirstCandidate(xml::NodeId first) const {
  return static_cast<size_t>(
      std::lower_bound(candidates_.begin(), candidates_.end(), first) -
      candidates_.begin());
}

bool NokScanOperator::ProbeCandidates(NokMatcher* m, size_t* pos,
                                      xml::NodeId last, size_t want,
                                      storage::BlockCursor* io,
                                      uint64_t* scanned,
                                      nestedlist::Arena* out) const {
  util::ResourceGuard* g = guard();
  for (; *pos < candidates_.size() && candidates_[*pos] <= last &&
         out->size() < want;
       ++*pos) {
    // Guard sample: a full Check every 512 tested nodes, from the first.
    if (g != nullptr &&
        (g->Tripped() || ((*scanned & 0x1FF) == 0 && !g->Check()))) {
      return false;
    }
    if (*pos + kPrefetchAhead < candidates_.size()) {
      doc_->PrefetchRecords(candidates_[*pos + kPrefetchAhead],
                            kPrefetchLines);
    }
    const xml::NodeId c = candidates_[*pos];
    if (store_ != nullptr) store_->Touch(c, c, io);
    ++*scanned;
    if (m->RootTest(c)) m->MatchAt(c, out);
  }
  return g == nullptr || !g->Tripped();
}

bool NokScanOperator::ScanRange(NokMatcher* m, xml::NodeId begin,
                                xml::NodeId end, storage::BlockCursor* io,
                                uint64_t* scanned,
                                nestedlist::Arena* out) const {
  util::ResourceGuard* g = guard();
  if (virtual_root_) {
    // "~" is a one-node range, whatever [begin, end] says.
    if (g != nullptr && (g->Tripped() || !g->Check())) return false;
    ++*scanned;
    m->MatchAt(kVirtualRootNode, out);
    return g == nullptr || !g->Tripped();
  }
  if (!per_node_) {
    size_t pos = FirstCandidate(begin);
    return ProbeCandidates(m, &pos, end, static_cast<size_t>(-1), io, scanned,
                           out);
  }
  size_t total = doc_->NumNodes();
  if (total == 0 || begin > end) return true;
  if (static_cast<size_t>(end) >= total) {
    end = static_cast<xml::NodeId>(total - 1);
  }
  for (xml::NodeId x = begin;;) {
    // Chunk-top guard sample. Check() never mutates a counter, so the
    // cadence leaves untripped-run counters unchanged; only trip *timing*
    // depends on it (results are discarded on a trip).
    if (g != nullptr && (g->Tripped() || !g->Check())) {
      return false;
    }
    xml::NodeId chunk_end = end;
    if (chunk_end - x >= kScanChunk) {
      chunk_end = x + static_cast<xml::NodeId>(kScanChunk) - 1;
    }
    if (store_ != nullptr) store_->Touch(x, chunk_end, io);
    for (xml::NodeId c = x; c <= chunk_end; ++c) {
      ++*scanned;
      if (m->RootTest(c)) m->MatchAt(c, out);
      if (g != nullptr && g->Tripped()) return false;
    }
    if (chunk_end == end) break;
    x = chunk_end + 1;
  }
  return true;
}

void NokScanOperator::RunMaterializedScan() {
  util::TraceSpan span(
      "exec", util::Tracer::Get().enabled() ? Label() + ".materialize"
                                            : std::string());
  std::vector<storage::NodeRange> parts;
  if (ParallelEligible()) {
    parts = storage::PartitionSubtrees(*doc_, pool_->NumThreads());
    partitions_used_ = parts.size();
  } else {
    parts.push_back(storage::NodeRange{range_begin_, range_end_});
  }
  parts_.assign(parts.size(), nullptr);
  // Per-partition cache probe (main thread): hit partitions take the
  // cached frozen arena; only the misses scan. Partition ranges are a pure
  // function of (document, thread count), so a warm run at the same thread
  // count hits every key, and any hit holds exactly what a cold scan of
  // that range produced — concatenation stays byte-identical.
  bool cached = CacheEligible();
  if (cached) {
    util::TraceSpan lookup("cache", "result.lookup");
    for (size_t i = 0; i < parts.size(); ++i) {
      parts_[i] = ProbeCache(NokCacheKey{doc_->generation(), nok_->fingerprint,
                                         parts[i].begin, parts[i].end});
    }
  }
  part_ = 0;
  part_pos_ = 0;
  buffered_ = true;
  // Hit partitions contribute no scan work: a full hit is done here.
  if (std::find(parts_.begin(), parts_.end(), nullptr) == parts_.end()) {
    return;
  }
  std::vector<uint64_t> scanned(parts.size(), 0);
  std::vector<uint64_t> work(parts.size(), 0);
  // Each miss scans into its own arena, made here: the pool skips the
  // remaining tasks once the guard trips, and a skipped partition must
  // still lend (zero) rows.
  std::vector<size_t> missing;
  std::vector<std::shared_ptr<nestedlist::Arena>> fresh(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts_[i] != nullptr) continue;
    missing.push_back(i);
    fresh[i] = std::make_shared<nestedlist::Arena>();
    parts_[i] = fresh[i];
  }
  auto scan = [&](size_t mi) {
    size_t i = missing[mi];
    util::TraceSpan part_span(
        "exec", util::Tracer::Get().enabled()
                    ? "partition[" + std::to_string(i) + "] nodes [" +
                          std::to_string(parts[i].begin) + "," +
                          std::to_string(parts[i].end) + "]"
                    : std::string());
    // A private matcher per partition: constraint checks are read-only on
    // the shared document, and its work counter (value comparisons
    // included) is this partition's alone.
    NokMatcher m(doc_, tree_, nok_);
    m.set_guard(guard());
    // Private block cursor per partition: the aggregate equals the sum of
    // partition read counts at every thread count and interleaving.
    storage::BlockCursor io;
    if (!ScanRange(&m, parts[i].begin, parts[i].end, &io, &scanned[i],
                   fresh[i].get())) {
      fresh[i]->clear();  // A tripped run discards its results.
    } else if (cached) {
      // The cache charges Bytes(); hold no more than that.
      fresh[i]->ShrinkToFit();
    }
    work[i] = m.MatchWork();
  };
  if (parts.size() == 1) {
    scan(0);
  } else {
    pool_->ParallelFor(missing.size(), scan, guard());
  }
  // Share every partition scanned cold with the cache (complete scans
  // only; FillCache refuses after a trip). From here on the arenas are
  // frozen: the cache and this scan read them, nobody writes them.
  if (cached) {
    for (size_t i : missing) {
      FillCache(NokCacheKey{doc_->generation(), nok_->fingerprint,
                            parts[i].begin, parts[i].end},
                parts_[i]);
    }
  }
  // Deterministic merge point (DESIGN.md §8): per-partition counters fold
  // in partition order, matching the lending order.
  for (size_t i = 0; i < parts.size(); ++i) {
    nodes_scanned_ += scanned[i];
    parallel_work_ += work[i];
  }
}

bool NokScanOperator::ScanNextChunk(size_t want) {
  chunk_.clear();
  chunk_pos_ = 0;
  if (!matcher_) {
    matcher_.emplace(doc_, tree_, nok_);
    matcher_->set_guard(guard());
  }
  if (!virtual_root_ && !per_node_) {
    if (!ProbeCandidates(&*matcher_, &next_, range_end_, want, &io_cursor_,
                         &nodes_scanned_, &chunk_)) {
      chunk_.clear();
      return false;
    }
    return !chunk_.empty();
  }
  while (chunk_.size() < want) {
    if (cursor_ > range_end_ ||
        (!virtual_root_ && static_cast<size_t>(cursor_) >= doc_->NumNodes())) {
      break;
    }
    // "~" is one node however wide the range: one step covers it.
    xml::NodeId chunk_end = range_end_;
    if (!virtual_root_ && chunk_end - cursor_ >= kScanChunk) {
      chunk_end = cursor_ + static_cast<xml::NodeId>(kScanChunk) - 1;
    }
    bool ok = ScanRange(&*matcher_, cursor_, chunk_end, &io_cursor_,
                        &nodes_scanned_, &chunk_);
    cursor_ = chunk_end + 1;
    if (!ok) {
      chunk_.clear();
      return false;
    }
  }
  return !chunk_.empty();
}

void NokScanOperator::FillBatch(Batch* out, size_t max_rows) {
  if (!buffered_ && (CacheEligible() || ParallelEligible())) {
    RunMaterializedScan();
  }
  if (buffered_) {
    while (part_ < parts_.size() && part_pos_ == parts_[part_]->size()) {
      ++part_;
      part_pos_ = 0;
    }
    if (part_ == parts_.size()) return;
    const nestedlist::Arena* part = parts_[part_].get();
    uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(max_rows, part->size() - part_pos_));
    out->Lend(part, part_pos_, n);
    part_pos_ += n;
    return;
  }
  if (chunk_pos_ == chunk_.size() && !ScanNextChunk(max_rows)) return;
  uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(max_rows, chunk_.size() - chunk_pos_));
  out->Lend(&chunk_, chunk_pos_, n);
  chunk_pos_ += n;
}

ExecStats NokScanOperator::Stats() const {
  ExecStats s = NestedListOperator::Stats();
  s.nodes_scanned = nodes_scanned_;
  if (run_) s.index_entries = nodes_scanned_;
  s.comparisons = MatchWork();
  s.result_cache = cache_probes_;
  return s;
}

void NokScanOperator::Rewind() {
  cursor_ = range_begin_;
  next_ = FirstCandidate(range_begin_);
  // A rewound scan recomputes (or re-probes the cache), so its counters
  // accumulate as a second pass would.
  buffered_ = false;
  parts_.clear();
  chunk_.clear();
  chunk_pos_ = 0;
  io_cursor_ = storage::BlockCursor();
}

}  // namespace exec
}  // namespace blossomtree
