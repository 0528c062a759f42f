// Structural-index access-path benchmark (DESIGN.md §14): ingests d3 and
// d5 corpora to BTSX v2 with their .btsi sidecars, reopens them cold
// through a DiskStore, and runs the same queries twice — once with the
// planner blind to the index (every NoK scans its root tag's stream) and
// once with the sidecar index attached (a root's `= literal` predicate
// scans its value-index run, DataGuide-absent paths scan nothing) —
// enforcing three invariants before the counter diff in CI:
//
//   1. Byte-identity: the indexed plan's results are byte-identical to the
//      scan plan and to the in-RAM reference at 1/2/4 threads.
//   2. Work: on the value-equality queries the indexed plan scans at least
//      10x fewer nodes than the scan plan, and the plan actually contains
//      an IndexSeek operator (not a scan that happened to be cheap). On
//      the selective tag-only queries both plans test the same tag-stream
//      candidates, and neither pays for a document pass: each tests at
//      most a tenth of the document's nodes.
//   3. Selectivity: over a geometric value distribution (key vK matching
//      ~2^-K-1 of the items) the equality seek's probe count tracks the
//      match count while the scan stays flat, and the seek never probes
//      more nodes than the scan visits.
//
// Exit status is non-zero on any violation. The BENCH_index.json artifact
// pins the per-operator counters of both variants: with a fixed seed and
// scale they are pure functions of the access-path choice, so the perf
// gate catches a planner change that silently drops a value-index run or
// a DataGuide proof, or a scan that tests more than its candidates.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "util/rng.h"
#include "xml/document.h"

using blossomtree::bench::BenchFlags;
using blossomtree::bench::ParseFlags;
using blossomtree::bench::ProfileSink;
using blossomtree::bench::TimeSeconds;
using blossomtree::bench::WithContext;
using blossomtree::datagen::Dataset;
using blossomtree::datagen::DatasetName;
using blossomtree::datagen::GenerateDataset;
using blossomtree::datagen::GenOptions;

namespace {

// The work gate (invariant 2) a query must pass.
enum class Gate {
  kNone,
  kSeek,     // Must plan an IndexSeek AND scan >=10x fewer nodes.
  kTagOnly,  // Both variants test the same nodes, each <= NumNodes / 10.
};

struct QueryCase {
  const char* id;
  const char* text;
  Gate gate;
};

// d3 (catalog, 51 tags): a rare single tag, a rooted path, and a value
// equality on a leaf tag. d5 (dblp, 35 tags): the paper's high-selectivity
// probes — phdthesis is rare, school occurs only under theses.
constexpr QueryCase kD3Queries[] = {
    {"i1", "//date_of_birth", Gate::kTagOnly},
    {"i2", "//publisher//street_address", Gate::kNone},
    {"i3", "//date_of_birth[.=\"alpha\"]", Gate::kSeek},
};
constexpr QueryCase kD5Queries[] = {
    {"i1", "//school", Gate::kTagOnly},
    {"i2", "//phdthesis/author", Gate::kTagOnly},
    {"i3", "//school[.=\"alpha\"]", Gate::kSeek},
    {"i4", "//article/author", Gate::kNone},
};

uint64_t SumNodesScanned(const blossomtree::engine::QueryProfile& p) {
  uint64_t total = 0;
  for (const auto& op : p.operators) total += op.stats.nodes_scanned;
  return total;
}

bool HasIndexSeek(const blossomtree::engine::QueryProfile& p) {
  for (const auto& op : p.operators) {
    if (op.label.rfind("IndexSeek", 0) == 0) return true;
  }
  return false;
}

// Items with a geometric key distribution: key vK with probability
// 2^-K-1, so //key[.="v0"] matches ~half the items and //key[.="v9"]
// ~0.1% — the selectivity axis of invariant 3.
std::unique_ptr<blossomtree::xml::Document> GeometricCatalog(size_t items,
                                                             uint64_t seed) {
  auto doc = std::make_unique<blossomtree::xml::Document>();
  blossomtree::Rng rng(seed);
  doc->BeginElement("catalog");
  for (size_t i = 0; i < items; ++i) {
    doc->BeginElement("item");
    doc->BeginElement("key");
    int k = 0;
    while (k < 9 && rng.Chance(0.5)) ++k;
    doc->AddText("v" + std::to_string(k));
    doc->EndElement();
    doc->BeginElement("payload");
    doc->AddText(std::to_string(rng.Uniform(1000)));
    doc->EndElement();
    doc->EndElement();
  }
  doc->EndElement();
  blossomtree::Status st = doc->Finish();
  (void)st;
  return doc;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv, /*default_scale=*/0.05);
  std::vector<unsigned> threads = flags.threads;
  if (threads.empty()) threads = {1, 2, 4};

  bool ok = true;
  ProfileSink sink("index");

  struct DatasetCase {
    Dataset dataset;
    const QueryCase* queries;
    size_t num_queries;
  };
  const DatasetCase kDatasets[] = {
      {Dataset::kD3Catalog, kD3Queries,
       sizeof(kD3Queries) / sizeof(kD3Queries[0])},
      {Dataset::kD5Dblp, kD5Queries,
       sizeof(kD5Queries) / sizeof(kD5Queries[0])},
  };

  for (const DatasetCase& dc : kDatasets) {
    GenOptions o;
    o.scale = flags.scale;
    o.seed = flags.seed;
    auto doc = GenerateDataset(dc.dataset, o);
    sink.AddDatasetLabel(DatasetName(dc.dataset));

    // Offline half of the pipeline: corpus file plus index sidecar, the
    // same artifacts `btingest --index` writes.
    const std::string path =
        std::string("bench_index_tmp_") + DatasetName(dc.dataset) + ".btsx2";
    if (auto s = blossomtree::storage::WriteBtsx2(*doc, path); !s.ok()) {
      std::printf("ingest failed: %s\n", s.ToString().c_str());
      return 1;
    }
    {
      auto idx = blossomtree::index::StructuralIndex::Build(*doc);
      auto s = blossomtree::index::WriteBtsi(
          *idx, blossomtree::index::BtsiSidecarPath(path));
      if (!s.ok()) {
        std::printf("sidecar failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }

    // Two separate opens, so each variant's block-read counters are its
    // own. The sidecar attaches to both; only the seek variant passes it
    // to the planner.
    auto scan_store = blossomtree::storage::DiskStore::Open(path);
    auto seek_store = blossomtree::storage::DiskStore::Open(path);
    if (!scan_store.ok() || !seek_store.ok()) {
      std::printf("open failed\n");
      return 1;
    }
    if ((*seek_store)->index() == nullptr) {
      std::printf("FAIL: sidecar did not attach on open\n");
      return 1;
    }

    std::printf("%s: %zu nodes, index sidecar %s\n",
                DatasetName(dc.dataset), (*scan_store)->NumNodes(),
                blossomtree::index::BtsiSidecarPath(path).c_str());
    std::printf("  %-3s %-34s %10s %10s %7s %9s %9s %s\n", "id", "query",
                "scan_ms", "seek_ms", "ratio", "scan_n", "seek_n",
                "identical");

    for (size_t qi = 0; qi < dc.num_queries; ++qi) {
      const QueryCase& q = dc.queries[qi];

      // In-RAM serial reference on the original document, no index.
      blossomtree::engine::EngineOptions plain;
      plain.num_threads = 1;
      blossomtree::engine::BlossomTreeEngine ref(doc.get(), plain);
      auto ref_r = ref.EvaluateQuery(q.text);
      if (!ref_r.ok()) {
        std::printf("  %-3s reference error: %s\n", q.id,
                    ref_r.status().ToString().c_str());
        return 1;
      }

      // Serial profiled runs of both variants feed the artifact and the
      // work assertions.
      uint64_t scan_nodes = 0;
      uint64_t seek_nodes = 0;
      for (int variant = 0; variant < 2; ++variant) {
        auto& store = variant == 0 ? scan_store : seek_store;
        blossomtree::engine::EngineOptions po;
        po.num_threads = 1;
        po.collect_profile = true;
        po.plan.store = store->get();
        if (variant == 1) po.plan.index = (*store)->index();
        blossomtree::engine::BlossomTreeEngine prof((*store)->document(),
                                                    po);
        auto pr = prof.EvaluateQuery(q.text);
        if (!pr.ok()) {
          std::printf("  %-3s %s error: %s\n", q.id,
                      variant == 0 ? "scan" : "seek",
                      pr.status().ToString().c_str());
          return 1;
        }
        const auto& profile = prof.LastProfile();
        if (variant == 0) {
          scan_nodes = SumNodesScanned(profile);
        } else {
          seek_nodes = SumNodesScanned(profile);
          if (q.gate == Gate::kSeek && !HasIndexSeek(profile)) {
            std::printf("  %-3s FAIL: no IndexSeek in the indexed plan\n",
                        q.id);
            ok = false;
          }
        }
        std::string context =
            "\"dataset\": \"" + std::string(DatasetName(dc.dataset)) +
            "\", \"id\": \"" + q.id + "\", \"variant\": \"" +
            (variant == 0 ? "scan" : "seek") + "\"";
        sink.Add(WithContext(context, profile.ToJson()));
      }

      if (q.gate == Gate::kSeek && scan_nodes < 10 * seek_nodes) {
        std::printf(
            "  %-3s FAIL: seek scanned %llu nodes, scan %llu (< 10x)\n",
            q.id, (unsigned long long)seek_nodes,
            (unsigned long long)scan_nodes);
        ok = false;
      }
      const uint64_t num_nodes = (*scan_store)->NumNodes();
      if (q.gate == Gate::kTagOnly &&
          (seek_nodes != scan_nodes || 10 * scan_nodes > num_nodes)) {
        std::printf(
            "  %-3s FAIL: tag-only plans tested %llu and %llu nodes (want "
            "equal, <= %llu)\n",
            q.id, (unsigned long long)scan_nodes,
            (unsigned long long)seek_nodes,
            (unsigned long long)(num_nodes / 10));
        ok = false;
      }
      if (seek_nodes > scan_nodes) {
        std::printf("  %-3s FAIL: indexed plan did more work than scan\n",
                    q.id);
        ok = false;
      }

      // Timed runs + byte-identity at every thread count.
      bool identical = true;
      std::vector<double> scan_samples;
      std::vector<double> seek_samples;
      for (unsigned t : threads) {
        blossomtree::engine::EngineOptions so;
        so.num_threads = t;
        so.plan.store = scan_store->get();
        blossomtree::engine::BlossomTreeEngine scan(
            (*scan_store)->document(), so);
        blossomtree::engine::EngineOptions ko;
        ko.num_threads = t;
        ko.plan.store = seek_store->get();
        ko.plan.index = (*seek_store)->index();
        blossomtree::engine::BlossomTreeEngine seek(
            (*seek_store)->document(), ko);
        for (int run = 0; run < flags.runs; ++run) {
          blossomtree::Result<std::string> sr = std::string{};
          scan_samples.push_back(
              TimeSeconds([&] { sr = scan.EvaluateQuery(q.text); }));
          if (!sr.ok() || *sr != *ref_r) identical = false;
          blossomtree::Result<std::string> kr = std::string{};
          seek_samples.push_back(
              TimeSeconds([&] { kr = seek.EvaluateQuery(q.text); }));
          if (!kr.ok() || *kr != *ref_r) identical = false;
        }
      }
      ok = ok && identical;
      std::printf("  %-3s %-34s %10.3f %10.3f %6.1fx %9llu %9llu %s\n",
                  q.id, q.text, Median(scan_samples) * 1e3,
                  Median(seek_samples) * 1e3,
                  seek_nodes > 0
                      ? (double)scan_nodes / (double)seek_nodes
                      : (double)scan_nodes,
                  (unsigned long long)scan_nodes,
                  (unsigned long long)seek_nodes,
                  identical ? "yes" : "NO");
    }
    std::printf("\n");
    std::remove(blossomtree::index::BtsiSidecarPath(path).c_str());
    std::remove(path.c_str());
  }

  // Selectivity sweep: equality seeks over a geometric value distribution.
  {
    size_t items = static_cast<size_t>(50000 * flags.scale);
    if (items < 100) items = 100;
    auto doc = GeometricCatalog(items, flags.seed);
    auto idx = blossomtree::index::StructuralIndex::Build(*doc);
    sink.AddDatasetLabel("catalog-" + std::to_string(items));

    std::printf("Selectivity sweep: //key[.=\"vK\"] over %zu items\n",
                items);
    std::printf("  %-4s %9s %9s %9s %s\n", "key", "scan_n", "seek_n",
                "rows", "identical");

    uint64_t first_seek = 0;
    uint64_t last_seek = 0;
    for (int k = 0; k <= 9; ++k) {
      std::string query = "//key[.=\"v" + std::to_string(k) + "\"]";
      uint64_t counts[2] = {0, 0};
      uint64_t rows = 0;
      std::string results[2];
      for (int variant = 0; variant < 2; ++variant) {
        blossomtree::engine::EngineOptions po;
        po.num_threads = 1;
        po.collect_profile = true;
        if (variant == 1) po.plan.index = idx.get();
        blossomtree::engine::BlossomTreeEngine eng(doc.get(), po);
        auto r = eng.EvaluateQuery(query);
        if (!r.ok()) {
          std::printf("  v%d %s error: %s\n", k,
                      variant == 0 ? "scan" : "seek",
                      r.status().ToString().c_str());
          return 1;
        }
        results[variant] = *r;
        const auto& profile = eng.LastProfile();
        counts[variant] = SumNodesScanned(profile);
        if (variant == 1) {
          rows = 0;
          for (const auto& op : profile.operators) rows += op.stats.matches;
          sink.Add(WithContext("\"dataset\": \"catalog-" +
                                   std::to_string(items) +
                                   "\", \"id\": \"v" + std::to_string(k) +
                                   "\", \"variant\": \"seek\"",
                               profile.ToJson()));
        }
      }
      bool identical = results[0] == results[1];
      ok = ok && identical;
      if (counts[1] > counts[0]) {
        std::printf("  v%d FAIL: seek probed more than the scan visited\n",
                    k);
        ok = false;
      }
      if (k == 0) first_seek = counts[1];
      if (k == 9) last_seek = counts[1];
      std::printf("  v%-3d %9llu %9llu %9llu %s\n", k,
                  (unsigned long long)counts[0],
                  (unsigned long long)counts[1], (unsigned long long)rows,
                  identical ? "yes" : "NO");
    }
    // Geometric keys: matches halve per tier, so the seek's probe count —
    // which tracks match counts, unlike the flat scan — must collapse by
    // >=10x across the sweep. (Per-step monotonicity would be noise-bound:
    // the high-K tiers hold single-digit samples.)
    if (first_seek < 10 * last_seek) {
      std::printf("  FAIL: seek probes did not track selectivity "
                  "(v0=%llu, v9=%llu)\n",
                  (unsigned long long)first_seek,
                  (unsigned long long)last_seek);
      ok = false;
    }
    std::printf("\n");
  }

  sink.WriteAndReport();
  if (!ok) {
    std::printf("FAIL: index access-path invariants violated\n");
    return 1;
  }
  std::printf("OK: indexed plans byte-identical at every thread count, "
              ">=10x fewer nodes on the value-equality queries, tag-only "
              "queries test their streams only\n");
  return 0;
}
