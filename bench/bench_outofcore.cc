// Out-of-core serving benchmark (DESIGN.md §13): ingests a generated d5
// corpus into a BTSX v2 file, reopens it through a mapped DiskStore, and
// enforces two invariants before the counter diff in CI:
//
//   1. Byte-identity: every query answered from disk at 1/2/4 threads is
//      byte-identical to the in-RAM engine on the original document.
//   2. Residency: the mapped store keeps no block ledger (the OS page
//      cache owns mapped residency) and its measured residency (mincore)
//      never exceeds the file.
//
// Exit status is non-zero on any violation. The BENCH_outofcore.json
// artifact pins the per-operator work counters of the disk-served plans:
// with a fixed seed and scale they are pure functions of the plan, so the
// perf gate catches a change that makes out-of-core plans scan more.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/engine.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"

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

struct QueryCase {
  const char* id;
  const char* text;
};

// The same shapes the service and cache gates exercise: a low-selectivity
// path (o1, every block of the record section is touched), a selective
// predicate path (o2), and a FLWOR pipeline (o3) whose binding scan goes
// through the store.
constexpr QueryCase kQueries[] = {
    {"o1", "//article/author"},
    {"o2", "//phdthesis[year]/title"},
    {"o3", "for $a in //article where exists($a/year) return "
           "<hit>{$a/title}</hit>"},
};

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

  GenOptions o;
  o.scale = flags.scale;
  o.seed = flags.seed;
  auto doc = GenerateDataset(Dataset::kD5Dblp, o);

  const std::string path = "bench_outofcore_tmp.btsx2";
  if (auto s = blossomtree::storage::WriteBtsx2(*doc, path); !s.ok()) {
    std::printf("ingest failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Small blocks keep the block count meaningful at bench scale.
  blossomtree::storage::DiskStoreOptions opts;
  opts.block_bytes = 4096;
  auto store = blossomtree::storage::DiskStore::Open(path, opts);
  if (!store.ok()) {
    std::printf("open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "Out-of-core corpus: %s, %zu nodes, file %.1f KiB, records %.1f KiB "
      "(%zu blocks of %zu B)\n\n",
      DatasetName(Dataset::kD5Dblp), (*store)->NumNodes(),
      (*store)->FileBytes() / 1024.0, (*store)->RecordBytes() / 1024.0,
      (*store)->NumBlocks(), (size_t)4096);

  bool ok = true;

  ProfileSink sink("outofcore");
  sink.AddDatasetLabel(DatasetName(Dataset::kD5Dblp));

  std::printf("  %-3s %7s %11s %11s %9s %s\n", "id", "threads", "ram_ms",
              "disk_ms", "blk_reads", "identical");

  for (const QueryCase& q : kQueries) {
    // In-RAM reference on the original (built, non-adopted) document.
    blossomtree::engine::EngineOptions plain;
    plain.num_threads = 1;
    blossomtree::engine::BlossomTreeEngine ref(doc.get(), plain);
    auto ref_r = ref.EvaluateQuery(q.text);
    if (!ref_r.ok()) {
      std::printf("  %-3s reference error: %s\n", q.id,
                  ref_r.status().ToString().c_str());
      return 1;
    }

    // Serial disk-served profile for the artifact, outside the timed runs.
    {
      blossomtree::engine::EngineOptions po;
      po.num_threads = 1;
      po.collect_profile = true;
      po.plan.store = store->get();
      blossomtree::engine::BlossomTreeEngine prof((*store)->document(), po);
      if (prof.EvaluateQuery(q.text).ok()) {
        std::string context = "\"dataset\": \"" +
                              std::string(DatasetName(Dataset::kD5Dblp)) +
                              "\", \"id\": \"" + q.id +
                              "\", \"variant\": \"disk\"";
        sink.Add(WithContext(context, prof.LastProfile().ToJson()));
      }
    }

    for (unsigned t : threads) {
      blossomtree::engine::EngineOptions ro;
      ro.num_threads = t;
      blossomtree::engine::BlossomTreeEngine ram(doc.get(), ro);
      blossomtree::engine::EngineOptions dopt;
      dopt.num_threads = t;
      dopt.plan.store = store->get();
      blossomtree::engine::BlossomTreeEngine disk((*store)->document(), dopt);

      bool identical = true;
      uint64_t block_reads = 0;
      std::vector<double> ram_samples;
      std::vector<double> disk_samples;
      for (int run = 0; run < flags.runs; ++run) {
        blossomtree::Result<std::string> rr = std::string{};
        ram_samples.push_back(
            TimeSeconds([&] { rr = ram.EvaluateQuery(q.text); }));
        if (!rr.ok() || *rr != *ref_r) identical = false;

        uint64_t reads_before = (*store)->PageReads();
        blossomtree::Result<std::string> dr = std::string{};
        disk_samples.push_back(
            TimeSeconds([&] { dr = disk.EvaluateQuery(q.text); }));
        if (!dr.ok() || *dr != *ref_r) identical = false;
        block_reads = (*store)->PageReads() - reads_before;
      }
      ok = ok && identical;
      std::printf("  %-3s %7u %11.3f %11.3f %9llu %s\n", q.id, t,
                  Median(ram_samples) * 1e3, Median(disk_samples) * 1e3,
                  (unsigned long long)block_reads,
                  identical ? "yes" : "NO");
    }
  }

  // The mapped store serves every read straight from the mapping: no block
  // ledger, and what is resident is the page cache's measured share of the
  // file.
  auto stats = (*store)->BlockCacheStats();
  uint64_t resident = (*store)->ResidentBytes();
  std::printf("\nMapped store: %llu block-cache insertions, %llu entries; "
              "%.1f of %.1f KiB resident (mincore)\n",
              (unsigned long long)stats.insertions,
              (unsigned long long)stats.entries, resident / 1024.0,
              (*store)->FileBytes() / 1024.0);
  if (stats.insertions != 0 || stats.entries != 0) {
    std::printf("FAIL: the mapped store kept a block ledger\n");
    ok = false;
  }
  if (resident > (*store)->FileBytes()) {
    std::printf("FAIL: measured residency exceeds the file size\n");
    ok = false;
  }

  sink.WriteAndReport();
  std::remove(path.c_str());

  if (!ok) {
    std::printf("FAIL: out-of-core invariants violated\n");
    return 1;
  }
  std::printf("OK: disk-served results byte-identical at every thread "
              "count, no block ledger, residency within the file\n");
  return 0;
}
