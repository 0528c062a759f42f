// Google-benchmark microbenchmarks for the individual operators: XML
// parsing, NoK scan, structural merge join, TwigStack, pipelined join, and
// NestedList projection. These are not paper tables; they quantify the
// building blocks the table benches compose.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "baseline/navigational.h"
#include "bench_profile.h"
#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/construct.h"
#include "exec/structural_join.h"
#include "exec/twigstack.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "nestedlist/ops.h"
#include "opt/planner.h"
#include "pattern/builder.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace blossomtree {
namespace {

std::unique_ptr<xml::Document> BenchDoc(datagen::Dataset d, double scale) {
  datagen::GenOptions o;
  o.scale = scale;
  o.seed = 42;
  return datagen::GenerateDataset(d, o);
}

void BM_ParseXml(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  std::string text = xml::Serialize(*doc);
  for (auto _ : state) {
    auto r = xml::ParseDocument(text);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseXml);

void BM_SerializeXml(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  for (auto _ : state) {
    std::string text = xml::Serialize(*doc);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_SerializeXml);

// Result serialization as a query's drain ends: a d5 (scale 1.0) result
// set copied through one engine::ResultBuilder::CopyNodes call, as path
// queries write their results. Arg 0 is //article/title (many small subtrees), arg 1
// //www[//url] (record subtrees with attributes).
void BM_SerializeResults(benchmark::State& state) {
  static const std::unique_ptr<xml::Document> doc =
      BenchDoc(datagen::Dataset::kD5Dblp, 1.0);
  const char* query = state.range(0) == 0 ? "//article/title" : "//www[//url]";
  baseline::NavigationalEvaluator nav(doc.get());
  std::vector<xml::NodeId> nodes =
      nav.EvaluatePath(xpath::ParsePath(query).MoveValue()).MoveValue();
  size_t bytes = 0;
  for (auto _ : state) {
    engine::ResultBuilder builder(doc.get());
    builder.CopyNodes(nodes);
    std::string out = builder.ToXml().MoveValue();
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  std::string label = query;
  state.SetLabel(label + ", " + std::to_string(nodes.size()) + " nodes");
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SerializeResults)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A d5 (scale 1.0) image written with its .btsi sidecar and opened mapped,
/// as the service opens an indexed disk corpus. The files are unlinked once
/// open: the mapping and the loaded index outlive them.
const storage::DiskStore& MappedD5() {
  static const std::unique_ptr<storage::DiskStore> store = [] {
    auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 1.0);
    const std::string path = "bench_micro_tmp_d5.btsx2";
    const std::string sidecar = index::BtsiSidecarPath(path);
    Status st = storage::WriteBtsx2(*doc, path);
    if (st.ok()) {
      st = index::WriteBtsi(*index::StructuralIndex::Build(*doc), sidecar);
    }
    auto opened = storage::DiskStore::Open(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
    if (!st.ok() || !opened.ok() || (*opened)->index() == nullptr) {
      std::fprintf(stderr, "mapped d5 image: %s\n",
                   (st.ok() ? opened.status() : st).ToString().c_str());
      std::abort();
    }
    return opened.MoveValue();
  }();
  return *store;
}

// The drain alone of two broad reads as an indexed disk corpus runs them:
// plans over MappedD5() with its index (both NoKs seek), drained by
// opt::DrainPathPlan. Planning is outside the timed region. Arg 0 is
// //article/title, arg 1 //inproceedings[ee]/booktitle, arg 2 //www[//url]
// (an existential // leaf: a probe of the url tag stream).
void BM_SeekDrain(benchmark::State& state) {
  const storage::DiskStore& store = MappedD5();
  static const char* const kQueries[] = {
      "//article/title", "//inproceedings[ee]/booktitle", "//www[//url]"};
  const char* query = kQueries[state.range(0)];
  auto tree =
      pattern::BuildFromPath(xpath::ParsePath(query).MoveValue()).MoveValue();
  opt::PlanOptions po;
  po.store = &store;
  po.index = store.index();
  size_t results = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto plan = opt::PlanQuery(store.document(), &tree, po).MoveValue();
    state.ResumeTiming();
    auto nodes = opt::DrainPathPlan(&plan, po).MoveValue();
    results = nodes.size();
    benchmark::DoNotOptimize(nodes);
  }
  state.SetLabel(std::string(query) + ", " + std::to_string(results) +
                 " results");
}
BENCHMARK(BM_SeekDrain)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_NokScan(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  auto path = xpath::ParsePath("//proceedings[editor]").MoveValue();
  auto tree = pattern::BuildFromPath(path).MoveValue();
  auto decomp = pattern::Decompose(tree);
  for (auto _ : state) {
    exec::NokScanOperator scan(doc.get(), &tree,
                               &decomp.noks[decomp.noks.size() - 1]);
    size_t count = exec::Drain(&scan).size();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc->NumNodes()));
}
BENCHMARK(BM_NokScan);

void BM_StructuralJoin(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  const auto& anc = doc->TagIndex(doc->tags().Lookup("proceedings"));
  const auto& desc = doc->TagIndex(doc->tags().Lookup("editor"));
  for (auto _ : state) {
    auto pairs = exec::StackStructuralJoin(*doc, anc, desc);
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(anc.size() + desc.size()));
}
BENCHMARK(BM_StructuralJoin);

void BM_TwigStack(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  auto path = xpath::ParsePath("//proceedings[//editor]//url").MoveValue();
  auto tree = pattern::BuildFromPath(path).MoveValue();
  for (auto _ : state) {
    exec::TwigStack ts(doc.get(), &tree);
    std::vector<xml::NodeId> out;
    Status st = ts.Run(tree.VertexOfVariable("result"), &out);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_TwigStack);

void BM_PipelinedPlan(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  auto path = xpath::ParsePath("//proceedings[//editor]//url").MoveValue();
  auto tree = pattern::BuildFromPath(path).MoveValue();
  opt::PlanOptions po;
  po.strategy = opt::JoinStrategy::kPipelined;
  for (auto _ : state) {
    auto r = opt::EvaluatePathQuery(doc.get(), &tree, po);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PipelinedPlan);

void BM_NavigationalPath(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  auto path = xpath::ParsePath("//proceedings[//editor]//url").MoveValue();
  for (auto _ : state) {
    baseline::NavigationalEvaluator nav(doc.get());
    auto r = nav.EvaluatePath(path);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NavigationalPath);

void BM_Projection(benchmark::State& state) {
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  auto path = xpath::ParsePath("//proceedings//editor").MoveValue();
  auto tree = pattern::BuildFromPath(path).MoveValue();
  opt::PlanOptions po;
  po.strategy = opt::JoinStrategy::kPipelined;
  auto plan = opt::PlanQuery(doc.get(), &tree, po).MoveValue();
  auto lists = exec::Drain(plan.trees[0].root.get());
  pattern::SlotId slot = tree.SlotOfVariable("result");
  for (auto _ : state) {
    auto nodes =
        nestedlist::ProjectSequence(tree, plan.trees[0].tops, lists, slot);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_Projection);

void BM_DatasetGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto doc = BenchDoc(datagen::Dataset::kD1Recursive, 0.05);
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_DatasetGeneration);

}  // namespace
}  // namespace blossomtree

// BENCHMARK_MAIN plus a BENCH_micro.json artifact: the per-operator
// breakdown of the pipelined plan the BM_PipelinedJoin/BM_Projection
// microbenchmarks exercise.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace blossomtree;
  auto doc = BenchDoc(datagen::Dataset::kD5Dblp, 0.05);
  const std::string query = "//proceedings//editor";
  auto path = xpath::ParsePath(query).MoveValue();
  auto tree = pattern::BuildFromPath(path).MoveValue();
  opt::PlanOptions po;
  po.strategy = opt::JoinStrategy::kPipelined;
  bench::ProfileSink sink("micro");
  sink.AddDatasetLabel("d5");
  bench::LatencyHistogram latency;
  latency.RecordSeconds(bench::TimeSeconds([&] {
    auto r = opt::EvaluatePathQuery(doc.get(), &tree, po);
    (void)r;
  }));
  sink.Add(bench::WithContext(
      "\"dataset\": \"d5\", " + latency.JsonField(),
      bench::PlanProfileJson(doc.get(), &tree, query, po)));
  sink.WriteAndReport();
  return 0;
}
