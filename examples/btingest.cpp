// btingest — offline BTSX v2 ingestion (DESIGN.md §13): parses an XML file
// (or generates a paper dataset) once, and persists the *decoded paged
// layout* — fixed-width node records, tag dictionary, per-tag node-id
// streams, text/attribute tables — so `btserve load-disk`, Corpus::AddDisk,
// and storage::DiskStore can later serve the document in O(open) with no
// XML parse and no index build.
//
// Usage:
//   btingest input.xml output.btsx2 [--verify] [--index]
//   btingest --gen=d5 [--scale=S] [--seed=N] output.btsx2 [--verify] [--index]
//
//   --gen=dN    generate dataset d1..d5 instead of parsing an XML file
//   --scale=S   generator size multiplier (default 1.0)
//   --seed=N    generator seed (default 42)
//   --verify    re-map the written file and run the full O(n) consistency
//               check (storage::ValidateBtsx2Deep) before declaring success
//   --index     also build the structural index (path summary, per-tag
//               statistics, value index; DESIGN.md §14) and write it as the
//               output's `.btsi` sidecar. Stamped with the corpus file's
//               generation, so re-ingesting without --index leaves a stale
//               sidecar that every open correctly ignores; so is a sidecar
//               of an older layout version, until --index rewrites it.
//
// The output stamps the source document's generation as the on-disk
// version; every open of the file adopts it under a fresh in-process
// generation, so result-cache identities never collide across builds.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "datagen/datagen.h"
#include "index/btsi.h"
#include "index/structural_index.h"
#include "storage/btsx2.h"
#include "storage/disk_store.h"
#include "xml/parser.h"

using namespace blossomtree;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: btingest input.xml output.btsx2 [--verify] [--index]\n"
               "       btingest --gen=d1..d5 [--scale=S] [--seed=N] "
               "output.btsx2 [--verify] [--index]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string gen;
  datagen::GenOptions gopts;
  bool verify = false;
  bool build_index = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--gen=", 6) == 0) {
      gen = arg + 6;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      gopts.scale = std::strtod(arg + 8, nullptr);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      gopts.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(arg, "--index") == 0) {
      build_index = true;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return Usage();
    } else if (gen.empty() && input.empty() && output.empty() && i + 1 < argc) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      return Usage();
    }
  }
  if (output.empty() || (gen.empty() == input.empty())) return Usage();

  std::unique_ptr<xml::Document> doc;
  if (!gen.empty()) {
    datagen::Dataset which;
    if (gen == "d1") {
      which = datagen::Dataset::kD1Recursive;
    } else if (gen == "d2") {
      which = datagen::Dataset::kD2Address;
    } else if (gen == "d3") {
      which = datagen::Dataset::kD3Catalog;
    } else if (gen == "d4") {
      which = datagen::Dataset::kD4Treebank;
    } else if (gen == "d5") {
      which = datagen::Dataset::kD5Dblp;
    } else {
      std::fprintf(stderr, "btingest: unknown dataset '%s'\n", gen.c_str());
      return 2;
    }
    doc = datagen::GenerateDataset(which, gopts);
  } else {
    auto parsed = xml::ParseDocumentFile(input);
    if (!parsed.ok()) {
      std::fprintf(stderr, "btingest: %s: %s\n", input.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    doc = parsed.MoveValue();
  }

  Status st = storage::WriteBtsx2(*doc, output);
  if (!st.ok()) {
    std::fprintf(stderr, "btingest: write %s: %s\n", output.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  std::string sidecar;
  if (build_index) {
    auto idx = index::StructuralIndex::Build(*doc);
    sidecar = index::BtsiSidecarPath(output);
    st = index::WriteBtsi(*idx, sidecar);
    if (!st.ok()) {
      std::fprintf(stderr, "btingest: index %s: %s\n", sidecar.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  if (verify) {
    storage::DiskStoreOptions dopts;
    dopts.full_validation = true;
    auto store = storage::DiskStore::Open(output, dopts);
    if (!store.ok()) {
      std::fprintf(stderr, "btingest: verify %s: %s\n", output.c_str(),
                   store.status().ToString().c_str());
      return 1;
    }
    if (build_index && (*store)->index() == nullptr) {
      std::fprintf(stderr,
                   "btingest: verify %s: sidecar did not load back\n",
                   sidecar.c_str());
      return 1;
    }
  }

  std::fprintf(stderr,
               "btingest: %s: %zu nodes, %zu tags, generation %llu%s%s\n",
               output.c_str(), doc->NumNodes(), doc->tags().size(),
               static_cast<unsigned long long>(doc->generation()),
               build_index ? " (+index)" : "", verify ? " (verified)" : "");
  return 0;
}
