#include "service/corpus.h"

#include <utility>

namespace blossomtree {
namespace service {

CorpusDocument::CorpusDocument(std::string name,
                               std::unique_ptr<xml::Document> doc)
    : name_(std::move(name)),
      doc_(std::move(doc)),
      generation_(doc_->generation()) {}

CorpusDocument::CorpusDocument(std::string name,
                               std::unique_ptr<storage::DiskStore> disk)
    : name_(std::move(name)),
      disk_(std::move(disk)),
      generation_(disk_->generation()) {}

Corpus::Corpus(CorpusOptions options) {
  if (options.plan_cache.enabled) {
    plan_cache_ = std::make_unique<engine::PlanCache>(options.plan_cache);
  }
  if (options.result_cache.enabled) {
    result_cache_ =
        std::make_unique<exec::NokResultCache>(options.result_cache);
  }
}

Status Corpus::Add(const std::string& name,
                   std::unique_ptr<xml::Document> doc) {
  if (name.empty()) {
    return Status::InvalidArgument("corpus: document name must be non-empty");
  }
  if (doc == nullptr || doc->generation() == 0) {
    return Status::InvalidArgument(
        "corpus: document must be non-null and Finish()ed before Add");
  }
  auto entry = std::make_shared<CorpusDocument>(name, std::move(doc));
  std::lock_guard<std::mutex> lock(mu_);
  docs_[name] = std::move(entry);
  return Status::OK();
}

Status Corpus::AddDisk(const std::string& name, const std::string& path,
                       storage::DiskStoreOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("corpus: document name must be non-empty");
  }
  BT_ASSIGN_OR_RETURN(std::unique_ptr<storage::DiskStore> disk,
                      storage::DiskStore::Open(path, options));
  auto entry = std::make_shared<CorpusDocument>(name, std::move(disk));
  std::lock_guard<std::mutex> lock(mu_);
  docs_[name] = std::move(entry);
  return Status::OK();
}

std::shared_ptr<const CorpusDocument> Corpus::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

bool Corpus::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.erase(name) > 0;
}

std::vector<std::string> Corpus::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(docs_.size());
  for (const auto& [name, entry] : docs_) names.push_back(name);
  return names;
}

size_t Corpus::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

}  // namespace service
}  // namespace blossomtree
