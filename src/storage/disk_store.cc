#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "index/btsi.h"

namespace blossomtree {
namespace storage {

namespace {

/// pread that retries short reads; false on EOF-before-done or error.
bool ReadFully(int fd, char* dst, size_t len, uint64_t offset) {
  while (len > 0) {
    ssize_t got = ::pread(fd, dst, len, static_cast<off_t>(offset));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    dst += got;
    len -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

constexpr size_t kPageBytes = 4096;

}  // namespace

DiskStore::~DiskStore() {
  doc_.reset();  // The facade views the image; drop it before unmapping.
  if (mmap_backed() && image_ != nullptr) {
    ::munmap(const_cast<char*>(image_), file_bytes_);
  }
}

uint64_t DiskStore::ResidentBytes() const {
  if (!mmap_backed()) return file_bytes_;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((file_bytes_ + page - 1) / page);
  if (::mincore(const_cast<char*>(image_), file_bytes_, resident.data()) !=
      0) {
    return 0;
  }
  uint64_t bytes = 0;
  for (size_t i = 0; i < resident.size(); ++i) {
    if (resident[i] & 1) bytes += std::min(page, file_bytes_ - i * page);
  }
  return bytes;
}

Status DiskStore::LoadImage(int fd, const std::string& path,
                            bool full_validation) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (file_bytes_ < kBtsx2HeaderBytes) {
    return Status::InvalidArgument("BTSX2: '" + path +
                                   "' is smaller than the header");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_SHARED, fd, 0);
  if (map != MAP_FAILED) {
    image_ = static_cast<const char*>(map);
  } else {
    // No mapping available (exotic filesystems, sandboxes): fall back to an
    // in-core image — everything still works, just not out-of-core.
    heap_image_.reset(new char[file_bytes_]);
    image_ = heap_image_.get();
    if (!ReadFully(fd, heap_image_.get(), file_bytes_, 0)) {
      return Status::IOError("BTSX2: short read from '" + path + "'");
    }
  }

  Result<Btsx2View> view = MapBtsx2(std::string_view(image_, file_bytes_));
  BT_RETURN_NOT_OK(view.status());
  view_ = view.MoveValue();
  if (full_validation) {
    BT_RETURN_NOT_OK(ValidateBtsx2Deep(view_));
  }
  num_nodes_ = static_cast<size_t>(view_.num_nodes);

  doc_ = std::make_unique<xml::Document>();
  return doc_->AdoptExternal(view_.ToLayout());
}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& path,
                                                   DiskStoreOptions options) {
  auto store = std::unique_ptr<DiskStore>(new DiskStore());

  // Blocks are whole pages (and therefore whole records): no record
  // straddles a block boundary.
  size_t block = options.block_bytes;
  block = std::max<size_t>(block, kPageBytes);
  block = (block + kPageBytes - 1) & ~(kPageBytes - 1);
  store->nodes_per_block_ = block / sizeof(xml::PackedNodeRecord);

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  // A mapping outlives its descriptor: nothing reads through fd afterwards.
  Status loaded = store->LoadImage(fd, path, options.full_validation);
  ::close(fd);
  BT_RETURN_NOT_OK(loaded);
  store->num_blocks_ =
      (store->num_nodes_ + store->nodes_per_block_ - 1) /
      store->nodes_per_block_;

  // The `.btsi` sidecar rides along. Best-effort on open: a missing, stale
  // (generation mismatch after re-ingest), or corrupt sidecar leaves
  // index() null — plans fall back to scans.
  if (options.load_index) {
    auto index = index::LoadBtsi(index::BtsiSidecarPath(path));
    if (index.ok() &&
        (*index)->generation() == store->on_disk_generation() &&
        (*index)->Matches(*store->doc_)) {
      store->index_ = std::move(*index);
    }
  }
  return store;
}

}  // namespace storage
}  // namespace blossomtree
