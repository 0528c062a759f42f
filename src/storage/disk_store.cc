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

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

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
  if (mode_ == Mode::kMmap && image_ != nullptr && image_bytes_ > 0) {
    ::munmap(const_cast<char*>(image_), image_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::shared_ptr<const DiskStore::Block> DiskStore::PinBlock(
    size_t index) const {
  if (std::shared_ptr<const Block> hit = cache_->Get(index)) return hit;
  size_t first = index * nodes_per_block_;
  auto block = std::make_shared<Block>(
      std::min(nodes_per_block_, num_nodes_ - first));
  size_t bytes = block->size() * sizeof(NodeRecord);
  if (!ReadFully(fd_, reinterpret_cast<char*>(block->data()), bytes,
                 records_offset_ + first * sizeof(NodeRecord))) {
    // A read error mid-scan has no status channel through Get(); serve
    // zeroed records (subtree_end 0 terminates walks) rather than UB.
    std::fill(block->begin(), block->end(), NodeRecord{});
  }
  // Charge the block against the ResourceGuard budget; the cache evicts
  // LRU blocks round-robin until the reservation fits and drops the entry
  // entirely if it never can — our shared_ptr still pins it for the
  // caller's cursor either way, so budget < block_bytes degrades to
  // "nothing stays resident between cursor moves", not a failure.
  cache_->Put(index, block, bytes);
  return block;
}

uint64_t DiskStore::ResidentBytes() const {
  if (mode_ == Mode::kPread) return cache_->Stats().bytes;
  if (mode_ == Mode::kHeap) return file_bytes_;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((image_bytes_ + page - 1) / page);
  if (::mincore(const_cast<char*>(image_), image_bytes_, resident.data()) !=
      0) {
    return 0;
  }
  uint64_t bytes = 0;
  for (size_t i = 0; i < resident.size(); ++i) {
    if (resident[i] & 1) bytes += std::min(page, image_bytes_ - i * page);
  }
  return bytes;
}

Status DiskStore::LoadPreadHeader(const std::string& path) {
  char header[kBtsx2HeaderBytes];
  if (!ReadFully(fd_, header, sizeof header, 0)) {
    return Status::IOError("BTSX2: short header read from '" + path + "'");
  }
  if (std::memcmp(header, kBtsx2Magic, sizeof kBtsx2Magic) != 0) {
    return Status::InvalidArgument("BTSX2: bad magic in '" + path + "'");
  }
  if (GetU32(header + 8) != kBtsx2Version) {
    return Status::InvalidArgument("BTSX2: unsupported version");
  }
  if (GetU32(header + 12) != kBtsx2EndianProbe) {
    return Status::InvalidArgument("BTSX2: endianness probe mismatch");
  }
  on_disk_generation_ = GetU64(header + 16);
  uint64_t num_nodes = GetU64(header + 24);
  records_offset_ = GetU64(header + 88 + kSecRecords * 16);
  records_bytes_ = GetU64(header + 88 + kSecRecords * 16 + 8);
  if (num_nodes >= static_cast<uint32_t>(-1) ||
      records_bytes_ != num_nodes * sizeof(NodeRecord) ||
      records_offset_ < kBtsx2HeaderBytes ||
      records_offset_ > file_bytes_ ||
      records_bytes_ > file_bytes_ - records_offset_) {
    return Status::InvalidArgument("BTSX2: record section out of bounds");
  }
  num_nodes_ = static_cast<size_t>(num_nodes);
  // No document facade in pread mode; the scan API keys off the on-disk
  // stamp (see generation()).
  generation_ = on_disk_generation_;
  return Status::OK();
}

Status DiskStore::LoadImage(const std::string& path,
                            const DiskStoreOptions& options) {
  if (file_bytes_ < kBtsx2HeaderBytes) {
    return Status::InvalidArgument("BTSX2: '" + path +
                                   "' is smaller than the header");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_SHARED, fd_, 0);
  if (map != MAP_FAILED) {
    mode_ = Mode::kMmap;
    image_ = static_cast<const char*>(map);
    image_bytes_ = file_bytes_;
  } else {
    // No mapping available (exotic filesystems, sandboxes): fall back to an
    // in-core image — everything still works, just not out-of-core.
    mode_ = Mode::kHeap;
    heap_image_.reset(new char[file_bytes_]);
    if (!ReadFully(fd_, heap_image_.get(), file_bytes_, 0)) {
      return Status::IOError("BTSX2: short read from '" + path + "'");
    }
    image_ = heap_image_.get();
    ::close(fd_);
    fd_ = -1;
  }

  Result<Btsx2View> view = MapBtsx2(std::string_view(image_, file_bytes_));
  BT_RETURN_NOT_OK(view.status());
  view_ = view.MoveValue();
  if (options.full_validation) {
    BT_RETURN_NOT_OK(ValidateBtsx2Deep(view_));
  }
  records_bytes_ = view_.records_bytes;
  num_nodes_ = static_cast<size_t>(view_.num_nodes);
  on_disk_generation_ = view_.generation;

  doc_ = std::make_unique<xml::Document>();
  BT_RETURN_NOT_OK(doc_->AdoptExternal(view_.ToLayout()));
  generation_ = doc_->generation();
  return Status::OK();
}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& path,
                                                   DiskStoreOptions options) {
  auto store = std::unique_ptr<DiskStore>(new DiskStore());

  // Blocks are whole pages (and therefore whole records): no record
  // straddles a block boundary.
  size_t block = options.block_bytes;
  block = std::max<size_t>(block, kPageBytes);
  block = (block + kPageBytes - 1) & ~(kPageBytes - 1);
  store->nodes_per_block_ = block / sizeof(NodeRecord);
  store->budget_bytes_ = std::max<uint64_t>(options.cache_budget_bytes, 1);

  store->fd_ = ::open(path.c_str(), O_RDONLY);
  if (store->fd_ < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(store->fd_, &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  store->file_bytes_ = static_cast<uint64_t>(st.st_size);

  if (options.use_mmap) {
    BT_RETURN_NOT_OK(store->LoadImage(path, options));
  } else {
    store->mode_ = Mode::kPread;
    store->cache_ = std::make_unique<util::ShardedLruCache<uint64_t, Block>>(
        store->budget_bytes_, options.cache_shards);
    if (store->file_bytes_ < kBtsx2HeaderBytes) {
      return Status::InvalidArgument("BTSX2: '" + path +
                                     "' is smaller than the header");
    }
    BT_RETURN_NOT_OK(store->LoadPreadHeader(path));
  }
  store->num_blocks_ =
      static_cast<size_t>((store->records_bytes_ + block - 1) / block);

  // The `.btsi` sidecar rides along in the mapped modes. Best-effort on
  // open: a missing, stale (generation mismatch after re-ingest), or
  // corrupt sidecar leaves index() null — plans fall back to scans.
  if (options.load_index && store->doc_ != nullptr) {
    auto loaded = index::LoadBtsi(index::BtsiSidecarPath(path));
    if (loaded.ok() &&
        (*loaded)->generation() == store->on_disk_generation_ &&
        (*loaded)->Matches(*store->doc_)) {
      store->index_ = std::move(*loaded);
    }
  }
  return store;
}

}  // namespace storage
}  // namespace blossomtree
