#include "storage/btsx2.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <vector>

namespace blossomtree {
namespace storage {

namespace {

constexpr uint32_t kU32Max = static_cast<uint32_t>(-1);

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

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

double GetF64(const char* p) {
  uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

uint64_t Align16(uint64_t v) { return (v + 15) & ~uint64_t{15}; }

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("BTSX2: " + what);
}

/// The raw bytes of `count` fixed-width entries starting at `p`.
template <typename T>
std::string_view SectionBytes(const T* p, size_t count) {
  static_assert(std::has_unique_object_representations_v<T>,
                "sections are written byte-for-byte, padding-free");
  return {reinterpret_cast<const char*>(p), count * sizeof(T)};
}

}  // namespace

xml::ExternalLayout Btsx2View::ToLayout() const {
  xml::ExternalLayout layout;
  layout.num_nodes = static_cast<size_t>(num_nodes);
  layout.records = records;
  layout.parent = parent;
  layout.text_spans = text_spans;
  layout.num_text_spans = static_cast<size_t>(num_text_spans);
  layout.text_pool = text_pool;
  layout.text_pool_bytes = static_cast<size_t>(text_pool_bytes);
  layout.attr_owners = attr_owners;
  layout.num_attr_owners = static_cast<size_t>(num_attr_owners);
  layout.attrs = attrs;
  layout.num_attrs = static_cast<size_t>(num_attrs);
  layout.tag_recursion = tag_recursion;
  layout.tag_stream_offsets = tag_stream_offsets;
  layout.tag_streams = tag_streams;
  layout.tag_names = tag_names;
  layout.num_elements = static_cast<size_t>(num_elements);
  layout.max_depth = max_depth;
  layout.avg_depth = avg_depth;
  layout.max_recursion = max_recursion;
  return layout;
}

Result<std::string> EncodeBtsx2(const xml::Document& doc) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unsupported(
        "BTSX2: writing the packed layout requires a little-endian host");
  }
  if (doc.generation() == 0) {
    return Status::InvalidArgument(
        "BTSX2: document must be Finish()ed before encoding");
  }
  // A finished document already holds every section in the file's layout
  // (Finish() refused anything past the 32-bit limits); only the tag
  // dictionary is re-serialized.
  const xml::ExternalLayout& v = doc.Layout();
  std::string tag_dict;
  for (xml::TagId t = 0; t < doc.tags().size(); ++t) {
    const std::string& name = doc.tags().Name(t);
    PutU32(&tag_dict, static_cast<uint32_t>(name.size()));
    tag_dict.append(name);
  }
  const std::string_view sections[kBtsx2NumSections] = {
      tag_dict,
      SectionBytes(v.records, v.num_nodes),
      SectionBytes(v.parent, v.num_nodes),
      SectionBytes(v.text_spans, v.num_text_spans),
      std::string_view(v.text_pool, v.text_pool_bytes),
      SectionBytes(v.attr_owners, v.num_attr_owners),
      SectionBytes(v.attrs, v.num_attrs),
      SectionBytes(v.tag_recursion, v.num_tags),
      SectionBytes(v.tag_stream_offsets, v.num_tags + 1),
      SectionBytes(v.tag_streams, v.num_elements)};

  // Lay the sections out 16-byte aligned and assemble the header.
  uint64_t offsets[kBtsx2NumSections];
  uint64_t pos = kBtsx2HeaderBytes;
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    pos = Align16(pos);
    offsets[i] = pos;
    pos += sections[i].size();
  }

  std::string out;
  out.reserve(static_cast<size_t>(pos));
  out.append(kBtsx2Magic, sizeof kBtsx2Magic);
  PutU32(&out, kBtsx2Version);
  PutU32(&out, kBtsx2EndianProbe);
  PutU64(&out, doc.generation());
  PutU64(&out, v.num_nodes);
  PutU64(&out, v.num_elements);
  PutU64(&out, v.num_tags);
  PutU64(&out, v.num_text_spans);
  PutU64(&out, v.num_attr_owners);
  PutU64(&out, v.num_attrs);
  PutU32(&out, doc.MaxDepth());
  PutU32(&out, doc.MaxRecursionDegree());
  PutF64(&out, doc.AvgDepth());
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i].size());
  }
  out.resize(kBtsx2HeaderBytes, '\0');
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    out.resize(static_cast<size_t>(offsets[i]), '\0');
    out.append(sections[i]);
  }
  return out;
}

Status WriteBtsx2(const xml::Document& doc, const std::string& path) {
  Result<std::string> encoded = EncodeBtsx2(doc);
  BT_RETURN_NOT_OK(encoded.status());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  out.write(encoded->data(), static_cast<std::streamsize>(encoded->size()));
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<Btsx2View> MapBtsx2(std::string_view image) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unsupported(
        "BTSX2: zero-copy mapping requires a little-endian host");
  }
  if (image.size() < kBtsx2HeaderBytes) {
    return Corrupt("image smaller than the header");
  }
  const char* p = image.data();
  // The section-offset alignment checks below are relative to the image
  // base; the typed views handed out only stay aligned if the base itself
  // is 16-byte aligned. mmap'd images always are (page-aligned) and the
  // heap fallback allocates with operator new[]; reject anything
  // else cleanly instead of handing out misaligned typed pointers (UB).
  if (reinterpret_cast<uintptr_t>(p) % 16 != 0) {
    return Corrupt("image base not 16-byte aligned");
  }
  if (std::memcmp(p, kBtsx2Magic, sizeof kBtsx2Magic) != 0) {
    return Corrupt("bad magic");
  }
  if (GetU32(p + 8) != kBtsx2Version) return Corrupt("unsupported version");
  if (GetU32(p + 12) != kBtsx2EndianProbe) {
    return Corrupt("endianness probe mismatch");
  }

  Btsx2View view;
  view.generation = GetU64(p + 16);
  view.num_nodes = GetU64(p + 24);
  view.num_elements = GetU64(p + 32);
  view.num_tags = GetU64(p + 40);
  view.num_text_spans = GetU64(p + 48);
  view.num_attr_owners = GetU64(p + 56);
  view.num_attrs = GetU64(p + 64);
  view.max_depth = GetU32(p + 72);
  view.max_recursion = GetU32(p + 76);
  view.avg_depth = GetF64(p + 80);

  if (view.generation == 0) return Corrupt("zero generation stamp");
  if (view.num_nodes >= kU32Max || view.num_tags >= kU32Max ||
      view.num_attrs >= kU32Max) {
    return Corrupt("counts exceed 32-bit ids");
  }
  // Every attr owner owns at least one attribute, so owners <= attrs.
  if (view.num_elements > view.num_nodes ||
      view.num_text_spans > view.num_nodes ||
      view.num_attr_owners > view.num_nodes ||
      view.num_attr_owners > view.num_attrs) {
    return Corrupt("implausible counts");
  }

  // Section table: offsets in bounds, aligned, and sized exactly as the
  // counts dictate (the text pool and tag dictionary are free-form; their
  // sizes come from the table itself).
  uint64_t offs[kBtsx2NumSections];
  uint64_t sizes[kBtsx2NumSections];
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    offs[i] = GetU64(p + 88 + i * 16);
    sizes[i] = GetU64(p + 88 + i * 16 + 8);
    if (offs[i] < kBtsx2HeaderBytes || offs[i] > image.size() ||
        sizes[i] > image.size() - offs[i]) {
      return Corrupt("section out of bounds");
    }
    if (offs[i] % 16 != 0) return Corrupt("misaligned section");
  }
  const uint64_t expect[kBtsx2NumSections] = {
      sizes[kSecTagDict],  // free-form, validated by parsing below
      view.num_nodes * sizeof(xml::PackedNodeRecord),
      view.num_nodes * sizeof(xml::NodeId),
      view.num_text_spans * sizeof(xml::ExternalTextSpan),
      sizes[kSecTextPool],  // free-form
      view.num_attr_owners * sizeof(xml::ExternalAttrOwner),
      view.num_attrs * sizeof(xml::Attribute),
      view.num_tags * sizeof(uint32_t),
      (view.num_tags + 1) * sizeof(uint64_t),
      view.num_elements * sizeof(xml::NodeId)};
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    if (sizes[i] != expect[i]) return Corrupt("section size mismatch");
  }
  if (sizes[kSecTextPool] > kU32Max) {
    return Corrupt("text pool exceeds 32-bit offsets");
  }
  // The image must end exactly where the last section does — trailing bytes
  // mean a concatenated or corrupt file, not padding.
  uint64_t end = kBtsx2HeaderBytes;
  for (size_t i = 0; i < kBtsx2NumSections; ++i) {
    end = std::max(end, offs[i] + sizes[i]);
  }
  if (image.size() != end) return Corrupt("trailing bytes after last section");

  // Tag dictionary: names must consume the section exactly.
  {
    const char* d = p + offs[kSecTagDict];
    uint64_t remaining = sizes[kSecTagDict];
    view.tag_names.reserve(static_cast<size_t>(view.num_tags));
    for (uint64_t t = 0; t < view.num_tags; ++t) {
      if (remaining < 4) return Corrupt("truncated tag dictionary");
      uint32_t len = GetU32(d);
      d += 4;
      remaining -= 4;
      if (len > remaining) return Corrupt("tag name out of bounds");
      view.tag_names.emplace_back(d, len);
      d += len;
      remaining -= len;
    }
    if (remaining != 0) return Corrupt("trailing bytes in tag dictionary");
  }

  view.records =
      reinterpret_cast<const xml::PackedNodeRecord*>(p + offs[kSecRecords]);
  view.parent = reinterpret_cast<const xml::NodeId*>(p + offs[kSecParent]);
  view.text_spans =
      reinterpret_cast<const xml::ExternalTextSpan*>(p + offs[kSecTextSpans]);
  view.text_pool = p + offs[kSecTextPool];
  view.text_pool_bytes = sizes[kSecTextPool];
  view.attr_owners =
      reinterpret_cast<const xml::ExternalAttrOwner*>(p + offs[kSecAttrOwners]);
  view.attrs = reinterpret_cast<const xml::Attribute*>(p + offs[kSecAttrs]);
  view.tag_recursion =
      reinterpret_cast<const uint32_t*>(p + offs[kSecTagRecursion]);
  view.tag_stream_offsets =
      reinterpret_cast<const uint64_t*>(p + offs[kSecTagStreamOffsets]);
  view.tag_streams =
      reinterpret_cast<const xml::NodeId*>(p + offs[kSecTagStreams]);
  view.records_bytes = sizes[kSecRecords];

  // Tag-stream prefix offsets: monotone and exhaustive. O(#tags), so still
  // O(open); everything O(n) is deferred to ValidateBtsx2Deep.
  if (view.tag_stream_offsets[0] != 0 ||
      view.tag_stream_offsets[view.num_tags] != view.num_elements) {
    return Corrupt("tag stream offsets do not cover the elements");
  }
  for (uint64_t t = 0; t < view.num_tags; ++t) {
    if (view.tag_stream_offsets[t] > view.tag_stream_offsets[t + 1]) {
      return Corrupt("tag stream offsets not monotone");
    }
  }
  return view;
}

Status ValidateBtsx2Deep(const Btsx2View& v) {
  const size_t n = static_cast<size_t>(v.num_nodes);
  if (n == 0) {
    if (v.num_elements != 0 || v.num_text_spans != 0 || v.num_attrs != 0 ||
        v.num_attr_owners != 0) {
      return Corrupt("empty document with non-empty tables");
    }
    return Status::OK();
  }

  // One preorder pass over the records with an explicit ancestor stack:
  // verifies nesting, levels, parents, text refs, and element/tag counts.
  if (v.records[0].level != 0 || v.records[0].tag == xml::kNullTag ||
      v.records[0].subtree_end != n - 1) {
    return Corrupt("root record malformed");
  }
  std::vector<xml::NodeId> stack;
  uint64_t elements = 0;
  uint32_t text_refs = 0;
  uint32_t max_depth = 0;
  for (size_t i = 0; i < n; ++i) {
    const xml::PackedNodeRecord& r = v.records[i];
    xml::NodeId id = static_cast<xml::NodeId>(i);
    while (!stack.empty() && v.records[stack.back()].subtree_end < id) {
      stack.pop_back();
    }
    xml::NodeId expect_parent =
        stack.empty() ? xml::kNullNode : stack.back();
    if (v.parent[i] != expect_parent) return Corrupt("parent mismatch");
    if (r.level != stack.size()) return Corrupt("level mismatch");
    if (r.subtree_end < id || r.subtree_end >= n) {
      return Corrupt("subtree extent out of bounds");
    }
    if (!stack.empty() &&
        r.subtree_end > v.records[stack.back()].subtree_end) {
      return Corrupt("subtree extents not nested");
    }
    if (r.tag == xml::kNullTag) {
      // Text node: a leaf whose text_ref numbers text nodes in document
      // order.
      if (r.subtree_end != id) return Corrupt("text node with children");
      if (r.text_ref != text_refs || r.text_ref >= v.num_text_spans) {
        return Corrupt("text ref out of order");
      }
      ++text_refs;
      const xml::ExternalTextSpan& s = v.text_spans[r.text_ref];
      if (static_cast<uint64_t>(s.offset) + s.length > v.text_pool_bytes) {
        return Corrupt("text span out of bounds");
      }
    } else {
      if (r.tag >= v.num_tags) return Corrupt("tag id out of bounds");
      if (r.text_ref != static_cast<uint32_t>(-1)) {
        return Corrupt("element with text ref");
      }
      ++elements;
      max_depth = std::max(max_depth, r.level + 1);
      stack.push_back(id);
    }
  }
  if (elements != v.num_elements) return Corrupt("element count mismatch");
  if (text_refs != v.num_text_spans) return Corrupt("text span count mismatch");
  if (max_depth != v.max_depth) return Corrupt("max depth mismatch");

  // Attribute tables: owners strictly ascending element ids, ranges
  // contiguous and exhaustive, strings inside the pool.
  uint32_t next_attr = 0;
  for (uint64_t i = 0; i < v.num_attr_owners; ++i) {
    const xml::ExternalAttrOwner& o = v.attr_owners[i];
    if (o.node >= n || v.records[o.node].tag == xml::kNullTag) {
      return Corrupt("attr owner is not an element");
    }
    if (i > 0 && o.node <= v.attr_owners[i - 1].node) {
      return Corrupt("attr owners not sorted");
    }
    if (o.first != next_attr || o.last <= o.first || o.last > v.num_attrs) {
      return Corrupt("attr ranges not contiguous");
    }
    next_attr = o.last;
  }
  if (next_attr != v.num_attrs) return Corrupt("attr count mismatch");
  for (uint64_t i = 0; i < v.num_attrs; ++i) {
    const xml::Attribute& a = v.attrs[i];
    if (static_cast<uint64_t>(a.name_offset) + a.name_len >
            v.text_pool_bytes ||
        static_cast<uint64_t>(a.value_offset) + a.value_len >
            v.text_pool_bytes) {
      return Corrupt("attribute string out of bounds");
    }
  }

  // Per-tag streams: each sorted, each entry an element of that tag. The
  // offsets were bounds-checked by MapBtsx2.
  for (uint64_t t = 0; t < v.num_tags; ++t) {
    for (uint64_t i = v.tag_stream_offsets[t]; i < v.tag_stream_offsets[t + 1];
         ++i) {
      xml::NodeId id = v.tag_streams[i];
      if (id >= n || v.records[id].tag != t) {
        return Corrupt("tag stream entry mismatch");
      }
      if (i > v.tag_stream_offsets[t] && id <= v.tag_streams[i - 1]) {
        return Corrupt("tag stream not sorted");
      }
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace blossomtree
