#include "bptree/node.h"

#include "common/coding.h"

namespace spb {

void BptNode::SerializeTo(Page* page) const {
  page->Clear();
  uint8_t* dst = page->bytes();
  dst[0] = is_leaf ? 1 : 0;
  dst[1] = 0;
  EncodeFixed16(dst + 2, static_cast<uint16_t>(size()));
  dst += kHeaderSize;
  if (is_leaf) {
    for (const LeafEntry& e : leaf_entries) {
      EncodeFixed64(dst, e.key);
      EncodeFixed64(dst + 8, e.ptr);
      dst += kLeafEntrySize;
    }
  } else {
    for (const InternalEntry& e : internal_entries) {
      EncodeFixed64(dst, e.key);
      EncodeFixed32(dst + 8, e.child);
      EncodeFixed64(dst + 12, e.mbb_min);
      EncodeFixed64(dst + 20, e.mbb_max);
      dst += kInternalEntrySize;
    }
  }
}

Status BptNode::DeserializeFrom(const Page& page, PageId page_id) {
  const uint8_t* src = page.bytes();
  id = page_id;
  is_leaf = src[0] != 0;
  const uint16_t count = DecodeFixed16(src + 2);
  src += kHeaderSize;
  leaf_entries.clear();
  internal_entries.clear();
  if (is_leaf) {
    if (count > kLeafCapacity) return Status::Corruption("leaf overfull");
    leaf_entries.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      leaf_entries.push_back(
          LeafEntry{DecodeFixed64(src), DecodeFixed64(src + 8)});
      src += kLeafEntrySize;
    }
  } else {
    if (count > kInternalCapacity) {
      return Status::Corruption("internal node overfull");
    }
    internal_entries.reserve(count);
    for (uint16_t i = 0; i < count; ++i) {
      internal_entries.push_back(InternalEntry{
          DecodeFixed64(src), DecodeFixed32(src + 8), DecodeFixed64(src + 12),
          DecodeFixed64(src + 20)});
      src += kInternalEntrySize;
    }
  }
  return Status::OK();
}

}  // namespace spb
