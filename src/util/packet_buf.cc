#include "src/util/packet_buf.h"

#include <algorithm>

namespace upr {

const char* BufLayerName(BufLayer layer) {
  switch (layer) {
    case BufLayer::kTransport:
      return "transport";
    case BufLayer::kIp:
      return "ip";
    case BufLayer::kAx25:
      return "ax25";
    case BufLayer::kKiss:
      return "kiss";
    case BufLayer::kEther:
      return "ether";
    case BufLayer::kDriver:
      return "driver";
    case BufLayer::kOther:
      return "other";
  }
  return "?";
}

BufLayerStats& BufStatsFor(BufLayer layer) {
  return detail::BufStatsArray()[static_cast<int>(layer)];
}

BufLayerStats BufStatsTotal() {
  BufLayerStats total;
  for (int i = 0; i < kBufLayerCount; ++i) {
    const BufLayerStats& s = detail::BufStatsArray()[i];
    total.bytes_copied += s.bytes_copied;
    total.allocs += s.allocs;
    total.prepend_reallocs += s.prepend_reallocs;
  }
  return total;
}

void ResetBufStats() {
  for (int i = 0; i < kBufLayerCount; ++i) {
    detail::BufStatsArray()[i] = BufLayerStats{};
  }
}

namespace {

// The slab free list. Blocks are vectors whose capacity is exactly
// kBufSlabSize (they were first allocated by TakeStorage below), so a
// recycled block's resize() never reallocates. thread_local so each parallel
// city thread recycles its own slabs lock-free; a PacketBuf never crosses
// shards (a cross-shard handoff carries an owned Bytes instead).
thread_local std::vector<Bytes> g_buf_pool;
thread_local BufPoolStats g_buf_pool_stats;

// Storage for a PacketBuf needing `n` bytes: a parked slab when one fits,
// a fresh (counted) allocation otherwise. The returned vector has size n,
// zero-filled, matching what Bytes(n) would have produced.
Bytes TakeStorage(std::size_t n) {
  if (n <= kBufSlabSize) {
    if (!g_buf_pool.empty()) {
      Bytes b = std::move(g_buf_pool.back());
      g_buf_pool.pop_back();
      ++g_buf_pool_stats.hits;
      b.clear();
      b.resize(n);  // within capacity: memset only, no heap traffic
      return b;
    }
    ++g_buf_pool_stats.misses;
    BufNoteAlloc();
    Bytes b;
    b.reserve(kBufSlabSize);  // full slab so the block is poolable later
    b.resize(n);
    return b;
  }
  ++g_buf_pool_stats.oversize;
  BufNoteAlloc();
  return Bytes(n);
}

// Retires a PacketBuf's storage: slab-capacity blocks park on the free list
// (up to the depth cap); everything else goes back to the heap.
void PutStorage(Bytes&& b) {
  if (b.capacity() >= kBufSlabSize && b.capacity() <= 2 * kBufSlabSize &&
      g_buf_pool.size() < kBufPoolMaxDepth) {
    ++g_buf_pool_stats.recycled;
    g_buf_pool.push_back(std::move(b));
    return;
  }
  if (b.capacity() > 0) {
    ++g_buf_pool_stats.dropped;
  }
}

}  // namespace

BufPoolStats BufPoolSnapshot() { return g_buf_pool_stats; }

std::size_t BufPoolDepth() { return g_buf_pool.size(); }

void DrainBufPool() {
  g_buf_pool.clear();
  g_buf_pool.shrink_to_fit();
  g_buf_pool_stats = BufPoolStats{};
}

PacketBuf::PacketBuf(std::size_t headroom, std::size_t tailroom)
    : start_(headroom), end_(headroom) {
  if (headroom + tailroom > 0) {
    buf_ = TakeStorage(headroom + tailroom);
  }
}

PacketBuf::~PacketBuf() { PutStorage(std::move(buf_)); }

PacketBuf& PacketBuf::operator=(PacketBuf&& o) noexcept {
  if (this != &o) {
    PutStorage(std::move(buf_));
    buf_ = std::move(o.buf_);
    start_ = o.start_;
    end_ = o.end_;
    o.buf_.clear();
    o.start_ = o.end_ = 0;
  }
  return *this;
}

PacketBuf PacketBuf::FromView(ByteView payload, std::size_t headroom,
                              std::size_t tailroom) {
  PacketBuf p(headroom, payload.size() + tailroom);
  p.Append(payload);
  return p;
}

PacketBuf PacketBuf::Adopt(Bytes&& owned) {
  PacketBuf p(0, 0);
  p.buf_ = std::move(owned);
  p.start_ = 0;
  p.end_ = p.buf_.size();
  return p;
}

void PacketBuf::Grow(std::size_t front, std::size_t back) {
  // Reallocate with the requested extra room plus a default-headroom cushion
  // on the side that ran out, and move the data once (counted).
  std::size_t new_front = start_ + front + (front > 0 ? kDefaultHeadroom : 0);
  std::size_t data_len = size();
  std::size_t new_back = (buf_.size() - end_) + back + (back > 0 ? kDefaultHeadroom : 0);
  Bytes grown = TakeStorage(new_front + data_len + new_back);
  if (data_len > 0) {  // empty buffer may have null data(); memcpy forbids it
    std::memcpy(grown.data() + new_front, data(), data_len);
  }
  PutStorage(std::move(buf_));
  buf_ = std::move(grown);
  start_ = new_front;
  end_ = new_front + data_len;
  BufNoteCopy(data_len);
}

std::uint8_t* PacketBuf::Prepend(std::size_t n) {
  if (n > start_) {
    ++detail::CurrentBufStats().prepend_reallocs;
    Grow(n - start_, 0);
  }
  start_ -= n;
  return buf_.data() + start_;
}

void PacketBuf::Prepend(ByteView b) {
  std::uint8_t* dst = Prepend(b.size());
  if (!b.empty()) {
    std::memcpy(dst, b.data(), b.size());
    BufNoteCopy(b.size());
  }
}

std::uint8_t* PacketBuf::Append(std::size_t n) {
  if (end_ + n > buf_.size()) {
    Grow(0, end_ + n - buf_.size());
  }
  std::uint8_t* dst = buf_.data() + end_;
  end_ += n;
  return dst;
}

void PacketBuf::Append(ByteView b) {
  std::uint8_t* dst = Append(b.size());
  if (!b.empty()) {
    std::memcpy(dst, b.data(), b.size());
    BufNoteCopy(b.size());
  }
}

void PacketBuf::TrimFront(std::size_t n) { start_ += std::min(n, size()); }

void PacketBuf::TrimBack(std::size_t n) { end_ -= std::min(n, size()); }

Bytes PacketBuf::ToBytes() const {
  if (!empty()) {
    BufNoteAlloc();
    BufNoteCopy(size());
  }
  return Bytes(data(), data() + size());
}

Bytes PacketBuf::Release() {
  Bytes out;
  if (start_ == 0 && end_ == buf_.size()) {
    out = std::move(buf_);
  } else {
    out = ToBytes();
  }
  buf_.clear();
  start_ = end_ = 0;
  return out;
}

}  // namespace upr
