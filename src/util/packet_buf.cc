#include "src/util/packet_buf.h"

#include <algorithm>
#include <mutex>

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

namespace {

// Every live group, for the process-wide readers.
struct Registry {
  std::mutex mu;
  std::vector<BufContextGroup*> groups;  // guarded by mu
};
Registry& Groups() {
  static Registry registry;
  return registry;
}

BufContext& ThreadContext() {
  static thread_local BufContext context;
  return context;
}

// Calls fn on the calling thread's context and on every live group's.
template <typename Fn>
void ForEachContext(Fn fn) {
  fn(ThreadContext());
  Registry& registry = Groups();
  std::lock_guard<std::mutex> lk(registry.mu);
  for (BufContextGroup* group : registry.groups) {
    for (BufContext& c : group->contexts()) {
      fn(c);
    }
  }
}

void Add(BufLayerStats* total, const BufLayerStats& s) {
  total->bytes_copied += s.bytes_copied;
  total->allocs += s.allocs;
  total->prepend_reallocs += s.prepend_reallocs;
}

// Storage for a PacketBuf needing `n` bytes: a parked slab when one fits,
// a fresh (counted) allocation otherwise. The returned vector has size n,
// zero-filled, matching what Bytes(n) would have produced. Parked blocks
// have capacity of at least kBufSlabSize (they were first allocated here),
// so a recycled block's resize() never reallocates.
Bytes TakeStorage(std::size_t n) {
  BufContext& ctx = detail::CurrentContext();
  if (n <= kBufSlabSize) {
    if (!ctx.pool.empty()) {
      Bytes b = std::move(ctx.pool.back());
      ctx.pool.pop_back();
      ++ctx.pool_stats.hits;
      b.clear();
      b.resize(n);  // within capacity: memset only, no heap traffic
      return b;
    }
    ++ctx.pool_stats.misses;
    BufNoteAlloc();
    Bytes b;
    b.reserve(kBufSlabSize);  // full slab so the block is poolable later
    b.resize(n);
    return b;
  }
  ++ctx.pool_stats.oversize;
  BufNoteAlloc();
  return Bytes(n);
}

// Retires a PacketBuf's storage: slab-capacity blocks park on the free list
// (up to the depth cap); everything else goes back to the heap. A block may
// park in another context than the one it came from (a cross-shard handoff
// carries an owned Bytes, which the far shard adopts); either way only the
// thread running a context touches its list.
void PutStorage(Bytes&& b) {
  if (b.capacity() == 0) {
    return;  // moved-from or never allocated
  }
  BufContext& ctx = detail::CurrentContext();
  if (b.capacity() >= kBufSlabSize && b.capacity() <= 2 * kBufSlabSize &&
      ctx.pool.size() < kBufPoolMaxDepth) {
    ++ctx.pool_stats.recycled;
    ctx.pool.push_back(std::move(b));
    return;
  }
  ++ctx.pool_stats.dropped;
}

}  // namespace

BufContext* detail::InstallThreadContext() {
  ContextSlot() = &ThreadContext();
  return ContextSlot();
}

BufContextGroup::BufContextGroup(std::size_t contexts) : contexts_(contexts) {
  Registry& registry = Groups();
  std::lock_guard<std::mutex> lk(registry.mu);
  registry.groups.push_back(this);
}

BufContextGroup::~BufContextGroup() {
  Registry& registry = Groups();
  std::lock_guard<std::mutex> lk(registry.mu);
  std::erase(registry.groups, this);
}

BufLayerStats BufStatsFor(BufLayer layer) {
  BufLayerStats total;
  ForEachContext([&](const BufContext& c) {
    Add(&total, c.layers[static_cast<int>(layer)]);
  });
  return total;
}

BufLayerStats BufStatsTotal() {
  BufLayerStats total;
  ForEachContext([&](const BufContext& c) {
    for (const BufLayerStats& s : c.layers) {
      Add(&total, s);
    }
  });
  return total;
}

void ResetBufStats() {
  ForEachContext([](BufContext& c) {
    for (BufLayerStats& s : c.layers) {
      s = BufLayerStats{};
    }
  });
}

BufPoolStats BufPoolSnapshot() {
  BufPoolStats total;
  ForEachContext([&](const BufContext& c) {
    total.hits += c.pool_stats.hits;
    total.misses += c.pool_stats.misses;
    total.oversize += c.pool_stats.oversize;
    total.recycled += c.pool_stats.recycled;
    total.dropped += c.pool_stats.dropped;
  });
  return total;
}

std::size_t BufPoolDepth() {
  std::size_t depth = 0;
  ForEachContext([&](const BufContext& c) { depth += c.pool.size(); });
  return depth;
}

void DrainBufPool() {
  ForEachContext([](BufContext& c) {
    c.pool.clear();
    c.pool.shrink_to_fit();
    c.pool_stats = BufPoolStats{};
  });
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
