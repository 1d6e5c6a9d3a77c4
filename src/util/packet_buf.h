// PacketBuf — the mbuf/skb-style packet buffer carried end-to-end through the
// TX and RX datapaths.
//
// The paper's driver lives inside 4.3BSD, where an outgoing packet is built
// once and every lower layer *prepends* its header into mbuf headroom instead
// of re-serializing the packet. PacketBuf reproduces that discipline:
//
//   [ headroom | data | tailroom ]
//
// A transport builds its segment in a PacketBuf with generous headroom; IP,
// AX.25 and the Ethernet header are then prepended in place; KISS escaping is
// the single wire-write at the very edge. On input, decoders parse over
// non-owning ByteView spans with offset bookkeeping and the buffer itself is
// handed from layer to layer by move.
//
// Every buffer operation is attributed to the protocol layer named by the
// innermost BufLayerScope, so `uprsim --netstat` (and bench_e8_copy_path) can
// report bytes-copied / allocations / prepend-reallocations per layer.
#ifndef SRC_UTIL_PACKET_BUF_H_
#define SRC_UTIL_PACKET_BUF_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/byte_buffer.h"

namespace upr {

// Datapath layers for buffer-operation accounting.
enum class BufLayer : int {
  kTransport = 0,  // TCP / UDP / ICMP segment building
  kIp,             // IPv4 encode/decode/forward/fragment
  kAx25,           // AX.25 frame codec
  kKiss,           // KISS framing (wire write)
  kEther,          // Ethernet framing
  kDriver,         // packet radio / VC drivers
  kOther,          // unattributed (default scope)
};
inline constexpr int kBufLayerCount = 7;

const char* BufLayerName(BufLayer layer);

struct BufLayerStats {
  std::uint64_t bytes_copied = 0;      // payload bytes memcpy'd between buffers
  std::uint64_t allocs = 0;            // fresh buffer allocations / regrowths
  std::uint64_t prepend_reallocs = 0;  // prepends that exhausted headroom
};

// --- Buffer contexts ---------------------------------------------------------
//
// The gateway's forward path makes exactly one owned allocation per relayed
// frame (FromView in the driver RX handler). Under load that is one
// malloc/free per packet — the 4.3BSD answer was the mbuf free list, and this
// is ours: retired PacketBuf storage of the common size class parks on a
// free list and the next construction reuses it instead of touching the heap.
//
// A request of at most kBufSlabSize bytes is served from the free list when
// one is parked (a *hit* — not counted as an alloc in BufLayerStats, since
// the heap is never involved). Larger requests, and requests that find the
// list empty, allocate as before. Storage returns to the list when a
// PacketBuf holding a slab-capacity block is destroyed; beyond
// kBufPoolMaxDepth blocks the return is dropped to the heap so an idle
// process does not hoard.
inline constexpr std::size_t kBufSlabSize = 512;
inline constexpr std::size_t kBufPoolMaxDepth = 256;

struct BufPoolStats {
  std::uint64_t hits = 0;      // constructions served from the free list
  std::uint64_t misses = 0;    // slab-sized requests with an empty list
  std::uint64_t oversize = 0;  // requests too large for a slab
  std::uint64_t recycled = 0;  // blocks parked back on the free list
  std::uint64_t dropped = 0;   // retiring blocks freed (pool full/odd size)
};

// The buffer state that buffer operations touch: per-layer counters, the
// slab free list and its counters. Every thread has its own, which a
// standalone Simulator uses. A ShardSet gives each shard one (a
// BufContextGroup) and installs it on whichever thread runs the shard, so
// what a shard counts and recycles does not depend on that thread. Only one
// thread uses a context at a time, so nothing in it is synchronized; the
// alignment keeps two shards' contexts off one cache line.
struct alignas(64) BufContext {
  BufLayerStats layers[kBufLayerCount];
  BufPoolStats pool_stats;
  std::vector<Bytes> pool;  // parked slab-capacity blocks
};

// One context per shard of a ShardSet, counted by the readers below for as
// long as the group lives.
class BufContextGroup {
 public:
  explicit BufContextGroup(std::size_t contexts);
  ~BufContextGroup();
  BufContextGroup(const BufContextGroup&) = delete;
  BufContextGroup& operator=(const BufContextGroup&) = delete;

  std::vector<BufContext>& contexts() { return contexts_; }

 private:
  std::vector<BufContext> contexts_;
};

// Readers and resets over every context: the calling thread's own and every
// live group's. Call them while no ShardSet is running.
BufLayerStats BufStatsFor(BufLayer layer);
BufLayerStats BufStatsTotal();
void ResetBufStats();
BufPoolStats BufPoolSnapshot();
std::size_t BufPoolDepth();  // blocks currently parked
// Frees every parked block and zeroes the pool counters (benches use this to
// isolate phases).
void DrainBufPool();

namespace detail {
// Function-local thread_locals behind inline accessors, NOT
// `extern thread_local` variables: header-inline code touching an extern
// TLS variable goes through the compiler's TLS wrapper and trips a GCC
// UBSan false positive ("store to null pointer"). With the definition
// visible here the access compiles to a plain TLS load and still inlines
// into the per-packet hot path.
inline BufContext*& ContextSlot() {
  static thread_local BufContext* context = nullptr;
  return context;
}
// Points the slot at the calling thread's own context and returns it.
BufContext* InstallThreadContext();
inline BufContext& CurrentContext() {
  BufContext* context = ContextSlot();
  if (context == nullptr) [[unlikely]] {
    context = InstallThreadContext();
  }
  return *context;
}
inline BufLayer& CurrentLayer() {
  static thread_local BufLayer layer = BufLayer::kOther;
  return layer;
}

inline BufLayerStats& CurrentBufStats() {
  return CurrentContext().layers[static_cast<int>(CurrentLayer())];
}
}  // namespace detail

// RAII scope making `context` the calling thread's buffer context; the one
// it replaced comes back at scope exit.
class BufContextScope {
 public:
  explicit BufContextScope(BufContext* context) : prev_(detail::ContextSlot()) {
    detail::ContextSlot() = context;
  }
  ~BufContextScope() { detail::ContextSlot() = prev_; }
  BufContextScope(const BufContextScope&) = delete;
  BufContextScope& operator=(const BufContextScope&) = delete;

 private:
  BufContext* prev_;
};

// RAII scope attributing buffer operations to `layer`. Nest freely; the
// innermost scope wins.
class BufLayerScope {
 public:
  explicit BufLayerScope(BufLayer layer) : prev_(detail::CurrentLayer()) {
    detail::CurrentLayer() = layer;
  }
  ~BufLayerScope() { detail::CurrentLayer() = prev_; }
  BufLayerScope(const BufLayerScope&) = delete;
  BufLayerScope& operator=(const BufLayerScope&) = delete;

 private:
  BufLayer prev_;
};

// Manual accounting hooks for code that manages its own buffers (e.g. the
// KISS escape writer, the TNC copying a host frame onto its MAC queue).
inline void BufNoteCopy(std::size_t n) {
  detail::CurrentBufStats().bytes_copied += n;
}
inline void BufNoteAlloc() { ++detail::CurrentBufStats().allocs; }

class PacketBuf {
 public:
  static constexpr std::size_t kDefaultHeadroom = 128;

  // Default: empty with no storage — free to construct, meant to be assigned
  // into. (A Prepend/Append on it grows as usual.)
  PacketBuf() = default;
  // Empty buffer with reserved headroom (for prepends) and tailroom (for
  // appends). Served from the slab free list when it fits; otherwise one
  // allocation, counted.
  explicit PacketBuf(std::size_t headroom, std::size_t tailroom = 0);
  // Retires the storage to the slab free list when it is slab-sized.
  ~PacketBuf();

  PacketBuf(PacketBuf&&) noexcept = default;
  PacketBuf& operator=(PacketBuf&& o) noexcept;
  PacketBuf(const PacketBuf&) = delete;
  PacketBuf& operator=(const PacketBuf&) = delete;

  // Buffer whose data is a copy of `payload`, with reserved headroom.
  static PacketBuf FromView(ByteView payload,
                            std::size_t headroom = kDefaultHeadroom,
                            std::size_t tailroom = 0);
  static PacketBuf FromBytes(const Bytes& payload,
                             std::size_t headroom = kDefaultHeadroom,
                             std::size_t tailroom = 0) {
    return FromView(ByteView(payload), headroom, tailroom);
  }
  // Adopts `owned` as the data with zero copy and zero headroom. A later
  // Prepend will pay one prepend-realloc; use FromView when a prepend is
  // known to follow.
  static PacketBuf Adopt(Bytes&& owned);

  std::size_t size() const { return end_ - start_; }
  bool empty() const { return end_ == start_; }
  const std::uint8_t* data() const { return buf_.data() + start_; }
  std::uint8_t* data() { return buf_.data() + start_; }
  ByteView view() const { return ByteView(data(), size()); }

  std::size_t Headroom() const { return start_; }
  std::size_t Tailroom() const { return buf_.size() - end_; }

  // Extends the front by `n` bytes and returns a pointer to the new front for
  // the caller to serialize a header into (skb_push). Grows (counted as a
  // prepend-realloc) when headroom is exhausted.
  std::uint8_t* Prepend(std::size_t n);
  // Prepends a copy of `b` (counted as copied bytes).
  void Prepend(ByteView b);
  void Prepend(const std::uint8_t* d, std::size_t n) { Prepend(ByteView(d, n)); }

  // Extends the tail by `n` bytes and returns a pointer to the new region
  // (skb_put). Grows when tailroom is exhausted.
  std::uint8_t* Append(std::size_t n);
  void Append(ByteView b);
  void Append(const std::uint8_t* d, std::size_t n) { Append(ByteView(d, n)); }

  // Removes `n` bytes from the front (skb_pull) / tail (skb_trim); clamps to
  // size(). Pure offset bookkeeping, no copying.
  void TrimFront(std::size_t n);
  void TrimBack(std::size_t n);

  // Copies the data out (counted).
  Bytes ToBytes() const;
  // Moves the underlying storage out when the data occupies it exactly
  // (zero-copy); otherwise equivalent to ToBytes(). Leaves the buffer empty.
  Bytes Release();

 private:
  void Grow(std::size_t front, std::size_t back);

  Bytes buf_;
  std::size_t start_ = 0;  // offset of first data byte
  std::size_t end_ = 0;    // offset past the last data byte
};

}  // namespace upr

#endif  // SRC_UTIL_PACKET_BUF_H_
