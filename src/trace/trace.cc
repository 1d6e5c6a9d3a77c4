#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/sim/shard_exec.h"
#include "src/trace/pcapng_writer.h"
#include "src/util/panic.h"

namespace upr::trace {

void Install(Tracer* t) {
  detail::TracerSlot() = t;
  // The ROADMAP's ring-buffer assertion hook: any failed invariant anywhere
  // in the library dumps the flight recorder before the process dies, not
  // just uprsim workload failures. Registered once; a no-op while no tracer
  // is installed.
  static int panic_hook = AddPanicHook([] { DumpActiveRing(stderr); });
  (void)panic_hook;
}

void Uninstall(Tracer* t) {
  if (detail::TracerSlot() == t) {
    detail::TracerSlot() = nullptr;
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSerial:
      return "serial";
    case Layer::kKiss:
      return "kiss";
    case Layer::kAx25:
      return "ax25";
    case Layer::kIp:
      return "ip";
    case Layer::kMac:
      return "mac";
    case Layer::kGateway:
      return "gateway";
    case Layer::kDriver:
      return "driver";
    case Layer::kEther:
      return "ether";
  }
  return "?";
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSerialEnqueue:
      return "enqueue";
    case Kind::kSerialDeliver:
      return "deliver";
    case Kind::kKissFrameOut:
      return "frame-out";
    case Kind::kKissFrameIn:
      return "frame-in";
    case Kind::kAx25Encode:
      return "encode";
    case Kind::kAx25Decode:
      return "decode";
    case Kind::kIpForward:
      return "forward";
    case Kind::kIpDrop:
      return "drop";
    case Kind::kGatewayPass:
      return "pass";
    case Kind::kGatewayDeny:
      return "deny";
    case Kind::kMacTxStart:
      return "tx-start";
    case Kind::kMacCollision:
      return "collision";
    case Kind::kMacDefer:
      return "defer";
    case Kind::kDriverDrop:
      return "output-drop";
    case Kind::kEtherFrameOut:
      return "frame-out";
    case Kind::kEtherFrameIn:
      return "frame-in";
    case Kind::kBridgeIn:
      return "bridge-in";
    case Kind::kBridgeOut:
      return "bridge-out";
  }
  return "?";
}

const char* DirName(Dir dir) {
  switch (dir) {
    case Dir::kNone:
      return "--";
    case Dir::kTx:
      return "tx";
    case Dir::kRx:
      return "rx";
  }
  return "?";
}

std::string Entry::ToString() const {
  char head[128];
  std::snprintf(head, sizeof(head), "%12.6f  %-7s %-11s %-2s %-14.*s %5u B",
                ToSeconds(ts), LayerName(layer), KindName(kind), DirName(dir),
                static_cast<int>(iface.size()), iface.data(), orig_len);
  std::string out = head;
  if (!note.empty()) {
    out += "  ";
    out += note;
  }
  return out;
}

Tracer::Tracer(Simulator* sim, TracerConfig config)
    : sim_(sim), sims_{sim}, config_(std::move(config)) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
  ring_.reserve(config_.ring_capacity);
  if (!config_.pcap_path.empty()) {
    pcap_ = std::make_unique<PcapngWriter>(
        config_.pcap_path, static_cast<std::uint32_t>(config_.snaplen));
  }
}

Tracer::~Tracer() {
  Uninstall(this);
  if (pcap_ != nullptr) {
    stats_.pcap_bytes = pcap_->bytes_written();
  }
}

bool Tracer::pcap_ok() const { return pcap_ == nullptr || pcap_->ok(); }

Entry& Tracer::NextSlot() {
  if (ring_.size() < config_.ring_capacity) {
    ring_.emplace_back();
    return ring_.back();
  }
  Entry& slot = ring_[ring_next_];
  ring_next_ = (ring_next_ + 1) % config_.ring_capacity;
  ++stats_.ring_evicted;
  return slot;
}

void Tracer::Record(Layer layer, Kind kind, Dir dir, std::string_view iface,
                    ByteView data, std::string note) {
  Settle();
  Enter(NowForEntry(), layer, kind, dir, iface.empty() ? CurrentIf() : iface, data,
        std::move(note));
}

void Tracer::set_shards(const ShardSet* shards) {
  shards_ = shards;
  sims_.clear();
  for (std::size_t k = 0; k < shards->shard_count(); ++k) {
    sims_.push_back(shards->shard(k));
  }
}

SimTime Tracer::NowForEntry() const {
  return shards_ != nullptr ? shards_->CurrentTime() : sim_->Now();
}

std::uint32_t Tracer::IndexOf(const Simulator* sim) const {
  return static_cast<std::uint32_t>(std::find(sims_.begin(), sims_.end(), sim) - sims_.begin());
}

void Tracer::RecordDeliverAt(const Simulator* sim, SimTime when, std::uint64_t seq,
                             std::string_view iface, std::uint8_t byte) {
  std::uint32_t k = IndexOf(sim);
  if (k == sims_.size()) {
    sims_.push_back(sim);
  }
  pending_.push_back({when, seq, k, byte, std::string(iface)});
  std::push_heap(pending_.begin(), pending_.end(), Later);
}

bool Tracer::Reached(const Pending& p) const {
  const Simulator* sim = sims_[p.sim];
  if (sim->Reached(p.when, p.seq)) {
    return true;
  }
  if (shards_ == nullptr) {
    return false;
  }
  // The merge runs every shard's events in (time, shard index) order, so
  // another shard's byte has landed once the running event is past it in
  // that order.
  const Simulator* now = shards_->current_sim();
  return now != sim && (p.when < now->Now() || (p.when == now->Now() && p.sim < IndexOf(now)));
}

void Tracer::Settle() {
  while (!pending_.empty() && Reached(pending_.front())) {
    std::pop_heap(pending_.begin(), pending_.end(), Later);
    const Pending& p = pending_.back();
    Enter(p.when, Layer::kSerial, Kind::kSerialDeliver, Dir::kRx, p.iface,
          ByteView(&p.byte, 1), {});
    pending_.pop_back();
  }
}

void Tracer::Enter(SimTime ts, Layer layer, Kind kind, Dir dir,
                   std::string_view iface, ByteView data, std::string note) {
  Entry& e = NextSlot();
  e.ts = ts;
  e.seq = seq_++;
  e.layer = layer;
  e.kind = kind;
  e.dir = dir;
  e.iface.assign(iface);
  e.note = std::move(note);
  e.orig_len = static_cast<std::uint32_t>(data.size());
  std::size_t keep = data.size();
  if (keep > config_.snaplen) {
    keep = config_.snaplen;
    ++stats_.truncated;
  }
  e.data.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(keep));
  ++stats_.recorded;
  ++stats_.per_layer[static_cast<int>(layer)];
}

void Tracer::RecordFrame(Layer layer, Kind kind, Dir dir, std::string_view iface,
                         ByteView ax25, std::string note, std::uint8_t kiss_port) {
  if (iface.empty()) {
    iface = CurrentIf();
  }
  if (dir == Dir::kNone) {
    dir = CurrentDir();
  }
  if (pcap_ != nullptr && pcap_->ok()) {
    // LINKTYPE_AX25_KISS: the KISS type byte, then the frame (no FCS).
    Bytes wire;
    std::size_t keep = ax25.size();
    bool cut = false;
    if (keep + 1 > config_.snaplen && config_.snaplen > 0) {
      keep = config_.snaplen - 1;
      cut = true;
    }
    wire.reserve(keep + 1);
    wire.push_back(static_cast<std::uint8_t>((kiss_port & 0x0F) << 4));
    wire.insert(wire.end(), ax25.begin(),
                ax25.begin() + static_cast<std::ptrdiff_t>(keep));
    (void)cut;
    std::uint32_t flags = dir == Dir::kRx ? 1u : dir == Dir::kTx ? 2u : 0u;
    std::string comment(LayerName(layer));
    comment += ':';
    comment += KindName(kind);
    if (!note.empty()) {
      comment += ' ';
      comment += note;
    }
    std::uint32_t id = pcap_->InterfaceId(iface.empty() ? "unnamed" : iface);
    pcap_->WritePacket(id, NowForEntry(), wire,
                       static_cast<std::uint32_t>(ax25.size() + 1), flags,
                       comment);
    stats_.pcap_packets = pcap_->packets();
    stats_.pcap_interfaces = pcap_->interfaces();
    stats_.pcap_bytes = pcap_->bytes_written();
  }
  Record(layer, kind, dir, iface, ax25, std::move(note));
}

void Tracer::RecordEtherFrame(Kind kind, Dir dir, std::string_view iface,
                              ByteView frame, std::string note) {
  if (iface.empty()) {
    iface = CurrentIf();
  }
  if (dir == Dir::kNone) {
    dir = CurrentDir();
  }
  if (pcap_ != nullptr && pcap_->ok()) {
    // LINKTYPE_ETHERNET: the raw Ethernet-II frame, no pseudo-header.
    std::size_t keep = std::min(frame.size(), config_.snaplen);
    std::uint32_t flags = dir == Dir::kRx ? 1u : dir == Dir::kTx ? 2u : 0u;
    std::string comment(LayerName(Layer::kEther));
    comment += ':';
    comment += KindName(kind);
    if (!note.empty()) {
      comment += ' ';
      comment += note;
    }
    std::uint32_t id = pcap_->InterfaceId(iface.empty() ? "unnamed" : iface,
                                          kLinkTypeEthernet);
    pcap_->WritePacket(id, NowForEntry(), frame.first(keep),
                       static_cast<std::uint32_t>(frame.size()), flags,
                       comment);
    stats_.pcap_packets = pcap_->packets();
    stats_.pcap_interfaces = pcap_->interfaces();
    stats_.pcap_bytes = pcap_->bytes_written();
  }
  Record(Layer::kEther, kind, dir, iface, frame, std::move(note));
}

std::vector<const Entry*> Tracer::RingSnapshot() const {
  std::vector<const Entry*> out;
  out.reserve(ring_.size());
  if (ring_.size() < config_.ring_capacity) {
    for (const Entry& e : ring_) {
      out.push_back(&e);
    }
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(&ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::string Tracer::FormatRing() const {
  std::string out = "=== trace ring (oldest first) ===\n";
  for (const Entry* e : RingSnapshot()) {
    out += e->ToString();
    out += '\n';
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "%llu recorded, %llu evicted, %llu truncated\n",
                static_cast<unsigned long long>(stats_.recorded),
                static_cast<unsigned long long>(stats_.ring_evicted),
                static_cast<unsigned long long>(stats_.truncated));
  out += tail;
  return out;
}

void Tracer::Flush() {
  Settle();
  if (pcap_ != nullptr) {
    pcap_->Flush();
    stats_.pcap_bytes = pcap_->bytes_written();
  }
}

void DumpActiveRing(std::FILE* out) {
  Tracer* t = Active();
  if (t == nullptr) {
    return;
  }
  t->Flush();
  std::string dump = t->FormatRing();
  std::fwrite(dump.data(), 1, dump.size(), out);
}

}  // namespace upr::trace
