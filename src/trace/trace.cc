#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/trace/pcapng_reader.h"
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
    : sim_(sim), config_(std::move(config)) {
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
  Enter(sim_->Now(), layer, kind, dir, iface.empty() ? CurrentIf() : iface, data,
        std::move(note));
}

void Tracer::RecordDeliverAt(const Simulator* sim, SimTime when, std::uint64_t seq,
                             std::string_view iface, std::uint8_t byte) {
  pending_.push_back({when, seq, sim, byte, std::string(iface)});
  std::push_heap(pending_.begin(), pending_.end(), Later);
}

void Tracer::Settle() {
  while (!pending_.empty() &&
         pending_.front().sim->Reached(pending_.front().when, pending_.front().seq)) {
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
    pcap_->WritePacket(id, sim_->Now(), wire,
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
    pcap_->WritePacket(id, sim_->Now(), frame.first(keep),
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

std::string Tracer::FormatRing() const { return trace::FormatRing(RingSnapshot(), stats_); }

std::string FormatRing(const std::vector<const Entry*>& entries,
                       const TraceStats& stats) {
  std::string out = "=== trace ring (oldest first) ===\n";
  for (const Entry* e : entries) {
    out += e->ToString();
    out += '\n';
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "%llu recorded, %llu evicted, %llu truncated\n",
                static_cast<unsigned long long>(stats.recorded),
                static_cast<unsigned long long>(stats.ring_evicted),
                static_cast<unsigned long long>(stats.truncated));
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

namespace {

// Merge order: (timestamp, shard). Records are gathered shard by shard, each
// in its own order, so a stable sort keeps that order among ties.
constexpr auto kByTimeThenShard = [](const auto& a, const auto& b) {
  return a.ts != b.ts ? a.ts < b.ts : a.shard < b.shard;
};

}  // namespace

bool MergeShardTraces(const std::vector<std::unique_ptr<Tracer>>& shards,
                      const std::string& pcap_path, std::string* ring,
                      std::string* error) {
  struct Record {
    SimTime ts;
    std::size_t shard;
    const Entry* entry;
  };
  std::vector<Record> records;
  TraceStats stats;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    shards[k]->Flush();
    stats.recorded += shards[k]->stats().recorded;
    stats.truncated += shards[k]->stats().truncated;
    for (const Entry* e : shards[k]->RingSnapshot()) {
      records.push_back({e->ts, k, e});
    }
  }
  std::stable_sort(records.begin(), records.end(), kByTimeThenShard);
  // Each shard's ring holds its own newest entries, so the newest of all
  // shards are all here.
  const std::size_t keep =
      std::min(records.size(), shards.front()->config().ring_capacity);
  std::vector<const Entry*> newest;
  for (std::size_t i = records.size() - keep; i < records.size(); ++i) {
    newest.push_back(records[i].entry);
  }
  stats.ring_evicted = stats.recorded - keep;
  *ring = FormatRing(newest, stats);
  if (shards.size() == 1 || pcap_path.empty()) {
    return true;
  }

  std::vector<PcapngFile> files;
  for (const auto& t : shards) {
    std::optional<PcapngFile> file = PcapngFile::Load(t->config().pcap_path, error);
    if (!file) {
      return false;
    }
    files.push_back(std::move(*file));
  }
  struct Packet {
    std::uint64_t ts;
    std::size_t shard;
    const PcapngPacket* packet;
  };
  std::vector<Packet> packets;
  for (std::size_t k = 0; k < files.size(); ++k) {
    for (const PcapngPacket& p : files[k].packets) {
      packets.push_back({p.timestamp, k, &p});
    }
  }
  std::stable_sort(packets.begin(), packets.end(), kByTimeThenShard);
  PcapngWriter out(pcap_path, static_cast<std::uint32_t>(shards.front()->config().snaplen));
  if (!out.ok()) {
    *error = "cannot open " + pcap_path;
    return false;
  }
  for (const Packet& p : packets) {
    const PcapngInterface& itf = files[p.shard].interfaces[p.packet->interface_id];
    out.WritePacket(out.InterfaceId(itf.name, itf.link_type), static_cast<SimTime>(p.ts),
                    p.packet->data, p.packet->orig_len, p.packet->flags, p.packet->comment);
  }
  for (const auto& t : shards) {
    std::remove(t->config().pcap_path.c_str());
  }
  return true;
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
