#include "src/net/trunk_link.h"

#include <algorithm>
#include <utility>

#include "src/net/netstack.h"
#include "src/util/panic.h"

namespace upr {

TrunkLink::TrunkLink(std::string name, ShardSet* shards, std::size_t shard,
                     TrunkConfig config)
    : NetInterface(std::move(name), 1500),
      shards_(shards),
      shard_(shard),
      config_(config) {
  UPR_INVARIANT(config_.bit_rate > 0, "trunk %s: zero bit rate",
                name_.c_str());
}

void TrunkLink::Wire(TrunkLink* a, TrunkLink* b) {
  UPR_INVARIANT(a->peer_ == nullptr && b->peer_ == nullptr,
                "trunk %s/%s already wired", a->name().c_str(),
                b->name().c_str());
  a->peer_ = b;
  b->peer_ = a;
}

SimTime TrunkLink::TransmitTime(std::size_t bytes) const {
  // Round up: a datagram never finishes early.
  const std::uint64_t bits = static_cast<std::uint64_t>(bytes) * 8;
  return static_cast<SimTime>((bits * 1'000'000'000ull + config_.bit_rate - 1) /
                              config_.bit_rate);
}

void TrunkLink::Output(PacketBuf&& ip_datagram, IpV4Address next_hop) {
  (void)next_hop;  // point-to-point: there is exactly one place to go
  // The cross-shard handoff carries an owned byte string, never a PacketBuf
  // (PacketBufs never migrate between shard threads mid-flight).
  Bytes data = ip_datagram.Release();
  UPR_INVARIANT(peer_ != nullptr, "trunk %s: output before Wire()",
                name_.c_str());
  if (!up_) {
    ++stats_.oerrors;
    return;
  }
  if (inflight_ >= config_.queue_limit) {
    ++stats_.odrops;
    return;
  }
  Simulator* sim = shards_->shard(shard_);
  const SimTime now = sim->Now();
  const SimTime start = std::max(now, busy_until_);
  busy_until_ = start + TransmitTime(data.size());
  const SimTime deliver = busy_until_ + config_.latency;
  ++inflight_;
  ++stats_.opackets;
  stats_.obytes += data.size();
  // The local completion event frees a queue slot when the last bit departs;
  // the delivery crosses shards as a ShardSet handoff.
  sim->ScheduleAt(busy_until_, [this] {
    UPR_INVARIANT(inflight_ > 0, "trunk %s: inflight underflow",
                  name_.c_str());
    --inflight_;
  });
  shards_->Post(shard_, peer_->shard_, deliver,
                [peer = peer_, data = std::move(data)]() mutable {
                  peer->RxDeliver(std::move(data));
                });
}

void TrunkLink::RxDeliver(Bytes&& ip_datagram) {
  if (!up_) {
    ++stats_.ierrors;
    return;
  }
  // The stack counts ipackets/ibytes, as it does for every interface.
  DeliverToStack(PacketBuf::Adopt(std::move(ip_datagram)));
}

}  // namespace upr
