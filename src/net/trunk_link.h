// upr — point-to-point backbone trunk between shards (ISSUE 8).
//
// The city topology's NET/ROM backbone is modelled at the IP layer as
// dedicated point-to-point trunks between gateway hosts: a serialized pipe
// with a bit rate and a fixed latency (propagation plus the serial framing
// time of the underlying link). A TrunkLink is a NetInterface whose Output
// crosses shards: the datagram serializes against the local end's transmit
// clock, then rides a ShardSet::Post to the peer's shard, arriving at
// depart + latency. Because the latency is at least the ShardSet lookahead,
// trunks are exactly the conservative-DES channel boundary — the only way
// state leaves a shard.
//
// Both ends must be wired with Wire() while the topology is still
// single-threaded.
#ifndef SRC_NET_TRUNK_LINK_H_
#define SRC_NET_TRUNK_LINK_H_

#include <cstdint>
#include <string>

#include "src/net/interface.h"
#include "src/sim/shard_exec.h"
#include "src/sim/simulator.h"

namespace upr {

struct TrunkConfig {
  std::uint64_t bit_rate = 1'000'000;  // 1 Mbit/s backbone pipe
  // One-way delivery delay after the last bit departs. Must be >= the
  // ShardSet lookahead (the topology generator derives the lookahead FROM
  // the minimum trunk latency, so this holds by construction).
  SimTime latency = 1'000'000;  // 1 ms
  // Datagrams queued or serializing before tail drop (a slot frees as the
  // last bit departs).
  std::size_t queue_limit = 64;
};

class TrunkLink : public NetInterface {
 public:
  // `shard` is the shard this end lives on; its NetStack must run on
  // shards->shard(shard).
  TrunkLink(std::string name, ShardSet* shards, std::size_t shard,
            TrunkConfig config = {});

  // Connects the two ends. Topology build time only.
  static void Wire(TrunkLink* a, TrunkLink* b);

  std::size_t shard_index() const { return shard_; }
  TrunkLink* peer() const { return peer_; }
  const TrunkConfig& config() const { return config_; }

  void Output(PacketBuf&& ip_datagram, IpV4Address next_hop) override;

 private:
  // Runs on the peer's shard (posted closure).
  void RxDeliver(Bytes&& ip_datagram);

  SimTime TransmitTime(std::size_t bytes) const;

  ShardSet* shards_;
  std::size_t shard_;
  TrunkLink* peer_ = nullptr;
  TrunkConfig config_;
  SimTime busy_until_ = 0;
  std::size_t inflight_ = 0;
};

}  // namespace upr

#endif  // SRC_NET_TRUNK_LINK_H_
