#include "src/radio/digipeater.h"

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace upr {

namespace {
constexpr const char* kTag = "digi";
}  // namespace

Digipeater::Digipeater(Simulator* sim, RadioChannel* channel, Ax25Address callsign,
                       MacParams mac, std::uint64_t seed)
    : sim_(sim), callsign_(std::move(callsign)) {
  port_ = channel->CreatePort("digi:" + callsign_.ToString());
  mac_ = std::make_unique<CsmaMac>(sim, port_, mac, seed);
  port_->set_receive_handler(
      [this](const Bytes& wire, bool corrupted) { OnReceive(wire, corrupted); });
}

void Digipeater::OnReceive(const Bytes& wire, bool corrupted) {
  ++frames_heard_;
  // FCS check: corrupted frames fail; also verify the trailing CRC.
  std::optional<ByteView> body = corrupted ? std::nullopt : CheckFcs(wire);
  if (!body) {
    ++frames_dropped_;
    return;
  }
  auto frame = Ax25Frame::Decode(*body);
  if (!frame) {
    ++frames_dropped_;
    return;
  }
  Ax25Digipeater* next = frame->NextDigipeater();
  if (next == nullptr || next->address != callsign_) {
    return;  // not addressed through us (or already fully repeated)
  }
  next->repeated = true;
  ++frames_repeated_;
  UPR_TRACE(kTag, "%s repeating %s", callsign_.ToString().c_str(),
            frame->ToString().c_str());
  Bytes out = frame->Encode();
  AppendFcs(&out);
  mac_->Enqueue(std::move(out));
}

}  // namespace upr
