#include "src/tnc/kiss_tnc.h"

#include "src/ax25/frame.h"
#include "src/trace/trace.h"
#include "src/util/crc.h"
#include "src/util/logging.h"
#include "src/util/packet_buf.h"

namespace upr {

namespace {
constexpr const char* kTag = "tnc";

SimTime KissTimeUnits(std::uint8_t v) {
  // KISS timing parameters are in units of 10 ms.
  return Milliseconds(10.0 * static_cast<double>(v));
}

}  // namespace

KissTnc::KissTnc(Simulator* sim, RadioChannel* channel, SerialEndpoint* serial,
                 std::string name, TncConfig config, std::uint64_t seed)
    : sim_(sim),
      name_(std::move(name)),
      config_(std::move(config)),
      serial_(serial),
      decoder_([this](std::uint8_t, KissCommand command, ByteView payload) {
        OnKissFrame(command, payload);
      }) {
  port_ = channel->CreatePort("tnc:" + name_);
  mac_ = std::make_unique<CsmaMac>(sim, port_, config_.mac, seed);
  // The decoder acts only at FEND, so the host's bytes can travel in runs.
  serial_->set_receive_chunk_handler(
      [this](const std::uint8_t* data, std::size_t len) { OnSerialChunk(data, len); },
      kKissFend);
  port_->set_receive_handler(
      [this](const Bytes& wire, bool corrupted) { OnRadioReceive(wire, corrupted); });
}

void KissTnc::OnSerialChunk(const std::uint8_t* data, std::size_t len) {
  if (!kiss_mode_) {
    return;  // would be the TNC-2 command interpreter; out of scope
  }
  trace::IfScope tscope(serial_->name(), trace::Dir::kRx);
  decoder_.Feed(data, len);
}

void KissTnc::OnKissFrame(KissCommand command, ByteView payload) {
  if (!kiss_mode_) {
    return;  // a kReturn earlier in the same delivery chunk left KISS mode
  }
  switch (command) {
    case KissCommand::kData: {
      if (payload.empty()) {
        return;
      }
      ++frames_from_host_;
      // The frame's one owned copy: out of the decoder's buffer onto the MAC
      // queue, reserved with room for the FCS.
      {
        BufLayerScope scope(BufLayer::kKiss);
        BufNoteAlloc();
        BufNoteCopy(payload.size());
      }
      Bytes wire;
      wire.reserve(payload.size() + 2);
      wire.assign(payload.begin(), payload.end());
      AppendFcs(&wire);
      mac_->Enqueue(std::move(wire));
      return;
    }
    case KissCommand::kTxDelay:
      if (!payload.empty()) {
        mac_->params().tx_delay = KissTimeUnits(payload[0]);
        NoteParamUpdate();
      } else {
        ++param_errors_;
      }
      return;
    case KissCommand::kPersistence:
      if (!payload.empty()) {
        mac_->params().persistence = MacParams::PersistenceFromKiss(payload[0]);
        NoteParamUpdate();
      } else {
        ++param_errors_;
      }
      return;
    case KissCommand::kSlotTime:
      if (!payload.empty()) {
        mac_->params().slot_time = KissTimeUnits(payload[0]);
        NoteParamUpdate();
      } else {
        ++param_errors_;
      }
      return;
    case KissCommand::kTxTail:
      if (!payload.empty()) {
        mac_->params().tx_tail = KissTimeUnits(payload[0]);
        NoteParamUpdate();
      } else {
        ++param_errors_;
      }
      return;
    case KissCommand::kFullDuplex:
      if (!payload.empty()) {
        mac_->params().full_duplex = payload[0] != 0;
        NoteParamUpdate();
      } else {
        ++param_errors_;
      }
      return;
    case KissCommand::kSetHardware:
      return;  // hardware-specific; ignored
    case KissCommand::kReturn:
      kiss_mode_ = false;
      ++return_commands_;
      UPR_INFO(kTag, "%s: leaving KISS mode", name_.c_str());
      return;
  }
}

void KissTnc::NoteParamUpdate() {
  ++param_updates_;
  last_param_update_ = sim_->Now();
}

void KissTnc::EnterKissMode() {
  if (!kiss_mode_) {
    UPR_INFO(kTag, "%s: re-entering KISS mode", name_.c_str());
  }
  // Bytes already landed reach the decoder before it resyncs.
  serial_->TakeLanded();
  kiss_mode_ = true;
  decoder_.Reset();
  ++kiss_resyncs_;
}

bool KissTnc::PassesFilter(ByteView ax25_body) const {
  if (!config_.address_filter) {
    return true;
  }
  if (ax25_body.size() < kAx25AddressBytes) {
    return false;
  }
  auto dst = Ax25Address::Decode(ax25_body.data());
  if (!dst) {
    return false;
  }
  if (dst->address.IsBroadcast()) {
    return true;
  }
  for (const auto& local : config_.local_addresses) {
    if (dst->address == local) {
      return true;
    }
  }
  for (const auto& alias : config_.broadcast_aliases) {
    if (dst->address == alias) {
      return true;
    }
  }
  return false;
}

void KissTnc::OnRadioReceive(const Bytes& wire, bool corrupted) {
  // The frame is shared by every receiving port: read it through a view.
  std::optional<ByteView> checked = corrupted ? std::nullopt : CheckFcs(wire);
  if (!checked) {
    ++fcs_errors_;
    return;
  }
  ByteView body = *checked;
  if (!PassesFilter(body)) {
    ++frames_filtered_;
    return;
  }
  ++frames_to_host_;
  trace::IfScope tscope(serial_->name(), trace::Dir::kTx);
  Bytes stream;
  KissEncodeInto(body, &stream);
  serial_->Write(stream);
}

}  // namespace upr
