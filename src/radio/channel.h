// Shared-medium radio channel simulation.
//
// All stations on one frequency share one half-duplex broadcast channel (the
// paper's 1200 bps VHF subnet). A transmission occupies the channel for
// keyup (TXDELAY) + frame bits / bit rate + txtail. Overlapping transmissions
// collide: every overlapped frame is corrupted. Receivers get each frame at
// end-of-transmission; corrupted frames arrive with mangled bytes so the
// TNC's FCS check fails, exactly as on the air. A port that was itself
// transmitting during a frame misses it entirely (half duplex).
#ifndef SRC_RADIO_CHANNEL_H_
#define SRC_RADIO_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/byte_buffer.h"
#include "src/util/random.h"

namespace upr {

struct RadioChannelConfig {
  std::uint64_t bit_rate = 1200;   // bits per second on the air
  double loss_rate = 0.0;          // independent per-frame random loss
  // Independent bit-error rate: a frame of n bits survives with probability
  // (1-ber)^n, so longer frames die more often — the physics behind PACLEN
  // tuning (bench_x3_paclen). Composes with loss_rate.
  double bit_error_rate = 0.0;
  SimTime propagation_delay = 0;   // negligible at VHF distances
};

// True when a frame of `frame_len` bytes is corrupted by independent bit
// errors at `bit_error_rate`: survival probability (1-ber)^(8*len). Edge
// values are guarded rather than fed to pow(): a zero-length frame or a
// non-positive (or NaN) rate can never corrupt, and ber >= 1 always does —
// none of those consume the RNG, so edge configs don't perturb the stream.
bool BerCorrupts(Rng& rng, double bit_error_rate, std::size_t frame_len);

class RadioChannel;

class RadioPort {
 public:
  // `corrupted` is true when the frame collided or took random loss; real
  // receivers see this as an FCS failure.
  using ReceiveHandler = std::function<void(const Bytes& frame, bool corrupted)>;

  const std::string& name() const { return name_; }
  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }

  // Carrier sense: true while any station (including this one) transmits.
  bool CarrierBusy() const;
  bool transmitting() const { return transmitting_; }

  // Begins a transmission of `frame` occupying the channel for
  // head + frame-bits/bit-rate + tail. `on_done` (optional) runs when the
  // transmission ends. If the port is already transmitting the frame is
  // rejected: nothing goes on the air, false is returned, and `on_done` is
  // still invoked (asynchronously, at the current time) so a MAC waiting on
  // it can recover instead of stalling forever.
  bool StartTransmit(Bytes frame, SimTime head, SimTime tail,
                     std::function<void()> on_done = nullptr);

  // Air time this port's transmission of `len` bytes would take.
  SimTime AirTime(std::size_t len, SimTime head, SimTime tail) const;

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t frames_corrupted_rx() const { return frames_corrupted_rx_; }
  // StartTransmit calls rejected because a transmission was in progress.
  std::uint64_t rejected_transmits() const { return rejected_transmits_; }
  // Frames this port never heard because it was transmitting while they
  // arrived (half duplex) — including transmissions begun inside the
  // propagation window, which are re-checked at actual delivery time.
  std::uint64_t half_duplex_misses() const { return half_duplex_misses_; }

 private:
  friend class RadioChannel;

  RadioPort(RadioChannel* channel, std::string name)
      : channel_(channel), name_(std::move(name)) {}

  RadioChannel* channel_;
  std::string name_;
  ReceiveHandler on_receive_;
  bool transmitting_ = false;
  // Most recent transmission interval, for the half-duplex overlap test.
  SimTime last_tx_start_ = -1;
  SimTime last_tx_end_ = -1;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_corrupted_rx_ = 0;
  std::uint64_t rejected_transmits_ = 0;
  std::uint64_t half_duplex_misses_ = 0;
};

class RadioChannel {
 public:
  RadioChannel(Simulator* sim, RadioChannelConfig config = {},
               std::uint64_t seed = 1);

  // Creates a station attachment. The channel owns the port.
  RadioPort* CreatePort(std::string name);

  bool Busy() const { return active_ != 0; }
  std::uint64_t bit_rate() const { return config_.bit_rate; }
  Simulator* sim() { return sim_; }

  // Statistics.
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t collisions() const { return collisions_; }
  SimTime busy_time() const { return busy_time_; }
  // Fraction of [0, now] the channel carried at least one transmission.
  double Utilization() const;

 private:
  friend class RadioPort;

  struct Transmission {
    RadioPort* port;
    SimTime start;
    SimTime end;
    bool corrupted = false;
  };

  void Deliver(RadioPort* sender, Bytes frame, bool corrupted,
               SimTime tx_start, SimTime tx_end);

  Simulator* sim_;
  RadioChannelConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<RadioPort>> ports_;
  std::vector<std::shared_ptr<Transmission>> active_list_;
  int active_ = 0;
  SimTime busy_since_ = 0;
  SimTime busy_time_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace upr

#endif  // SRC_RADIO_CHANNEL_H_
