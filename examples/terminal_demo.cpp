// The world before the paper (§1): two operators with dumb terminals and
// stock TAPR-style TNCs. No computers, no IP — the TNC's own command
// interpreter holds the AX.25 connection ("Initially, most packet radio
// stations consisted of terminals instead of computers. Once users had
// established communication with one another, they simply typed streams of
// data at each other.").
//
// Alice connects to Bob directly for a keyboard-to-keyboard chat, then to
// the BBS via a digipeater, then mail forwarding carries her message to
// Bob's home BBS — everything the paper's community had working before the
// Ultrix gateway added the Internet on top.
#include <cstdio>

#include "src/apps/bbs.h"
#include "src/radio/digipeater.h"
#include "src/scenario/testbed.h"
#include "src/tnc/command_tnc.h"

using namespace upr;

namespace {

// A dumb terminal that prints everything the TNC says.
struct Terminal {
  Terminal(Simulator* sim, const char* who) : line(sim, 1200), name(who) {
    line.a().set_receive_chunk_handler([this](const std::uint8_t* data, std::size_t len) {
      for (std::size_t i = 0; i < len; ++i) {
        Show(data[i]);
      }
    });
  }
  void Show(std::uint8_t b) {
    if (b == '\r') {
      return;
    }
    if (b == '\n') {
      std::printf("  [%s] %s\n", name, pending.c_str());
      pending.clear();
    } else {
      pending.push_back(static_cast<char>(b));
      // Prompts have no newline; flush them when they look complete.
      if (pending == "cmd: ") {
        std::printf("  [%s] %s\n", name, pending.c_str());
        pending.clear();
      }
    }
  }
  void Type(const std::string& text) { line.a().Write(BytesFromString(text + "\r\n")); }
  SerialLine line;
  const char* name;
  std::string pending;
};

}  // namespace

int main() {
  Simulator sim;
  RadioChannelConfig rc;
  rc.bit_rate = 1200;
  RadioChannel channel(&sim, rc, 88);

  Terminal alice_term(&sim, "alice");
  Terminal bob_term(&sim, "bob");
  CommandTncConfig tnc_cfg;
  tnc_cfg.link.t1 = Seconds(10);
  tnc_cfg.mycall = *Ax25Address::Parse("KD7AA");
  CommandModeTnc alice_tnc(&sim, &channel, &alice_term.line.b(), "alice", tnc_cfg, 1);
  tnc_cfg.mycall = *Ax25Address::Parse("KD7BB");
  CommandModeTnc bob_tnc(&sim, &channel, &bob_term.line.b(), "bob", tnc_cfg, 2);

  std::printf("--- keyboard to keyboard (%s -> %s) ---\n", "KD7AA", "KD7BB");
  sim.RunUntil(Seconds(5));
  alice_term.Type("CONNECT KD7BB");
  sim.RunUntil(Seconds(60));
  alice_term.Type("hi bob, got your QSL card today. 73!");
  sim.RunUntil(Seconds(120));
  bob_term.Type("fb alice. hear the UW machine gateways to the internet now?");
  sim.RunUntil(Seconds(240));
  alice_term.Type(std::string(1, static_cast<char>(kTncEscape)) );
  sim.RunUntil(Seconds(250));
  alice_term.Type("DISCONNECT");
  sim.RunUntil(Seconds(300));

  // --- The BBS scene: digipeater + two BBSs with mail forwarding. ---------
  std::printf("\n--- via digipeater to the BBS; mail forwarded between towns ---\n");
  Digipeater digi(&sim, &channel, *Ax25Address::Parse("WB7RA"));

  RadioStationConfig bc;
  bc.hostname = "sea-bbs";
  bc.callsign = *Ax25Address::Parse("W7SEA");
  bc.ip = IpV4Address(44, 24, 0, 2);
  bc.seed = 5;
  RadioStation seattle_host(&sim, &channel, bc);
  bc.hostname = "tac-bbs";
  bc.callsign = *Ax25Address::Parse("W7TAC");
  bc.ip = IpV4Address(44, 24, 0, 3);
  bc.seed = 6;
  RadioStation tacoma_host(&sim, &channel, bc);
  Ax25LinkConfig link_cfg;
  link_cfg.t1 = Seconds(10);
  auto sea_link = BindAx25LinkToDriver(&sim, seattle_host.radio_if(), link_cfg);
  auto tac_link = BindAx25LinkToDriver(&sim, tacoma_host.radio_if(), link_cfg);
  Ax25Bbs seattle(sea_link.get(), "[Seattle BBS]");
  Ax25Bbs tacoma(tac_link.get(), "[Tacoma BBS]");
  seattle.SetUserHome("KD7BB", *Ax25Address::Parse("W7TAC"));
  seattle.StartForwarding(Seconds(300));

  alice_term.Type("CONNECT W7SEA VIA WB7RA");
  sim.RunUntil(Seconds(500));
  alice_term.Type("S KD7BB antenna raising");
  sim.RunUntil(Seconds(600));
  alice_term.Type("Tower goes up saturday. Bring gloves.");
  alice_term.Type("/EX");
  sim.RunUntil(Seconds(800));
  alice_term.Type("B");
  sim.RunUntil(Seconds(2000));

  std::printf("\n--- results ---\n");
  std::printf("digipeater relayed %llu frames\n",
              static_cast<unsigned long long>(digi.frames_repeated()));
  std::printf("seattle BBS: %zu message(s), %llu forwarded out\n",
              seattle.messages().size(),
              static_cast<unsigned long long>(seattle.messages_forwarded()));
  std::printf("tacoma BBS:  %zu message(s) (KD7BB's mail arrived: %s)\n",
              tacoma.messages().size(),
              !tacoma.messages().empty() && tacoma.messages()[0].to == "KD7BB"
                  ? "yes"
                  : "no");
  return 0;
}
