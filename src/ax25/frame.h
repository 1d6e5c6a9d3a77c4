// AX.25 frame encode/decode: v2.0 (Fox, ARRL 1984) and the v2.2 extensions
// (modulo-128 sequencing, SREJ, XID parameter negotiation).
//
// A frame is: destination(7) source(7) [digipeaters, up to 8 x 7] control
// [PID(1) for I and UI frames] [info]. The control field is one byte in
// modulo-8 operation and — for I and S frames only, U frames never grow — two
// bytes in modulo-128 operation, where N(S)/N(R) take seven bits each and the
// P/F bit moves to bit 0 of the second byte. Which width applies is a property
// of the *link* (negotiated via XID / chosen by SABM vs SABME), not of the
// frame bytes themselves, so the decoder takes the modulus as a parameter and
// the LAPB layer re-parses with the per-connection modulus (see
// Ax25Link::HandleDecoded). The FCS is *not* part of this codec: on the air
// the TNC appends/verifies it (see src/tnc), and KISS data frames exclude it,
// matching the paper's split of responsibilities.
#ifndef SRC_AX25_FRAME_H_
#define SRC_AX25_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ax25/address.h"
#include "src/util/byte_buffer.h"
#include "src/util/packet_buf.h"

namespace upr {

// Layer-3 protocol IDs carried in I and UI frames.
inline constexpr std::uint8_t kPidNoLayer3 = 0xF0;
inline constexpr std::uint8_t kPidIp = 0xCC;       // ARPA Internet Protocol
inline constexpr std::uint8_t kPidArp = 0xCD;      // ARPA Address Resolution
inline constexpr std::uint8_t kPidNetRom = 0xCF;   // NET/ROM

// The protocol limits the digipeater list to eight entries (§1 of the paper).
inline constexpr std::size_t kMaxDigipeaters = 8;

// Default maximum I/UI info field length (AX.25 N1).
inline constexpr std::size_t kAx25MaxInfo = 256;

// Sequence-number modulus of a link. kMod8 is classic v2.0 (3-bit N(S)/N(R),
// window up to 7); kMod128 is v2.2 extended mode (7-bit numbers, window up to
// 127, entered via SABME and usually negotiated via XID).
enum class Ax25Modulus : std::uint8_t {
  kMod8,
  kMod128,
};

inline constexpr int ModulusValue(Ax25Modulus m) {
  return m == Ax25Modulus::kMod128 ? 128 : 8;
}

enum class Ax25FrameType {
  kI,      // information
  kRr,     // receive ready
  kRnr,    // receive not ready
  kRej,    // reject
  kSrej,   // selective reject (v2.2)
  kSabm,   // set asynchronous balanced mode (connect request, mod 8)
  kSabme,  // set asynchronous balanced mode extended (connect request, mod 128)
  kDisc,   // disconnect
  kUa,     // unnumbered acknowledge
  kDm,     // disconnected mode
  kUi,     // unnumbered information (used for IP/ARP datagrams)
  kXid,    // exchange identification (v2.2 parameter negotiation)
  kFrmr,   // frame reject
  kUnknown,
};

const char* Ax25FrameTypeName(Ax25FrameType t);

// ---------------------------------------------------------------------------
// XID parameter negotiation (AX.25 v2.2 §4.3.3.7 / ISO 8885).
//
// The XID info field is FI(0x82) GI(0x80) GL(u16, big-endian) followed by
// PI/PL/PV triples, every value big-endian. Only the six parameters AX.25
// defines are modelled; unknown PIs are skipped on decode.

inline constexpr std::uint8_t kXidFormatIso8885 = 0x82;       // FI
inline constexpr std::uint8_t kXidGroupParameters = 0x80;     // GI

// Parameter indicators (PI).
inline constexpr std::uint8_t kXidPiClassesOfProcedures = 2;
inline constexpr std::uint8_t kXidPiOptionalFunctions = 3;
inline constexpr std::uint8_t kXidPiIFieldLengthRx = 6;  // in *bits*
inline constexpr std::uint8_t kXidPiWindowSizeRx = 8;
inline constexpr std::uint8_t kXidPiAckTimer = 9;        // milliseconds
inline constexpr std::uint8_t kXidPiRetries = 10;

// Classes-of-procedures bits (PI 2, 16 bits).
inline constexpr std::uint16_t kXidClassAbm = 0x0100;         // balanced ABM
inline constexpr std::uint16_t kXidClassHalfDuplex = 0x2000;
inline constexpr std::uint16_t kXidClassFullDuplex = 0x4000;

// HDLC optional-functions bits (PI 3, 24 bits, as they appear big-endian on
// the wire). The subset AX.25 v2.2 cares about:
inline constexpr std::uint32_t kXidOptSyncTx = 0x000002;
inline constexpr std::uint32_t kXidOptFcs16 = 0x000020;
inline constexpr std::uint32_t kXidOptMod8 = 0x000400;
inline constexpr std::uint32_t kXidOptMod128 = 0x000800;
inline constexpr std::uint32_t kXidOptTest = 0x002000;
inline constexpr std::uint32_t kXidOptMultiSrej = 0x008000;
inline constexpr std::uint32_t kXidOptRej = 0x020000;
inline constexpr std::uint32_t kXidOptSrej = 0x040000;
inline constexpr std::uint32_t kXidOptExtendedAddress = 0x800000;

// The defaults below are the full v2.2 offer (mod 128, SREJ and REJ, 127
// frame window) and round-trip to the canonical 27-byte K5OKC capture used
// as the golden vector in tests/ax25_test.cc.
struct Ax25XidParams {
  std::uint16_t classes = kXidClassAbm | kXidClassHalfDuplex;
  std::uint32_t optional_functions =
      kXidOptExtendedAddress | kXidOptSrej | kXidOptRej | kXidOptMultiSrej |
      kXidOptTest | kXidOptMod128 | kXidOptFcs16 | kXidOptSyncTx;
  std::uint32_t i_field_length_rx = 1536 * 8;  // bits
  std::uint8_t window_size_rx = 127;
  std::uint32_t ack_timer_ms = 3000;
  std::uint32_t retries = 10;

  bool Mod128() const { return optional_functions & kXidOptMod128; }
  bool Srej() const { return optional_functions & kXidOptSrej; }

  Bytes Encode() const;
  static std::optional<Ax25XidParams> Decode(ByteView info);

  bool operator==(const Ax25XidParams& o) const {
    return classes == o.classes &&
           optional_functions == o.optional_functions &&
           i_field_length_rx == o.i_field_length_rx &&
           window_size_rx == o.window_size_rx &&
           ack_timer_ms == o.ack_timer_ms && retries == o.retries;
  }
};

struct Ax25Digipeater {
  Ax25Address address;
  bool repeated = false;  // H bit: set once the digipeater has relayed it

  bool operator==(const Ax25Digipeater& o) const {
    return address == o.address && repeated == o.repeated;
  }
};

struct Ax25Frame {
  Ax25Address destination;
  Ax25Address source;
  std::vector<Ax25Digipeater> digipeaters;
  bool command = true;  // v2.0 C-bit: true=command, false=response

  Ax25FrameType type = Ax25FrameType::kUi;
  bool poll_final = false;
  std::uint8_t ns = 0;  // N(S), I frames only
  std::uint8_t nr = 0;  // N(R), I and S frames

  // Control-field width for I and S frames (U frames are always one byte).
  // Set by the encoder's caller and by DecodeView's `modulus` argument.
  Ax25Modulus modulus = Ax25Modulus::kMod8;

  std::uint8_t pid = kPidNoLayer3;  // I and UI frames only
  Bytes info;                       // I, UI, FRMR and XID frames

  // Builds a UI datagram frame (how IP and ARP ride AX.25 in the paper).
  static Ax25Frame MakeUi(const Ax25Address& dst, const Ax25Address& src,
                          std::uint8_t pid, Bytes info,
                          std::vector<Ax25Digipeater> digis = {});

  bool IsSupervisory() const {
    return type == Ax25FrameType::kRr || type == Ax25FrameType::kRnr ||
           type == Ax25FrameType::kRej || type == Ax25FrameType::kSrej;
  }

  // One control byte, or two for I/S frames in modulo-128 operation.
  std::size_t ControlLength() const {
    return (modulus == Ax25Modulus::kMod128 &&
            (type == Ax25FrameType::kI || IsSupervisory()))
               ? 2
               : 1;
  }

  // Address block + control (+ PID) length for this frame.
  std::size_t HeaderLength() const {
    return (2 + digipeaters.size()) * kAx25AddressBytes + ControlLength() +
           (HasPid() ? 1 : 0);
  }

  // Prepends the frame header in front of `pb`, whose current data becomes
  // the info field. The header is built in a small stack buffer and lands in
  // headroom with a single prepend. `info` is ignored — the PacketBuf carries
  // the payload on the datapath.
  void EncodeTo(PacketBuf* pb) const;

  Bytes Encode() const;
  static std::optional<Ax25Frame> Decode(
      ByteView wire, Ax25Modulus modulus = Ax25Modulus::kMod8);

  struct DecodedView;
  // As Decode, but the info field stays a non-owning view into `wire`
  // (frame.info is left empty). Valid only while the wire buffer lives.
  // `modulus` selects the control-field width used to parse I and S frames;
  // both widths classify I/S/U identically from the first control byte, so a
  // mod-8 parse of mod-128 bytes gets the type right and only the sequence
  // numbers wrong — which is why the driver can pre-parse with kMod8 and the
  // LAPB layer re-parse the raw wire for extended-mode connections.
  static std::optional<DecodedView> DecodeView(
      ByteView wire, Ax25Modulus modulus = Ax25Modulus::kMod8);

  // True when every listed digipeater has already repeated the frame (or the
  // list is empty) — i.e. the frame is ready for its final destination.
  bool DigipeatingComplete() const;
  // Next digipeater that has not yet repeated, or nullptr.
  const Ax25Digipeater* NextDigipeater() const;
  Ax25Digipeater* NextDigipeater();

  std::string ToString() const;

  bool HasPid() const {
    return type == Ax25FrameType::kI || type == Ax25FrameType::kUi;
  }

  bool CarriesInfo() const {
    return type == Ax25FrameType::kI || type == Ax25FrameType::kUi ||
           type == Ax25FrameType::kFrmr || type == Ax25FrameType::kXid;
  }
};

struct Ax25Frame::DecodedView {
  Ax25Frame frame;  // info empty; see `info` below
  ByteView info;
};

}  // namespace upr

#endif  // SRC_AX25_FRAME_H_
