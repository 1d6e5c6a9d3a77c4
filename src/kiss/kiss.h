// KISS host<->TNC framing protocol (Chepponis & Karn, 6th ARRL CNC, 1987).
//
// The host sends the TNC asynchronous frames delimited by FEND bytes, with
// FEND/FESC occurrences inside the payload transposed. The first byte of each
// frame carries the port number (high nibble) and command (low nibble);
// command 0 is a data frame containing a raw AX.25 frame *without* the FCS
// (the TNC computes/verifies the FCS itself).
//
// `KissEncoder` produces the serial byte stream for a frame. `KissDecoder` is
// a streaming decoder designed to be fed one byte at a time — exactly how the
// paper's per-character tty interrupt handler consumes it ("escaped frame end
// characters ... are decoded [on the fly]", §2.2).
#ifndef SRC_KISS_KISS_H_
#define SRC_KISS_KISS_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "src/util/byte_buffer.h"
#include "src/util/packet_buf.h"

namespace upr {

// Special characters.
inline constexpr std::uint8_t kKissFend = 0xC0;
inline constexpr std::uint8_t kKissFesc = 0xDB;
inline constexpr std::uint8_t kKissTfend = 0xDC;
inline constexpr std::uint8_t kKissTfesc = 0xDD;

// Command nibble values.
enum class KissCommand : std::uint8_t {
  kData = 0x0,
  kTxDelay = 0x1,
  kPersistence = 0x2,
  kSlotTime = 0x3,
  kTxTail = 0x4,
  kFullDuplex = 0x5,
  kSetHardware = 0x6,
  kReturn = 0xF,  // exit KISS mode (type byte 0xFF on port 15)
};

struct KissFrame {
  std::uint8_t port = 0;
  KissCommand command = KissCommand::kData;
  Bytes payload;
};

// Escape-writes one KISS frame onto the end of `*out` (leading and trailing
// FENDs included). This is the datapath's single wire-write: the payload view
// typically points straight into the PacketBuf that was carried down the
// stack. The output is reserved at its exact encoded size up front (two bytes
// per FEND/FESC occurrence), so even escape-dense frames never reallocate
// mid-encode.
void KissEncodeInto(ByteView payload, Bytes* out, std::uint8_t port = 0,
                    KissCommand command = KissCommand::kData);

// Encodes one KISS frame into the on-the-wire byte stream, including leading
// and trailing FENDs.
Bytes KissEncode(const KissFrame& frame);

// Convenience: encodes an AX.25 data frame for `port`.
Bytes KissEncodeData(const Bytes& ax25_frame, std::uint8_t port = 0);

// Streaming decoder. Feed bytes as they arrive; complete frames are delivered
// through the callback. Tolerates idle FENDs between frames. A FESC followed
// by anything other than TFEND/TFESC aborts the current frame (counted in
// protocol_errors and bad_escapes) per the Chepponis/Karn spec: a FESC-FEND
// drops the frame and the FEND still delimits (the next frame decodes
// normally); any other invalid escape discards up to the next FEND. Frames
// longer than `max_frame` are dropped (counted in oversize_drops). Delivery is
// zero-copy: the payload view aliases the decoder's buffer and is valid only
// during the callback; a handler copies (and accounts for) what it keeps.
class KissDecoder {
 public:
  using FrameHandler =
      std::function<void(std::uint8_t port, KissCommand command, ByteView payload)>;

  explicit KissDecoder(FrameHandler handler, std::size_t max_frame = 4096)
      : handler_(std::move(handler)), max_frame_(max_frame) {}

  void Feed(std::uint8_t byte);
  // Chunked feed, for silo-mode serial delivery: behaves exactly as feeding
  // each byte in turn (same frames, same error counters), but ordinary
  // payload runs are appended in bulk instead of byte-by-byte.
  void Feed(const std::uint8_t* data, std::size_t len);
  void Feed(const Bytes& bytes);

  // Drops any partial frame and resynchronizes to the next FEND.
  void Reset();

  std::uint64_t frames_decoded() const { return frames_decoded_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }
  // Invalid escapes specifically (FESC + neither TFEND nor TFESC, including
  // frames that end mid-escape). Subset of protocol_errors.
  std::uint64_t bad_escapes() const { return bad_escapes_; }
  std::uint64_t oversize_drops() const { return oversize_drops_; }

 private:
  enum class State { kIdle, kInFrame, kInEscape, kDiscard };

  void EmitFrame();
  void Accept(std::uint8_t byte);

  FrameHandler handler_;
  std::size_t max_frame_;
  State state_ = State::kIdle;
  Bytes current_;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t bad_escapes_ = 0;
  std::uint64_t oversize_drops_ = 0;
};

}  // namespace upr

#endif  // SRC_KISS_KISS_H_
