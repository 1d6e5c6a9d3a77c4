// Checksums used by the stack.
//
// `Crc16Ccitt` is the HDLC frame-check sequence AX.25 uses on the air (the
// TNC computes/verifies it; KISS frames exclude it). `InternetChecksum` is
// the 16-bit one's-complement sum used by IPv4/ICMP/TCP/UDP.
//
// Both hot paths are table/word-parallel implementations (slice-by-8 CRC,
// 64-bit one's-complement accumulation); the original bitwise/byte-pair
// implementations are retained as `*Reference` and cross-checked
// exhaustively in tests/crc_test.cc — the fast versions must stay
// byte-identical.
#ifndef SRC_UTIL_CRC_H_
#define SRC_UTIL_CRC_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/util/byte_buffer.h"

namespace upr {

// CRC-16/X-25 (reflected, poly 0x1021, init 0xFFFF, xorout 0xFFFF) — the HDLC
// FCS transmitted after each AX.25 frame on the radio channel. Slice-by-8:
// eight 256-entry tables, one table lookup per input byte, eight bytes per
// step.
std::uint16_t Crc16Ccitt(const std::uint8_t* data, std::size_t len);
std::uint16_t Crc16Ccitt(const Bytes& b);

// HDLC framing of an AX.25 frame: AppendFcs adds the FCS to a frame body,
// low byte first. CheckFcs returns the body of a frame whose trailing FCS
// checks, or nullopt when it fails or the frame is shorter than the FCS.
void AppendFcs(Bytes* frame);
std::optional<ByteView> CheckFcs(ByteView frame);

// The original table-free bitwise implementation (one shift/xor per bit).
// Kept as the oracle for the exhaustive cross-check test and the A/B bench;
// not used on the datapath.
std::uint16_t Crc16CcittReference(const std::uint8_t* data, std::size_t len);

// RFC 1071 Internet checksum over `data`, starting from `initial` (used to
// fold in pseudo-headers). Returns the final one's-complement value in host
// order, ready to store with ByteWriter::WriteU16.
std::uint16_t InternetChecksum(const std::uint8_t* data, std::size_t len,
                               std::uint32_t initial = 0);
std::uint16_t InternetChecksum(const Bytes& b, std::uint32_t initial = 0);

// Partial (unfolded) sum for composing pseudo-header + payload checksums.
//
// NOTE on chaining: a partial sum treats its buffer as a sequence of
// big-endian 16-bit words; an odd final byte is padded as the HIGH half of a
// last word. Chaining `ChecksumPartial(b, ChecksumPartial(a))` is therefore
// only equivalent to a flattened sum when `a` has even length — an odd-length
// first chunk must carry its dangling byte into the next chunk as that
// word's LOW half. Use ChecksumAccumulator for segment chains that may split
// at odd offsets (see tests/crc_test.cc property tests).
std::uint32_t ChecksumPartial(const std::uint8_t* data, std::size_t len,
                              std::uint32_t initial = 0);
std::uint16_t ChecksumFinish(std::uint32_t sum);

// The original byte-pair implementation, kept as the cross-check oracle.
std::uint32_t ChecksumPartialReference(const std::uint8_t* data, std::size_t len,
                                       std::uint32_t initial = 0);

// Odd-offset-safe chained Internet checksum: feeding segments of any lengths
// yields exactly the checksum of the flattened byte sequence, including when
// a segment boundary falls mid-word.
class ChecksumAccumulator {
 public:
  void Add(const std::uint8_t* data, std::size_t len);
  void Add(ByteView v) { Add(v.data(), v.size()); }

  // Partial sum so far, in the same convention as ChecksumPartial (a
  // trailing unpaired byte counts as the high half of a final word).
  std::uint32_t Sum() const { return sum_; }
  std::uint16_t Finish() const { return ChecksumFinish(sum_); }

 private:
  std::uint32_t sum_ = 0;
  bool odd_ = false;  // previous segments ended mid-word
};

}  // namespace upr

#endif  // SRC_UTIL_CRC_H_
