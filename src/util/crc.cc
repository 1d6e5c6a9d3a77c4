#include "src/util/crc.h"

#include <array>
#include <bit>
#include <cstring>

namespace upr {

namespace {

// Slice-by-8 tables for CRC-16/X-25. kCrcTables[0] is the classic byte-at-a-
// time table; kCrcTables[k][b] is the CRC state after processing byte `b`
// followed by `k` zero bytes from state 0, which lets eight input bytes fold
// into the running CRC with eight independent lookups (CRC is linear over
// GF(2), so contributions XOR together).
constexpr std::array<std::array<std::uint16_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint16_t, 256>, 8> t{};
  for (int b = 0; b < 256; ++b) {
    std::uint16_t crc = static_cast<std::uint16_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? static_cast<std::uint16_t>((crc >> 1) ^ 0x8408)
                      : static_cast<std::uint16_t>(crc >> 1);
    }
    t[0][static_cast<std::size_t>(b)] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (int b = 0; b < 256; ++b) {
      std::uint16_t prev = t[k - 1][static_cast<std::size_t>(b)];
      t[k][static_cast<std::size_t>(b)] =
          static_cast<std::uint16_t>((prev >> 8) ^ t[0][prev & 0xFF]);
    }
  }
  return t;
}

constexpr auto kCrcTables = MakeCrcTables();

// 64-bit one's-complement addition with end-around carry.
inline std::uint64_t AddCarry64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;
  return s + (s < a ? 1 : 0);
}

inline std::uint16_t Swap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

}  // namespace

std::uint16_t Crc16Ccitt(const std::uint8_t* data, std::size_t len) {
  const auto& t = kCrcTables;
  std::uint16_t crc = 0xFFFF;
  while (len >= 8) {
    crc = static_cast<std::uint16_t>(
        t[7][data[0] ^ (crc & 0xFF)] ^ t[6][data[1] ^ (crc >> 8)] ^
        t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^ t[2][data[5]] ^
        t[1][data[6]] ^ t[0][data[7]]);
    data += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = static_cast<std::uint16_t>((crc >> 8) ^ t[0][(crc ^ *data++) & 0xFF]);
  }
  return static_cast<std::uint16_t>(~crc);
}

std::uint16_t Crc16Ccitt(const Bytes& b) { return Crc16Ccitt(b.data(), b.size()); }

void AppendFcs(Bytes* frame) {
  std::uint16_t fcs = Crc16Ccitt(*frame);
  frame->push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  frame->push_back(static_cast<std::uint8_t>(fcs >> 8));
}

std::optional<ByteView> CheckFcs(ByteView frame) {
  if (frame.size() < 2) {
    return std::nullopt;
  }
  ByteView body = frame.first(frame.size() - 2);
  std::uint16_t fcs = static_cast<std::uint16_t>(frame[frame.size() - 2] |
                                                 frame[frame.size() - 1] << 8);
  if (Crc16Ccitt(body.data(), body.size()) != fcs) {
    return std::nullopt;
  }
  return body;
}

std::uint16_t Crc16CcittReference(const std::uint8_t* data, std::size_t len) {
  // Bitwise reflected CRC-16/X-25, one shift/xor per bit — the seed's
  // implementation, now the oracle the sliced version is checked against.
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 1) {
        crc = static_cast<std::uint16_t>((crc >> 1) ^ 0x8408);
      } else {
        crc = static_cast<std::uint16_t>(crc >> 1);
      }
    }
  }
  return static_cast<std::uint16_t>(~crc);
}

std::uint32_t ChecksumPartial(const std::uint8_t* data, std::size_t len,
                              std::uint32_t initial) {
  // Word-parallel one's-complement sum: accumulate 64 bits at a time with
  // end-around carry, fold to 16 bits, then byte-swap on little-endian hosts
  // (the one's-complement sum of 16-bit words is byte-order independent up
  // to a final swap — RFC 1071 §2B). The result is congruent to the
  // reference byte-pair sum, so folded checksums are identical; the
  // exhaustive cross-check lives in tests/crc_test.cc.
  std::uint64_t sum = 0;
  std::size_t n = len & ~std::size_t{1};
  const std::uint8_t* p = data;
  while (n >= 32) {
    std::uint64_t v0, v1, v2, v3;
    std::memcpy(&v0, p, 8);
    std::memcpy(&v1, p + 8, 8);
    std::memcpy(&v2, p + 16, 8);
    std::memcpy(&v3, p + 24, 8);
    sum = AddCarry64(sum, v0);
    sum = AddCarry64(sum, v1);
    sum = AddCarry64(sum, v2);
    sum = AddCarry64(sum, v3);
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    sum = AddCarry64(sum, v);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    sum = AddCarry64(sum, v);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t v;
    std::memcpy(&v, p, 2);
    sum = AddCarry64(sum, v);
    p += 2;
  }
  // Fold 64 -> 16 with end-around carries.
  std::uint64_t folded = (sum & 0xFFFFFFFF) + (sum >> 32);
  folded = (folded & 0xFFFF) + (folded >> 16);
  folded = (folded & 0xFFFF) + (folded >> 16);
  auto s16 = static_cast<std::uint16_t>(folded);
  if constexpr (std::endian::native == std::endian::little) {
    s16 = Swap16(s16);
  }
  std::uint32_t result = initial + s16;
  if (len & 1) {
    result += static_cast<std::uint32_t>(data[len - 1]) << 8;
  }
  return result;
}

std::uint32_t ChecksumPartialReference(const std::uint8_t* data, std::size_t len,
                                       std::uint32_t initial) {
  std::uint32_t sum = initial;
  std::size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
  }
  if (i < len) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  return sum;
}

std::uint16_t ChecksumFinish(std::uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::uint16_t InternetChecksum(const std::uint8_t* data, std::size_t len,
                               std::uint32_t initial) {
  return ChecksumFinish(ChecksumPartial(data, len, initial));
}

std::uint16_t InternetChecksum(const Bytes& b, std::uint32_t initial) {
  return InternetChecksum(b.data(), b.size(), initial);
}

void ChecksumAccumulator::Add(const std::uint8_t* data, std::size_t len) {
  if (len == 0) {
    return;
  }
  if (odd_) {
    // The previous segment ended mid-word: its dangling byte was counted as
    // the HIGH half of a word, so this segment's first byte is that word's
    // LOW half.
    sum_ += *data++;
    --len;
    odd_ = false;
  }
  sum_ += ChecksumPartial(data, len, 0);
  odd_ = (len & 1) != 0;
  // Pre-fold so arbitrarily long chains cannot overflow 32 bits.
  sum_ = (sum_ & 0xFFFF) + (sum_ >> 16);
}

}  // namespace upr
