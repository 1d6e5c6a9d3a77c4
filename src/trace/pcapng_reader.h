// Minimal pcapng reader — just enough structure validation to round-trip the
// writer's output in tests: block framing (leading length == trailing length,
// 32-bit alignment, no overrun), section byte order, interface description
// blocks (link type, name, timestamp resolution) and enhanced packet blocks
// (interface id bounds, timestamps, captured data, flags/comment options).
// Unknown block types are preserved raw, so concatenating `raw_blocks`
// reconstructs the input byte-for-byte.
#ifndef SRC_TRACE_PCAPNG_READER_H_
#define SRC_TRACE_PCAPNG_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/byte_buffer.h"

namespace upr::trace {

struct PcapngInterface {
  std::uint16_t link_type = 0;
  std::uint32_t snaplen = 0;
  std::string name;
  std::uint8_t tsresol = 6;  // pcapng default: microseconds
};

struct PcapngPacket {
  std::uint32_t interface_id = 0;
  std::uint64_t timestamp = 0;  // units of 10^-tsresol s for its interface
  std::uint32_t captured_len = 0;
  std::uint32_t orig_len = 0;
  Bytes data;
  std::uint32_t flags = 0;  // epb_flags, 0 when absent
  std::string comment;
};

struct PcapngFile {
  std::vector<PcapngInterface> interfaces;
  std::vector<PcapngPacket> packets;
  // Every block in file order, raw (type + lengths included).
  std::vector<Bytes> raw_blocks;

  // Parses `file`; returns nullopt (and sets `*error` when given) on any
  // structural violation. Little-endian sections only — which is what the
  // in-repo writer produces.
  static std::optional<PcapngFile> Parse(ByteView file,
                                         std::string* error = nullptr);
  // Reads and parses the file at `path`; errors name the path.
  static std::optional<PcapngFile> Load(const std::string& path,
                                        std::string* error = nullptr);
};

}  // namespace upr::trace

#endif  // SRC_TRACE_PCAPNG_READER_H_
