#include "src/trace/pcapng_reader.h"

#include <cstdio>
#include <functional>

#include "src/trace/pcapng_writer.h"

namespace upr::trace {

namespace {

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
  return false;
}

// Walks the options region [p, end), invoking `on_option(code, value_view)`.
bool ParseOptions(const std::uint8_t* p, const std::uint8_t* end,
                  std::string* error,
                  const std::function<void(std::uint16_t, ByteView)>& on_option) {
  while (p < end) {
    if (end - p < 4) {
      return Fail(error, "truncated option header");
    }
    std::uint16_t code = GetU16(p);
    std::uint16_t len = GetU16(p + 2);
    p += 4;
    if (code == 0) {  // opt_endofopt
      return true;
    }
    std::size_t padded = (static_cast<std::size_t>(len) + 3) / 4 * 4;
    if (static_cast<std::size_t>(end - p) < padded) {
      return Fail(error, "option value overruns block");
    }
    on_option(code, ByteView(p, len));
    p += padded;
  }
  return true;  // options may end at the block boundary without endofopt
}

}  // namespace

std::optional<PcapngFile> PcapngFile::Parse(ByteView file, std::string* error) {
  PcapngFile out;
  std::uint8_t current_tsresol = 6;
  std::size_t pos = 0;
  bool have_section = false;

  while (pos < file.size()) {
    if (file.size() - pos < 12) {
      Fail(error, "trailing bytes too short for a block");
      return std::nullopt;
    }
    const std::uint8_t* p = file.data() + pos;
    std::uint32_t type = GetU32(p);
    std::uint32_t total = GetU32(p + 4);
    if (total < 12 || total % 4 != 0) {
      Fail(error, "bad block total length");
      return std::nullopt;
    }
    if (file.size() - pos < total) {
      Fail(error, "block overruns file");
      return std::nullopt;
    }
    if (GetU32(p + total - 4) != total) {
      Fail(error, "trailing block length mismatch");
      return std::nullopt;
    }
    const std::uint8_t* body = p + 8;
    std::size_t body_len = total - 12;

    if (type == kPcapngShbType) {
      if (body_len < 16) {
        Fail(error, "short section header");
        return std::nullopt;
      }
      if (GetU32(body) != kPcapngByteOrderMagic) {
        Fail(error, "unsupported byte order");
        return std::nullopt;
      }
      have_section = true;
    } else if (!have_section) {
      Fail(error, "block before section header");
      return std::nullopt;
    } else if (type == kPcapngIdbType) {
      if (body_len < 8) {
        Fail(error, "short interface block");
        return std::nullopt;
      }
      PcapngInterface idb;
      idb.link_type = GetU16(body);
      idb.snaplen = GetU32(body + 4);
      bool opts_ok = ParseOptions(
          body + 8, body + body_len, error,
          [&idb](std::uint16_t code, ByteView v) {
            if (code == 2) {  // if_name
              idb.name.assign(v.begin(), v.end());
            } else if (code == 9 && !v.empty()) {  // if_tsresol
              idb.tsresol = v[0];
            }
          });
      if (!opts_ok) {
        return std::nullopt;
      }
      current_tsresol = idb.tsresol;
      out.interfaces.push_back(std::move(idb));
    } else if (type == kPcapngEpbType) {
      if (body_len < 20) {
        Fail(error, "short packet block");
        return std::nullopt;
      }
      PcapngPacket pkt;
      pkt.interface_id = GetU32(body);
      pkt.timestamp = static_cast<std::uint64_t>(GetU32(body + 4)) << 32 |
                      GetU32(body + 8);
      pkt.captured_len = GetU32(body + 12);
      pkt.orig_len = GetU32(body + 16);
      std::size_t padded = (static_cast<std::size_t>(pkt.captured_len) + 3) / 4 * 4;
      if (body_len - 20 < padded) {
        Fail(error, "packet data overruns block");
        return std::nullopt;
      }
      if (pkt.interface_id >= out.interfaces.size()) {
        Fail(error, "packet references unknown interface");
        return std::nullopt;
      }
      pkt.data.assign(body + 20, body + 20 + pkt.captured_len);
      bool opts_ok = ParseOptions(
          body + 20 + padded, body + body_len, error,
          [&pkt](std::uint16_t code, ByteView v) {
            if (code == 1) {  // opt_comment
              pkt.comment.assign(v.begin(), v.end());
            } else if (code == 2 && v.size() >= 4) {  // epb_flags
              pkt.flags = GetU32(v.data());
            }
          });
      if (!opts_ok) {
        return std::nullopt;
      }
      out.packets.push_back(std::move(pkt));
    }
    // Unknown block types are tolerated (and kept raw below).

    out.raw_blocks.emplace_back(p, p + total);
    pos += total;
  }
  (void)current_tsresol;
  if (!have_section) {
    Fail(error, "no section header block");
    return std::nullopt;
  }
  return out;
}

std::optional<PcapngFile> PcapngFile::Load(const std::string& path,
                                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Fail(error, "cannot open " + path);
    return std::nullopt;
  }
  Bytes raw;
  std::uint8_t buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    raw.insert(raw.end(), buf, buf + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    Fail(error, "read error on " + path);
    return std::nullopt;
  }
  std::string parse_error;
  std::optional<PcapngFile> file = Parse(raw, &parse_error);
  if (!file) {
    Fail(error, path + ": " + parse_error);
  }
  return file;
}

}  // namespace upr::trace
