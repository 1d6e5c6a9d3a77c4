#include "src/ax25/frame.h"

#include <cstdio>
#include <cstring>

#include "src/trace/trace.h"

namespace upr {

namespace {

// Unnumbered-frame control values with the P/F bit masked out.
constexpr std::uint8_t kCtlSabm = 0x2F;
constexpr std::uint8_t kCtlSabme = 0x6F;
constexpr std::uint8_t kCtlDisc = 0x43;
constexpr std::uint8_t kCtlUa = 0x63;
constexpr std::uint8_t kCtlDm = 0x0F;
constexpr std::uint8_t kCtlUi = 0x03;
constexpr std::uint8_t kCtlXid = 0xAF;
constexpr std::uint8_t kCtlFrmr = 0x87;
constexpr std::uint8_t kPfBit = 0x10;

// Supervisory codes: the low nibble of the (first) control byte.
constexpr std::uint8_t kSupRr = 0x01;
constexpr std::uint8_t kSupRnr = 0x05;
constexpr std::uint8_t kSupRej = 0x09;
constexpr std::uint8_t kSupSrej = 0x0D;

std::uint8_t SupervisoryCode(Ax25FrameType t) {
  switch (t) {
    case Ax25FrameType::kRr:
      return kSupRr;
    case Ax25FrameType::kRnr:
      return kSupRnr;
    case Ax25FrameType::kRej:
      return kSupRej;
    default:
      return kSupSrej;
  }
}

std::uint8_t ControlByte(const Ax25Frame& f) {
  std::uint8_t pf = f.poll_final ? kPfBit : 0;
  switch (f.type) {
    case Ax25FrameType::kI:
      return static_cast<std::uint8_t>((f.nr & 7) << 5 | pf | (f.ns & 7) << 1);
    case Ax25FrameType::kRr:
    case Ax25FrameType::kRnr:
    case Ax25FrameType::kRej:
    case Ax25FrameType::kSrej:
      return static_cast<std::uint8_t>((f.nr & 7) << 5 | pf |
                                       SupervisoryCode(f.type));
    case Ax25FrameType::kSabm:
      return kCtlSabm | pf;
    case Ax25FrameType::kSabme:
      return kCtlSabme | pf;
    case Ax25FrameType::kDisc:
      return kCtlDisc | pf;
    case Ax25FrameType::kUa:
      return kCtlUa | pf;
    case Ax25FrameType::kDm:
      return kCtlDm | pf;
    case Ax25FrameType::kUi:
      return kCtlUi | pf;
    case Ax25FrameType::kXid:
      return kCtlXid | pf;
    case Ax25FrameType::kFrmr:
      return kCtlFrmr | pf;
    case Ax25FrameType::kUnknown:
      return kCtlUi;
  }
  return kCtlUi;
}

// Appends a big-endian PI/PL/PV triple.
void PutXidParam(Bytes* out, std::uint8_t pi, std::uint32_t value,
                 std::size_t len) {
  out->push_back(pi);
  out->push_back(static_cast<std::uint8_t>(len));
  for (std::size_t i = len; i-- > 0;) {
    out->push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

}  // namespace

const char* Ax25FrameTypeName(Ax25FrameType t) {
  switch (t) {
    case Ax25FrameType::kI:
      return "I";
    case Ax25FrameType::kRr:
      return "RR";
    case Ax25FrameType::kRnr:
      return "RNR";
    case Ax25FrameType::kRej:
      return "REJ";
    case Ax25FrameType::kSrej:
      return "SREJ";
    case Ax25FrameType::kSabm:
      return "SABM";
    case Ax25FrameType::kSabme:
      return "SABME";
    case Ax25FrameType::kDisc:
      return "DISC";
    case Ax25FrameType::kUa:
      return "UA";
    case Ax25FrameType::kDm:
      return "DM";
    case Ax25FrameType::kUi:
      return "UI";
    case Ax25FrameType::kXid:
      return "XID";
    case Ax25FrameType::kFrmr:
      return "FRMR";
    case Ax25FrameType::kUnknown:
      return "?";
  }
  return "?";
}

Ax25Frame Ax25Frame::MakeUi(const Ax25Address& dst, const Ax25Address& src,
                            std::uint8_t pid, Bytes info,
                            std::vector<Ax25Digipeater> digis) {
  Ax25Frame f;
  f.destination = dst;
  f.source = src;
  f.digipeaters = std::move(digis);
  f.command = true;
  f.type = Ax25FrameType::kUi;
  f.pid = pid;
  f.info = std::move(info);
  return f;
}

bool Ax25Frame::DigipeatingComplete() const {
  for (const auto& d : digipeaters) {
    if (!d.repeated) {
      return false;
    }
  }
  return true;
}

const Ax25Digipeater* Ax25Frame::NextDigipeater() const {
  for (const auto& d : digipeaters) {
    if (!d.repeated) {
      return &d;
    }
  }
  return nullptr;
}

Ax25Digipeater* Ax25Frame::NextDigipeater() {
  for (auto& d : digipeaters) {
    if (!d.repeated) {
      return &d;
    }
  }
  return nullptr;
}

void Ax25Frame::EncodeTo(PacketBuf* pb) const {
  BufLayerScope scope(BufLayer::kAx25);
  std::uint8_t* h = pb->Prepend(HeaderLength());
  std::size_t pos = 0;

  // Address field. AX.25 v2.0 command/response encoding: a command frame has
  // the C bit set in the destination and clear in the source; a response the
  // opposite.
  bool last_is_dst_src = digipeaters.empty();
  auto dst = destination.Encode(command, false);
  std::memcpy(h + pos, dst.data(), kAx25AddressBytes);
  pos += kAx25AddressBytes;
  auto src = source.Encode(!command, last_is_dst_src);
  std::memcpy(h + pos, src.data(), kAx25AddressBytes);
  pos += kAx25AddressBytes;
  for (std::size_t i = 0; i < digipeaters.size(); ++i) {
    bool last = (i + 1 == digipeaters.size());
    auto d = digipeaters[i].address.Encode(digipeaters[i].repeated, last);
    std::memcpy(h + pos, d.data(), kAx25AddressBytes);
    pos += kAx25AddressBytes;
  }

  if (ControlLength() == 2) {
    // Extended (mod-128) control: seven-bit N(S)/N(R), P/F in bit 0 of the
    // second byte.
    std::uint8_t pf = poll_final ? 0x01 : 0x00;
    if (type == Ax25FrameType::kI) {
      h[pos++] = static_cast<std::uint8_t>((ns & 0x7F) << 1);
    } else {
      h[pos++] = SupervisoryCode(type);
    }
    h[pos++] = static_cast<std::uint8_t>((nr & 0x7F) << 1 | pf);
  } else {
    h[pos++] = ControlByte(*this);
  }
  if (HasPid()) {
    h[pos++] = pid;
  }
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kAx25, trace::Kind::kAx25Encode,
              trace::CurrentDir(), {}, pb->view(), ToString());
  }
}

Bytes Ax25Frame::Encode() const {
  // Exact-fit PacketBuf (headroom == header length), so Release() moves the
  // storage out: same one-allocation cost as direct serialization.
  ByteView payload = CarriesInfo() ? ByteView(info) : ByteView();
  PacketBuf pb = PacketBuf::FromView(payload, HeaderLength());
  EncodeTo(&pb);
  return pb.Release();
}

std::optional<Ax25Frame::DecodedView> Ax25Frame::DecodeView(
    ByteView wire, Ax25Modulus modulus) {
  // Minimum: dst + src + control.
  if (wire.size() < 2 * kAx25AddressBytes + 1) {
    return std::nullopt;
  }
  Ax25Frame f;
  f.modulus = modulus;
  std::size_t pos = 0;

  auto dst = Ax25Address::Decode(wire.data() + pos);
  if (!dst) {
    return std::nullopt;
  }
  pos += kAx25AddressBytes;
  auto src = Ax25Address::Decode(wire.data() + pos);
  if (!src) {
    return std::nullopt;
  }
  pos += kAx25AddressBytes;

  f.destination = dst->address;
  f.source = src->address;
  // C bits: command when dst C=1 / src C=0. Old (v1) frames set both the
  // same; treat those as commands.
  f.command = dst->c_or_h_bit || !src->c_or_h_bit;

  bool last = src->last;
  while (!last) {
    if (f.digipeaters.size() >= kMaxDigipeaters ||
        pos + kAx25AddressBytes > wire.size()) {
      return std::nullopt;
    }
    auto digi = Ax25Address::Decode(wire.data() + pos);
    if (!digi) {
      return std::nullopt;
    }
    pos += kAx25AddressBytes;
    f.digipeaters.push_back(Ax25Digipeater{digi->address, digi->c_or_h_bit});
    last = digi->last;
  }

  if (pos >= wire.size()) {
    return std::nullopt;
  }
  std::uint8_t ctl = wire[pos++];
  bool extended =
      modulus == Ax25Modulus::kMod128 && (ctl & 0x03) != 0x03;  // I or S
  if (extended) {
    if (pos >= wire.size()) {
      return std::nullopt;
    }
    std::uint8_t ctl2 = wire[pos++];
    f.poll_final = (ctl2 & 0x01) != 0;
    f.nr = (ctl2 >> 1) & 0x7F;
    if ((ctl & 0x01) == 0) {
      f.type = Ax25FrameType::kI;
      f.ns = (ctl >> 1) & 0x7F;
    } else {
      switch (ctl & 0x0F) {
        case kSupRr:
          f.type = Ax25FrameType::kRr;
          break;
        case kSupRnr:
          f.type = Ax25FrameType::kRnr;
          break;
        case kSupRej:
          f.type = Ax25FrameType::kRej;
          break;
        case kSupSrej:
          f.type = Ax25FrameType::kSrej;
          break;
        default:
          f.type = Ax25FrameType::kUnknown;
          break;
      }
    }
  } else if ((ctl & 0x01) == 0) {
    f.poll_final = (ctl & kPfBit) != 0;
    f.type = Ax25FrameType::kI;
    f.ns = (ctl >> 1) & 7;
    f.nr = (ctl >> 5) & 7;
  } else if ((ctl & 0x03) == 0x01) {
    f.poll_final = (ctl & kPfBit) != 0;
    f.nr = (ctl >> 5) & 7;
    switch (ctl & 0x0F) {
      case kSupRr:
        f.type = Ax25FrameType::kRr;
        break;
      case kSupRnr:
        f.type = Ax25FrameType::kRnr;
        break;
      case kSupRej:
        f.type = Ax25FrameType::kRej;
        break;
      case kSupSrej:
        f.type = Ax25FrameType::kSrej;
        break;
      default:
        f.type = Ax25FrameType::kUnknown;
        break;
    }
  } else {
    f.poll_final = (ctl & kPfBit) != 0;
    switch (ctl & ~kPfBit) {
      case kCtlSabm:
        f.type = Ax25FrameType::kSabm;
        break;
      case kCtlSabme:
        f.type = Ax25FrameType::kSabme;
        break;
      case kCtlDisc:
        f.type = Ax25FrameType::kDisc;
        break;
      case kCtlUa:
        f.type = Ax25FrameType::kUa;
        break;
      case kCtlDm:
        f.type = Ax25FrameType::kDm;
        break;
      case kCtlUi:
        f.type = Ax25FrameType::kUi;
        break;
      case kCtlXid:
        f.type = Ax25FrameType::kXid;
        break;
      case kCtlFrmr:
        f.type = Ax25FrameType::kFrmr;
        break;
      default:
        f.type = Ax25FrameType::kUnknown;
        break;
    }
  }

  if (f.HasPid()) {
    if (pos >= wire.size()) {
      return std::nullopt;
    }
    f.pid = wire[pos++];
  }
  DecodedView out;
  out.frame = std::move(f);
  out.info = wire.subspan(pos);
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kAx25, trace::Kind::kAx25Decode,
              trace::CurrentDir(), {}, wire, out.frame.ToString());
  }
  return out;
}

std::optional<Ax25Frame> Ax25Frame::Decode(ByteView wire, Ax25Modulus modulus) {
  std::optional<DecodedView> v = DecodeView(wire, modulus);
  if (!v) {
    return std::nullopt;
  }
  Ax25Frame f = std::move(v->frame);
  {
    BufLayerScope scope(BufLayer::kAx25);
    if (!v->info.empty()) {
      BufNoteAlloc();
      BufNoteCopy(v->info.size());
    }
  }
  f.info.assign(v->info.begin(), v->info.end());
  return f;
}

std::string Ax25Frame::ToString() const {
  std::string out = source.ToString() + ">" + destination.ToString();
  for (const auto& d : digipeaters) {
    out += "," + d.address.ToString();
    if (d.repeated) {
      out += "*";
    }
  }
  out += " ";
  out += Ax25FrameTypeName(type);
  if (type == Ax25FrameType::kI) {
    out += " NS=" + std::to_string(ns) + " NR=" + std::to_string(nr);
  } else if (IsSupervisory()) {
    out += " NR=" + std::to_string(nr);
  }
  if (HasPid()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), " PID=%02x", pid);
    out += buf;
  }
  if (!info.empty()) {
    out += " len=" + std::to_string(info.size());
  }
  return out;
}

Bytes Ax25XidParams::Encode() const {
  // Parameter values take the minimum big-endian width that fits, matching
  // the fixed widths every fielded v2.2 implementation emits (2/3/2/1/2/1 for
  // the defaults).
  Bytes body;
  PutXidParam(&body, kXidPiClassesOfProcedures, classes, 2);
  PutXidParam(&body, kXidPiOptionalFunctions, optional_functions,
              optional_functions > 0xFFFFFF ? 4 : 3);
  PutXidParam(&body, kXidPiIFieldLengthRx, i_field_length_rx,
              i_field_length_rx > 0xFFFF ? 4 : 2);
  PutXidParam(&body, kXidPiWindowSizeRx, window_size_rx, 1);
  PutXidParam(&body, kXidPiAckTimer, ack_timer_ms, ack_timer_ms > 0xFFFF ? 4 : 2);
  PutXidParam(&body, kXidPiRetries, retries, retries > 0xFF ? 2 : 1);

  Bytes out;
  out.reserve(4 + body.size());
  out.push_back(kXidFormatIso8885);
  out.push_back(kXidGroupParameters);
  out.push_back(static_cast<std::uint8_t>(body.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(body.size() & 0xFF));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<Ax25XidParams> Ax25XidParams::Decode(ByteView info) {
  if (info.size() < 4 || info[0] != kXidFormatIso8885 ||
      info[1] != kXidGroupParameters) {
    return std::nullopt;
  }
  std::size_t group_len = static_cast<std::size_t>(info[2]) << 8 | info[3];
  if (4 + group_len > info.size()) {
    return std::nullopt;
  }
  Ax25XidParams p;
  // Absent parameters keep the v2.2 defaults, per the spec's negotiation
  // rules, which the struct initializers already encode.
  std::size_t pos = 4;
  std::size_t end = 4 + group_len;
  while (pos + 2 <= end) {
    std::uint8_t pi = info[pos];
    std::uint8_t pl = info[pos + 1];
    pos += 2;
    if (pos + pl > end || pl > 4) {
      return std::nullopt;
    }
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < pl; ++i) {
      value = value << 8 | info[pos + i];
    }
    pos += pl;
    switch (pi) {
      case kXidPiClassesOfProcedures:
        // The field is 16 bits on the wire; a wider PV is a malformed frame,
        // not a bigger value — truncating would invent a different class set.
        if (value > 0xFFFF) {
          return std::nullopt;
        }
        p.classes = static_cast<std::uint16_t>(value);
        break;
      case kXidPiOptionalFunctions:
        p.optional_functions = value;
        break;
      case kXidPiIFieldLengthRx:
        p.i_field_length_rx = value;
        break;
      case kXidPiWindowSizeRx:
        // Negotiation treats the peer's window as an upper bound, so an
        // out-of-range request (a 2-byte PV like 0x0180 used to truncate to
        // 128 and overflow the u8) clamps to the mod-128 maximum.
        p.window_size_rx = value > 127 ? 127 : static_cast<std::uint8_t>(value);
        break;
      case kXidPiAckTimer:
        p.ack_timer_ms = value;
        break;
      case kXidPiRetries:
        // N2 beyond 255 is nonsense for any fielded TNC; clamp like window.
        p.retries = value > 255 ? 255 : value;
        break;
      default:
        break;  // unknown PI: skip
    }
  }
  if (pos != end) {
    // A dangling byte is a truncated PI/PL header. Silently ignoring it used
    // to mask corrupted groups as successful negotiations.
    return std::nullopt;
  }
  return p;
}

}  // namespace upr
