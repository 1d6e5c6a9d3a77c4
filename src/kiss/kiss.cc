#include "src/kiss/kiss.h"

#include <algorithm>
#include <cstring>

#include "src/trace/trace.h"

namespace upr {

namespace {

inline bool NeedsEscape(std::uint8_t b) {
  return b == kKissFend || b == kKissFesc;
}

// First FEND or FESC in [p, end), or end. memchr beats a byte loop by an
// order of magnitude on the long ordinary-byte runs real frames are made of.
inline const std::uint8_t* FindSpecial(const std::uint8_t* p,
                                       const std::uint8_t* end) {
  std::size_t n = static_cast<std::size_t>(end - p);
  auto* fend = static_cast<const std::uint8_t*>(std::memchr(p, kKissFend, n));
  if (fend != nullptr) {
    end = fend;
    n = static_cast<std::size_t>(end - p);
  }
  auto* fesc = static_cast<const std::uint8_t*>(std::memchr(p, kKissFesc, n));
  return fesc != nullptr ? fesc : end;
}

}  // namespace

void KissEncodeInto(ByteView payload, Bytes* out, std::uint8_t port,
                    KissCommand command) {
  BufLayerScope scope(BufLayer::kKiss);
  std::uint8_t type;
  if (command == KissCommand::kReturn) {
    type = 0xFF;
  } else {
    type = static_cast<std::uint8_t>((port & 0x0F) << 4) |
           (static_cast<std::uint8_t>(command) & 0x0F);
  }
  // Resize once to the worst case (every byte escaped), write through a raw
  // pointer, trim to the actual size at the end. This is the hottest loop of
  // the gateway forward path: one memcpy per run of ordinary bytes,
  // byte-at-a-time work only at the escapes, no capacity check per byte and
  // no counting pre-pass. The old encoder reserved only payload + 4 and
  // reallocated mid-encode on escape-dense frames.
  std::size_t base = out->size();
  std::size_t worst = base + 4 + 2 * payload.size();
  // Only a resize past the current capacity touches the heap: a reused wire
  // buffer (cleared between frames, capacity retained) encodes alloc-free.
  bool grew = worst > out->capacity();
  out->resize(worst);
  if (grew) {
    BufNoteAlloc();
  }
  std::uint8_t* w = out->data() + base;
  *w++ = kKissFend;
  if (NeedsEscape(type)) {
    *w++ = kKissFesc;
    *w++ = type == kKissFend ? kKissTfend : kKissTfesc;
  } else {
    *w++ = type;
  }
  const std::uint8_t* p = payload.data();
  const std::uint8_t* end = p + payload.size();
  while (p < end) {
    const std::uint8_t* run = FindSpecial(p, end);
    std::memcpy(w, p, static_cast<std::size_t>(run - p));
    w += run - p;
    if (run < end) {
      *w++ = kKissFesc;
      *w++ = *run == kKissFend ? kKissTfend : kKissTfesc;
      ++run;
    }
    p = run;
  }
  *w++ = kKissFend;
  std::size_t encoded = static_cast<std::size_t>(w - (out->data() + base));
  out->resize(base + encoded);
  BufNoteCopy(encoded);
  if (auto* t = trace::Active()) {
    if (command == KissCommand::kData) {
      // The payload of a data frame is a complete AX.25 frame (no FCS) —
      // exactly one LINKTYPE_AX25_KISS packet.
      t->RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                     trace::Dir::kNone, {}, payload, {}, port);
    } else {
      t->Record(trace::Layer::kKiss, trace::Kind::kKissFrameOut,
                trace::CurrentDir(), {}, payload,
                "cmd=" + std::to_string(static_cast<int>(command)));
    }
  }
}

Bytes KissEncode(const KissFrame& frame) {
  Bytes out;
  KissEncodeInto(frame.payload, &out, frame.port, frame.command);
  return out;
}

Bytes KissEncodeData(const Bytes& ax25_frame, std::uint8_t port) {
  Bytes out;
  KissEncodeInto(ax25_frame, &out, port, KissCommand::kData);
  return out;
}

void KissDecoder::Feed(const Bytes& bytes) { Feed(bytes.data(), bytes.size()); }

void KissDecoder::Feed(const std::uint8_t* data, std::size_t len) {
  std::size_t i = 0;
  while (i < len) {
    std::uint8_t b = data[i];
    if (state_ == State::kInFrame && b != kKissFend && b != kKissFesc) {
      // Bulk-append the run of ordinary bytes up to the next special byte.
      std::size_t j = static_cast<std::size_t>(
          FindSpecial(data + i + 1, data + len) - data);
      if (current_.size() + (j - i) > max_frame_) {
        ++oversize_drops_;
        current_.clear();
        state_ = State::kDiscard;
      } else {
        current_.insert(current_.end(), data + i, data + j);
      }
      i = j;
      continue;
    }
    if (state_ == State::kDiscard && b != kKissFend) {
      // Skip straight to the resynchronizing FEND.
      auto* fend = static_cast<const std::uint8_t*>(
          std::memchr(data + i + 1, kKissFend, len - i - 1));
      i = fend != nullptr ? static_cast<std::size_t>(fend - data) : len;
      continue;
    }
    Feed(b);
    ++i;
  }
}

void KissDecoder::Reset() {
  current_.clear();
  state_ = State::kIdle;
}

void KissDecoder::EmitFrame() {
  if (current_.empty()) {
    // Back-to-back FENDs between frames: ignore.
    return;
  }
  std::uint8_t type = current_[0];
  std::uint8_t port;
  KissCommand command;
  if (type == 0xFF) {
    port = 0x0F;
    command = KissCommand::kReturn;
  } else if ((type & 0x0F) == 0x0F) {
    // Command nibble 0xF is only defined as the full 0xFF "return" byte.
    // Mapping 0x1F..0xEF to kReturn used to forget the port nibble: the
    // frame re-encoded as 0xFF and came back on port 15.
    ++protocol_errors_;
    current_.clear();
    return;
  } else {
    port = static_cast<std::uint8_t>(type >> 4);
    command = static_cast<KissCommand>(type & 0x0F);
  }
  ++frames_decoded_;
  // Aliases current_, which is cleared only after the callback.
  ByteView payload(current_.data() + 1, current_.size() - 1);
  if (auto* t = trace::Active()) {
    if (command == KissCommand::kData) {
      t->RecordFrame(trace::Layer::kKiss, trace::Kind::kKissFrameIn,
                     trace::Dir::kNone, {}, payload, {}, port);
    } else {
      t->Record(trace::Layer::kKiss, trace::Kind::kKissFrameIn,
                trace::CurrentDir(), {}, payload,
                "cmd=" + std::to_string(static_cast<int>(command)));
    }
  }
  handler_(port, command, payload);
  current_.clear();
}

void KissDecoder::Accept(std::uint8_t byte) {
  if (current_.size() >= max_frame_) {
    ++oversize_drops_;
    current_.clear();
    state_ = State::kDiscard;
    return;
  }
  current_.push_back(byte);
}

void KissDecoder::Feed(std::uint8_t byte) {
  switch (state_) {
    case State::kIdle:
      if (byte == kKissFend) {
        return;  // idle fill between frames
      }
      state_ = State::kInFrame;
      [[fallthrough]];
    case State::kInFrame:
      if (byte == kKissFend) {
        EmitFrame();
        state_ = State::kIdle;
      } else if (byte == kKissFesc) {
        state_ = State::kInEscape;
      } else {
        Accept(byte);
        if (state_ == State::kDiscard) {
          return;
        }
      }
      return;
    case State::kInEscape:
      if (byte == kKissTfend) {
        Accept(kKissFend);
      } else if (byte == kKissTfesc) {
        Accept(kKissFesc);
      } else if (byte == kKissFend) {
        // Frame ended mid-escape (dangling FESC). Drop the frame per the
        // Chepponis/Karn spec, but the FEND is still a frame delimiter: go
        // straight back to idle. Entering kDiscard here would swallow this
        // FEND and throw away the entire next (valid) frame with it.
        ++protocol_errors_;
        ++bad_escapes_;
        current_.clear();
        state_ = State::kIdle;
        return;
      } else {
        // Invalid escape (FESC followed by neither TFEND nor TFESC): abort
        // the frame rather than emitting garbage, resync at next FEND.
        ++protocol_errors_;
        ++bad_escapes_;
        current_.clear();
        state_ = State::kDiscard;
        return;
      }
      if (state_ != State::kDiscard) {
        state_ = State::kInFrame;
      }
      return;
    case State::kDiscard:
      if (byte == kKissFend) {
        state_ = State::kIdle;
      }
      return;
  }
}

}  // namespace upr
