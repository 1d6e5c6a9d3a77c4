#include "src/bridge/bridge.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <termios.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/trace/trace.h"
#include "src/util/logging.h"

namespace upr {
namespace bridge {

namespace {

constexpr const char* kTag = "bridge";

// Bytes read from the fd per dispatch (further bounded by FIFO room).
constexpr std::size_t kReadChunk = 4096;

// A "unbounded" serial FIFO defeats the backpressure contract; promote it to
// a cap a real TNC's buffer would have.
constexpr std::uint64_t kDefaultBacklogCap = 4096;

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SimTime EdgePacer::Admit(SimTime now, std::uint64_t nbytes) {
  // Continuous-traffic edge: the chunk's last byte cannot finish before the
  // previous chunk's edge plus its own wire time. Per-chunk multiplication
  // differs from the line's cumulative-count rounding by nanoseconds at
  // most, absorbed by the half-byte slack.
  SimTime cont = edge_ + byte_time_ * static_cast<SimTime>(nbytes);
  if (now + byte_time_ / 2 >= cont) {
    // Delivered at (or after) the trailing edge — the line was idle before
    // this chunk or the schedule is exact. The delivery time is the edge.
    edge_ = now;
    return now;
  }
  // Delivered ahead of the on-air completion of its last byte (the
  // silo-batch hazard): hold the bytes to the reconstructed edge.
  ++overruns_;
  edge_ = cont;
  return cont;
}

BridgePort::BridgePort(RealtimeExecutor* exec, RadioChannel* channel,
                       BridgePortConfig config)
    : exec_(exec), config_(std::move(config)), pacer_(0) {
  if (config_.serial.max_backlog == 0) {
    config_.serial.max_backlog = kDefaultBacklogCap;
  }
  line_ = std::make_unique<SerialLine>(exec_->sim(), config_.serial);
  line_->a().set_name(config_.name + " fd");
  line_->b().set_name(config_.name);
  pacer_ = EdgePacer(line_->byte_time());
  tnc_ = std::make_unique<KissTnc>(exec_->sim(), channel, &line_->b(),
                                   config_.name, config_.tnc, config_.seed);
  line_->a().set_receive_chunk_handler(
      [this](const std::uint8_t* data, std::size_t len) {
        OnSerialChunk(data, len);
      });
  hook_id_ = exec_->AddPrepareHook([this] { UpdateInterest(); });
}

BridgePort::~BridgePort() {
  DetachFd();
  exec_->RemovePrepareHook(hook_id_);
  if (release_armed_) {
    exec_->sim()->Cancel(release_event_);
    release_armed_ = false;
  }
}

std::uint64_t BridgePort::TxRoom() const { return line_->a().tx_room(); }

void BridgePort::AttachFd(int fd, bool close_on_detach) {
  DetachFd();
  if (!SetNonBlocking(fd)) {
    UPR_WARN(kTag, "%s: cannot make fd %d non-blocking: errno %d",
             config_.name.c_str(), fd, errno);
  }
  fd_ = fd;
  close_on_detach_ = close_on_detach;
  reads_on_ = true;
  ++stats_.attaches;
  // A previous client may have left the TNC out of KISS mode (kissattach
  // sends the 0xFF return command on exit) or mid-frame; a fresh attachment
  // gets a clean KISS port.
  tnc_->EnterKissMode();
  exec_->AddFd(fd_, POLLIN, [this](short revents) { OnFdReady(revents); });
  UPR_INFO(kTag, "%s: attached fd %d", config_.name.c_str(), fd);
}

void BridgePort::DetachFd() {
  if (fd_ < 0) {
    return;
  }
  exec_->RemoveFd(fd_);
  if (close_on_detach_) {
    close(fd_);
  }
  fd_ = -1;
  // The client is gone; released-but-unwritten bytes have nowhere to go.
  out_buf_.clear();
  out_off_ = 0;
}

void BridgePort::OnFdReady(short revents) {
  if (revents & POLLOUT) {
    FlushToFd();
  }
  if (revents & POLLIN) {
    ReadFromFd();
  } else if (revents & (POLLHUP | POLLERR | POLLNVAL)) {
    // Error/hangup with nothing readable: the peer is gone.
    ++stats_.disconnects;
    DetachFd();
  }
}

void BridgePort::ReadFromFd() {
  // The FIFO cap backpressures the fd: read at most the free capacity so
  // SerialEndpoint::Write never drops mid-frame; the unread remainder stays
  // in the socket/PTY buffer and blocks the external writer.
  std::uint64_t room = TxRoom();
  if (room == 0) {
    return;  // UpdateInterest drops POLLIN until the FIFO drains
  }
  std::uint8_t buf[kReadChunk];
  std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(room, sizeof buf));
  ssize_t n = read(fd_, buf, want);
  if (n > 0) {
    stats_.bytes_in += static_cast<std::uint64_t>(n);
    ByteView in(buf, static_cast<std::size_t>(n));
    if (auto* t = trace::Active()) {
      t->Record(trace::Layer::kSerial, trace::Kind::kBridgeIn, trace::Dir::kRx,
                config_.name, in);
    }
    // The executor advanced the simulator to the wall-equivalent instant
    // before dispatch, so these bytes enter the line at their arrival time.
    line_->a().Write(in);
    return;
  }
  if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    ++stats_.disconnects;
    UPR_INFO(kTag, "%s: peer closed (read %zd, errno %d)",
             config_.name.c_str(), n, n < 0 ? errno : 0);
    DetachFd();
  }
}

void BridgePort::OnSerialChunk(const std::uint8_t* data, std::size_t len) {
  SimTime release = pacer_.Admit(exec_->sim()->Now(), len);
  stats_.pacing_overruns = pacer_.overruns();
  if (auto* t = trace::Active()) {
    t->Record(trace::Layer::kSerial, trace::Kind::kBridgeOut,
              trace::Dir::kTx, config_.name, ByteView(data, len),
              release > exec_->sim()->Now() ? "paced" : std::string());
  }
  if (!paced_.empty()) {
    // Preserve byte order behind anything still held for pacing.
    release = std::max(release, paced_.back().first);
  }
  paced_.emplace_back(release, Bytes(data, data + len));
  ReleaseDue();
}

void BridgePort::ReleaseDue() {
  SimTime now = exec_->sim()->Now();
  while (!paced_.empty() && paced_.front().first <= now) {
    Bytes& b = paced_.front().second;
    out_buf_.insert(out_buf_.end(), b.begin(), b.end());
    paced_.pop_front();
  }
  FlushToFd();
  if (!paced_.empty()) {
    ArmRelease();
  }
}

void BridgePort::ArmRelease() {
  if (release_armed_) {
    exec_->sim()->Cancel(release_event_);
  }
  release_armed_ = true;
  release_event_ = exec_->sim()->ScheduleAt(paced_.front().first, [this] {
    release_armed_ = false;
    ReleaseDue();
  });
}

void BridgePort::FlushToFd() {
  if (fd_ < 0) {
    // No client: the bytes fall on the floor, as they would from an
    // unplugged serial cable.
    out_buf_.clear();
    out_off_ = 0;
    return;
  }
  while (out_off_ < out_buf_.size()) {
    ssize_t n = write(fd_, out_buf_.data() + out_off_, out_buf_.size() - out_off_);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // UpdateInterest raises POLLOUT for the remainder
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    ++stats_.write_errors;
    ++stats_.disconnects;
    UPR_INFO(kTag, "%s: write failed (errno %d), detaching",
             config_.name.c_str(), errno);
    DetachFd();
    return;
  }
  out_buf_.clear();
  out_off_ = 0;
}

void BridgePort::UpdateInterest() {
  if (fd_ < 0) {
    return;
  }
  short events = 0;
  if (TxRoom() > 0) {
    if (!reads_on_) {
      reads_on_ = true;
    }
    events |= POLLIN;
  } else if (reads_on_) {
    reads_on_ = false;
    ++stats_.reads_paused;
  }
  if (out_off_ < out_buf_.size()) {
    events |= POLLOUT;
  }
  exec_->SetFdEvents(fd_, events);
}

// --- PTY frontend ------------------------------------------------------------

PtyBridge::PtyBridge(RealtimeExecutor* exec, BridgePort* port) : port_(port) {
  (void)exec;
  master_fd_ = posix_openpt(O_RDWR | O_NOCTTY);
  if (master_fd_ < 0) {
    UPR_WARN(kTag, "posix_openpt failed: errno %d", errno);
    return;
  }
  char path[128];
  if (grantpt(master_fd_) != 0 || unlockpt(master_fd_) != 0 ||
      ptsname_r(master_fd_, path, sizeof path) != 0) {
    UPR_WARN(kTag, "pty setup failed: errno %d", errno);
    close(master_fd_);
    master_fd_ = -1;
    return;
  }
  slave_path_ = path;
  // Holder fd: with no slave open, the master polls POLLHUP continuously and
  // every client exit would tear the port down. Keeping our own slave open
  // makes the pty behave like a wired-up serial port across client sessions.
  holder_fd_ = open(path, O_RDWR | O_NOCTTY);
  if (holder_fd_ >= 0) {
    termios tio;
    if (tcgetattr(holder_fd_, &tio) == 0) {
      cfmakeraw(&tio);
      tcsetattr(holder_fd_, TCSANOW, &tio);
    }
  }
  port_->AttachFd(master_fd_, /*close_on_detach=*/false);
}

PtyBridge::~PtyBridge() {
  if (master_fd_ >= 0) {
    port_->DetachFd();
    close(master_fd_);
  }
  if (holder_fd_ >= 0) {
    close(holder_fd_);
  }
}

// --- TCP frontend ------------------------------------------------------------

TcpKissListener::TcpKissListener(RealtimeExecutor* exec, BridgePort* port,
                                 std::uint16_t tcp_port)
    : exec_(exec), port_(port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    UPR_WARN(kTag, "socket failed: errno %d", errno);
    return;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp_port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 1) != 0) {
    UPR_WARN(kTag, "bind/listen on port %u failed: errno %d", tcp_port, errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port_ = ntohs(addr.sin_port);
  }
  exec_->AddFd(listen_fd_, POLLIN, [this](short revents) { OnReady(revents); });
}

TcpKissListener::~TcpKissListener() {
  if (listen_fd_ >= 0) {
    exec_->RemoveFd(listen_fd_);
    close(listen_fd_);
  }
}

void TcpKissListener::OnReady(short revents) {
  if (!(revents & POLLIN)) {
    return;
  }
  int conn = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (conn < 0) {
    return;
  }
  if (port_->attached()) {
    // One external station per port; a competitor gets an immediate close.
    close(conn);
    return;
  }
  int one = 1;
  setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ++accepts_;
  port_->AttachFd(conn, /*close_on_detach=*/true);
}

std::string FormatBridge(const BridgePort& port) {
  const BridgeStats& s = port.stats();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "bridge %s: %s, %llu attaches, %llu disconnects\n"
                "  fd->sim %llu bytes, sim->fd %llu bytes, reads paused %llu, "
                "pacing overruns %llu, write errors %llu\n",
                port.name().c_str(),
                port.attached() ? "attached" : "detached",
                static_cast<unsigned long long>(s.attaches),
                static_cast<unsigned long long>(s.disconnects),
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                static_cast<unsigned long long>(s.reads_paused),
                static_cast<unsigned long long>(port.pacing_overruns()),
                static_cast<unsigned long long>(s.write_errors));
  return buf;
}

}  // namespace bridge
}  // namespace upr
