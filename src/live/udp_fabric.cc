#include "src/live/udp_fabric.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/udp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "src/util/logging.h"

namespace snap {

namespace {
// Largest frame we expect: headers + a 5kB-MTU payload, with slack.
constexpr size_t kMaxFrameBytes = 16 * 1024;
// One GSO send carries at most this many bytes (the largest UDP payload
// over IPv4).
constexpr size_t kMaxGsoBytes = 65507;

bool SameEndpoint(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}
}  // namespace

UdpFabric::UdpFabric(int num_hosts) : UdpFabric(num_hosts, Options()) {}

UdpFabric::UdpFabric(int num_hosts, Options options)
    : num_hosts_(num_hosts), options_(std::move(options)) {
  SNAP_CHECK_GT(num_hosts, 0);
  local_.assign(num_hosts, options_.local_hosts.empty());
  for (int h : options_.local_hosts) {
    SNAP_CHECK_GE(h, 0);
    SNAP_CHECK_LT(h, num_hosts);
    local_[h] = true;
  }
  for (int h = 0; h < num_hosts; ++h) {
    if (local_[h] && first_local_ < 0) {
      first_local_ = h;
    }
  }
  SNAP_CHECK_GE(first_local_, 0) << "no local hosts";
  fds_.resize(num_hosts, -1);
  ports_.resize(num_hosts, 0);
  peers_.resize(num_hosts);
  nics_.resize(num_hosts, nullptr);
  executors_.resize(num_hosts, nullptr);
  for (int i = 0; i < num_hosts; ++i) {
    delivered_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    batches_.push_back(std::make_unique<TxBatch>());
    dropped_send_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    send_calls_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    dropped_decode_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

UdpFabric::~UdpFabric() {
  for (int fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
  }
}

Status UdpFabric::BindLocalSockets() {
  for (int h = 0; h < num_hosts_; ++h) {
    if (!local_[h]) {
      continue;
    }
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
      return InternalError(std::string("socket: ") + strerror(errno));
    }
    fds_[h] = fd;
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return InternalError(std::string("fcntl: ") + strerror(errno));
    }
    if (options_.socket_buffer_bytes > 0) {
      // Best-effort: the kernel clamps to its limits.
      int bytes = options_.socket_buffer_bytes;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    if (::inet_pton(AF_INET, options_.address.c_str(), &addr.sin_addr) != 1) {
      return InvalidArgumentError("bad address: " + options_.address);
    }
    uint16_t want =
        options_.base_port == 0
            ? 0
            : static_cast<uint16_t>(options_.base_port + h);
    addr.sin_port = htons(want);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return InternalError(std::string("bind: ") + strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      return InternalError(std::string("getsockname: ") + strerror(errno));
    }
    ports_[h] = ntohs(bound.sin_port);
    peers_[h].addr = bound;
    // bind() on INADDR_ANY-ish addresses still reports the bound address;
    // use the configured address for self-sends.
    ::inet_pton(AF_INET, options_.address.c_str(), &peers_[h].addr.sin_addr);
    peers_[h].addr.sin_family = AF_INET;
    peers_[h].addr.sin_port = htons(ports_[h]);
    peers_[h].wire_min = options_.wire_min;
    peers_[h].wire_max = options_.wire_max;
    peers_[h].known = true;
  }
  return OkStatus();
}

std::vector<ControlEntry> UdpFabric::LocalEntries() const {
  std::vector<ControlEntry> entries;
  for (int h = 0; h < num_hosts_; ++h) {
    if (!local_[h]) {
      continue;
    }
    ControlEntry e;
    e.host_id = h;
    e.ipv4_be = peers_[h].addr.sin_addr.s_addr;
    e.port = ports_[h];
    e.wire_min = options_.wire_min;
    e.wire_max = options_.wire_max;
    entries.push_back(e);
  }
  return entries;
}

void UdpFabric::AdoptTable(const ControlFrame& table) {
  for (const ControlEntry& e : table.entries) {
    if (e.host_id < 0 || e.host_id >= num_hosts_ || local_[e.host_id]) {
      continue;  // own endpoints are authoritative locally
    }
    Peer& p = peers_[e.host_id];
    p.addr.sin_family = AF_INET;
    p.addr.sin_addr.s_addr = e.ipv4_be;
    p.addr.sin_port = htons(e.port);
    p.wire_min = e.wire_min;
    p.wire_max = e.wire_max;
    p.known = true;
    ports_[e.host_id] = e.port;
  }
}

void UdpFabric::SendAck(int fd, const sockaddr_in& to) {
  ControlFrame ack;
  ack.type = ControlFrameType::kTableAck;
  ack.sender = first_local_;
  std::vector<uint8_t> buf;
  if (EncodeControlFrame(ack, &buf).ok()) {
    ::sendto(fd, buf.data(), buf.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), sizeof(to));
    control_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpFabric::DirectoryLoop() {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.rendezvous_timeout_ms);
  const auto interval =
      std::chrono::milliseconds(options_.announce_interval_ms);

  std::vector<ControlEntry> table(static_cast<size_t>(num_hosts_));
  std::vector<bool> have(static_cast<size_t>(num_hosts_), false);
  // One endpoint per announcing member process; all must ack the table.
  std::vector<sockaddr_in> members;
  std::vector<bool> acked;
  uint8_t buf[kMaxFrameBytes];
  auto next_send = Clock::now();

  while (Clock::now() < deadline) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = ::recvfrom(dir_fd_, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n > 0) {
      StatusOr<ControlFrame> frame =
          DecodeControlFrame(buf, static_cast<size_t>(n));
      if (frame.ok()) {
        control_frames_.fetch_add(1, std::memory_order_relaxed);
        if (frame->type == ControlFrameType::kAnnounce) {
          for (const ControlEntry& e : frame->entries) {
            if (e.host_id >= 0 && e.host_id < num_hosts_) {
              table[static_cast<size_t>(e.host_id)] = e;
              have[static_cast<size_t>(e.host_id)] = true;
            }
          }
          bool seen = false;
          for (const sockaddr_in& m : members) {
            seen = seen || SameEndpoint(m, from);
          }
          if (!seen) {
            members.push_back(from);
            acked.push_back(false);
          }
        } else if (frame->type == ControlFrameType::kTableAck) {
          for (size_t m = 0; m < members.size(); ++m) {
            if (SameEndpoint(members[m], from)) {
              acked[m] = true;
            }
          }
        }
      }
      continue;  // keep draining before sleeping
    }
    bool complete = true;
    for (bool h : have) {
      complete = complete && h;
    }
    if (complete) {
      bool all_acked = true;
      for (bool a : acked) {
        all_acked = all_acked && a;
      }
      if (all_acked && !members.empty()) {
        return;
      }
      if (Clock::now() >= next_send) {
        next_send = Clock::now() + interval;
        ControlFrame reply;
        reply.type = ControlFrameType::kTable;
        reply.sender = -1;
        reply.entries = table;
        std::vector<uint8_t> out;
        if (EncodeControlFrame(reply, &out).ok()) {
          for (size_t m = 0; m < members.size(); ++m) {
            if (acked[m]) {
              continue;
            }
            ::sendto(dir_fd_, out.data(), out.size(), 0,
                     reinterpret_cast<sockaddr*>(&members[m]),
                     sizeof(members[m]));
            control_frames_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status UdpFabric::Rendezvous() {
  using Clock = std::chrono::steady_clock;
  dir_addr_ = sockaddr_in{};
  dir_addr_.sin_family = AF_INET;
  dir_addr_.sin_port = htons(options_.directory_port);
  if (::inet_pton(AF_INET, options_.directory_address.c_str(),
                  &dir_addr_.sin_addr) != 1) {
    return InvalidArgumentError("bad directory address: " +
                                options_.directory_address);
  }

  std::thread directory;
  if (options_.directory_server) {
    dir_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (dir_fd_ < 0) {
      return InternalError(std::string("directory socket: ") +
                           strerror(errno));
    }
    int flags = ::fcntl(dir_fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(dir_fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
      return InternalError(std::string("directory fcntl: ") +
                           strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = INADDR_ANY;
    addr.sin_port = htons(options_.directory_port);
    if (::bind(dir_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return InternalError(std::string("directory bind: ") + strerror(errno));
    }
    directory = std::thread([this] { DirectoryLoop(); });
  }

  // Member side: announce on the first local data socket until the table
  // arrives (the directory replies to this socket's endpoint).
  const int fd = fds_[first_local_];
  ControlFrame announce;
  announce.type = ControlFrameType::kAnnounce;
  announce.sender = first_local_;
  announce.entries = LocalEntries();
  std::vector<uint8_t> announce_buf;
  Status encoded = EncodeControlFrame(announce, &announce_buf);
  if (!encoded.ok()) {
    if (directory.joinable()) {
      directory.join();
    }
    return encoded;
  }

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.rendezvous_timeout_ms);
  const auto interval =
      std::chrono::milliseconds(options_.announce_interval_ms);
  auto next_announce = Clock::now();
  uint8_t buf[kMaxFrameBytes];
  bool got_table = false;
  while (!got_table && Clock::now() < deadline) {
    if (Clock::now() >= next_announce) {
      next_announce = Clock::now() + interval;
      ::sendto(fd, announce_buf.data(), announce_buf.size(), 0,
               reinterpret_cast<sockaddr*>(&dir_addr_), sizeof(dir_addr_));
      control_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = ::recvfrom(fd, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n > 0) {
      if (!IsControlFrame(buf, static_cast<size_t>(n))) {
        continue;  // a fast peer's data frame; the engine drains it later
      }
      StatusOr<ControlFrame> frame =
          DecodeControlFrame(buf, static_cast<size_t>(n));
      if (frame.ok() && frame->type == ControlFrameType::kTable) {
        control_frames_.fetch_add(1, std::memory_order_relaxed);
        AdoptTable(*frame);
        SendAck(fd, from);
        got_table = true;
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (directory.joinable()) {
    directory.join();
  }
  if (!got_table) {
    return DeadlineExceededError("rendezvous: no table from directory");
  }
  for (int h = 0; h < num_hosts_; ++h) {
    if (!peers_[h].known) {
      return InternalError("rendezvous: incomplete table (host " +
                           std::to_string(h) + ")");
    }
  }
  return OkStatus();
}

Status UdpFabric::Init() {
  Status bound = BindLocalSockets();
  if (!bound.ok()) {
    return bound;
  }
  bool all_local = true;
  for (int h = 0; h < num_hosts_; ++h) {
    all_local = all_local && local_[h];
  }
  if (options_.directory_port == 0) {
    if (!all_local) {
      return InvalidArgumentError(
          "remote hosts configured but no directory_port");
    }
    return OkStatus();
  }
  return Rendezvous();
}

void UdpFabric::AddHost(int host_id, Nic* nic, LiveExecutor* executor) {
  SNAP_CHECK_GE(host_id, 0);
  SNAP_CHECK_LT(host_id, num_hosts_);
  SNAP_CHECK(local_[host_id]) << "AddHost on remote host " << host_id;
  SNAP_CHECK(fds_[host_id] >= 0) << "AddHost before Init";
  SNAP_CHECK(nics_[host_id] == nullptr) << "host registered twice";
  nics_[host_id] = nic;
  executors_[host_id] = executor;
}

void UdpFabric::Route(PacketPtr packet, SimTime wire_time) {
  (void)wire_time;
  int dst = packet->dst_host;
  int src = packet->src_host;
  if (dst < 0 || dst >= num_hosts_ || src < 0 || src >= num_hosts_ ||
      !local_[src] || !peers_[dst].known) {
    dropped_bad_address_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The batch buffer keeps its capacity across flushes: encoding
  // allocates nothing at steady state.
  TxBatch& batch = *batches_[src];
  size_t offset = batch.bytes.size();
  Status encoded = EncodeWireFrame(*packet, &batch.bytes);
  if (!encoded.ok()) {
    dropped_send_[src]->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  batch.frames.push_back({dst, offset, batch.bytes.size() - offset});
}

// Every segment `segment` bytes long except a shorter last one.
struct UdpFabric::GsoRun {
  // The kernel's UDP_MAX_SEGMENTS on older kernels.
  static constexpr size_t kMaxSegments = 64;
  iovec iov[kMaxSegments];
  size_t count = 0;
  size_t segment = 0;
  size_t bytes = 0;
  bool closed = false;  // a shorter segment was added: nothing may follow

  // Appends the frame, or returns false when it cannot join this run.
  bool TryAdd(uint8_t* data, size_t len);
  void Clear() {
    count = 0;
    bytes = 0;
    closed = false;
  }
};

bool UdpFabric::GsoRun::TryAdd(uint8_t* data, size_t len) {
  if (count > 0 && (closed || count == kMaxSegments || len > segment ||
                    bytes + len > kMaxGsoBytes)) {
    return false;
  }
  if (count == 0) {
    segment = len;
  }
  closed = len < segment;  // only the last segment may be shorter
  iov[count].iov_base = data;
  iov[count].iov_len = len;
  ++count;
  bytes += len;
  return true;
}

int UdpFabric::Flush(int src_host) {
  TxBatch& batch = *batches_[src_host];
  int accepted = 0;
  GsoRun run;
  int run_dst = -1;
  auto send_run = [&] {
    int sent = SendRun(src_host, run_dst, run, &batch.gso);
    // In-process peers get their doorbell rung (latched: a repeat ring in
    // one pass is cheap); remote peers rely on the receiver's bounded park.
    if (sent > 0 && executors_[run_dst] != nullptr) {
      executors_[run_dst]->Wake();
    }
    accepted += sent;
    run.Clear();
  };
  // Runs form in routing order: one closes when the destination changes
  // or the next frame cannot join it, so per-destination order holds.
  for (const TxBatch::Frame& f : batch.frames) {
    uint8_t* data = batch.bytes.data() + f.offset;
    if (f.dst == run_dst && run.TryAdd(data, f.len)) {
      continue;
    }
    if (run_dst >= 0) {
      send_run();
    }
    run_dst = f.dst;
    run.TryAdd(data, f.len);
  }
  if (run_dst >= 0) {
    send_run();
  }
  batch.bytes.clear();
  batch.frames.clear();
  return accepted;
}

int UdpFabric::SendRun(int src, int dst, const GsoRun& run, bool* gso) {
  int fd = fds_[src];
  const sockaddr_in& to = peers_[dst].addr;
  if (run.count > 1 && *gso) {
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(uint16_t))] = {};
    msghdr msg{};
    msg.msg_name = const_cast<sockaddr_in*>(&to);
    msg.msg_namelen = sizeof(to);
    msg.msg_iov = const_cast<iovec*>(run.iov);
    msg.msg_iovlen = run.count;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_UDP;
    cm->cmsg_type = UDP_SEGMENT;
    cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
    uint16_t segment = static_cast<uint16_t>(run.segment);
    std::memcpy(CMSG_DATA(cm), &segment, sizeof(segment));
    send_calls_[src]->fetch_add(1, std::memory_order_relaxed);
    if (::sendmsg(fd, &msg, 0) >= 0) {
      return static_cast<int>(run.count);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      // The socket buffer is the congested egress port: the whole run
      // is lost, exactly as if each datagram had hit it.
      dropped_send_[src]->fetch_add(static_cast<int64_t>(run.count),
                                    std::memory_order_relaxed);
      return 0;
    }
    // The kernel or the path refuses segmentation offload (no
    // UDP_SEGMENT, or a segment above the device MTU): send datagram by
    // datagram from now on.
    *gso = false;
  }
  int accepted = 0;
  for (size_t k = 0; k < run.count; ++k) {
    send_calls_[src]->fetch_add(1, std::memory_order_relaxed);
    ssize_t sent = ::sendto(fd, run.iov[k].iov_base, run.iov[k].iov_len, 0,
                            reinterpret_cast<const sockaddr*>(&to),
                            sizeof(to));
    if (sent < 0) {
      // EAGAIN/ENOBUFS: the socket buffer is the congested egress port.
      dropped_send_[src]->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++accepted;
  }
  return accepted;
}

int UdpFabric::DrainTo(int dst_host) {
  int delivered = 0;
  Nic* nic = nics_[dst_host];
  int fd = fds_[dst_host];
  uint8_t buf[kMaxFrameBytes];
  for (int i = 0; i < options_.recv_batch; ++i) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t n = ::recvfrom(fd, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      break;  // EAGAIN: drained
    }
    if (IsControlFrame(buf, static_cast<size_t>(n))) {
      // A TABLE resend after our ack was lost: re-ack so the directory
      // can finish. Anything else on the control plane is stale here.
      StatusOr<ControlFrame> frame =
          DecodeControlFrame(buf, static_cast<size_t>(n));
      if (frame.ok() && frame->type == ControlFrameType::kTable) {
        control_frames_.fetch_add(1, std::memory_order_relaxed);
        SendAck(fd, from);
      }
      continue;
    }
    StatusOr<PacketPtr> decoded = DecodeWireFrame(buf, static_cast<size_t>(n));
    if (!decoded.ok()) {
      dropped_decode_[dst_host]->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    nic->DeliverFromWire(std::move(*decoded));
    ++delivered;
  }
  if (delivered > 0) {
    delivered_[dst_host]->fetch_add(delivered, std::memory_order_relaxed);
  }
  return delivered;
}

UdpFabric::Stats UdpFabric::GetStats() const {
  Stats s;
  for (int i = 0; i < num_hosts_; ++i) {
    s.delivered += delivered_[i]->load(std::memory_order_relaxed);
    s.dropped_send += dropped_send_[i]->load(std::memory_order_relaxed);
    s.send_calls += send_calls_[i]->load(std::memory_order_relaxed);
    s.dropped_decode += dropped_decode_[i]->load(std::memory_order_relaxed);
  }
  s.dropped_bad_address =
      dropped_bad_address_.load(std::memory_order_relaxed);
  s.control_frames = control_frames_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace snap
