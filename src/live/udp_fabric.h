// UdpFabric: live fabric over real UDP sockets — one socket per host NIC,
// real Pony Express frames on the wire (src/packet/wire.h full-frame
// codec).
//
// Each local host binds its own non-blocking datagram socket. Route()
// encodes the packet straight into the source host's batch buffer; at the
// end of each executor pass Flush() hands the batch to the kernel — every
// run of equal-size frames to one destination in one UDP GSO sendmsg
// (UDP_SEGMENT), any other frame in a plain send — waking the destination
// after each send. The destination's poll hook recvfrom()s in batches,
// decodes, and hands packets to its NIC. If the kernel rejects
// UDP_SEGMENT, that host falls back to one send per datagram.
//
// Cross-process/machine operation: a fabric may own only a subset of the
// rack's hosts (`local_hosts`), with every other host living in another
// process. Peer endpoints are learned through a port-rendezvous handshake
// against a directory (one process serves it, `directory_server`):
//
//   member    -> directory   ANNOUNCE {my hosts: ip, port, wire range}
//   directory -> members     TABLE    {all hosts}   (once complete)
//   member    -> directory   TABLE_ACK              (directory resends
//                                                    until all ack)
//
// Control frames (kControlFrameMagic, versioned independently of data
// frames) share the member's first data socket, so no extra ports are
// needed; a stray TABLE resend arriving after rendezvous is re-acked from
// the receive path. The announced wire-version range is how remote
// engines advertise versions out-of-band (Section 3.1) — the runtime
// registers them in the PonyDirectory so flow creation negotiates against
// real peer limits before the first data frame.
//
// UDP is allowed to drop, duplicate, and reorder — exactly the lossy
// fabric contract Pony Express is built against, so no reliability shim
// sits between the socket and the transport. A send that fails with
// EAGAIN (full socket buffer) counts every datagram it carried as a
// fabric drop for the same reason. Peers in other processes cannot ring a
// parked worker's doorbell; the scheduler's max_park_ns bound
// (LiveScheduler::Options) covers that gap.
#ifndef SRC_LIVE_UDP_FABRIC_H_
#define SRC_LIVE_UDP_FABRIC_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/live/live_executor.h"
#include "src/net/egress.h"
#include "src/net/nic.h"
#include "src/packet/wire.h"
#include "src/util/status.h"

namespace snap {

class UdpFabric : public PacketEgress {
 public:
  struct Options {
    // Local address to bind every host socket on (and the address
    // announced to the directory — set an externally routable IP for
    // multi-machine runs).
    std::string address = "127.0.0.1";
    // First port; host h binds base_port + h. 0 lets the kernel pick free
    // ports (single-process runs, no port conflicts across CI jobs).
    uint16_t base_port = 0;
    // Datagrams drained per DrainTo call (bounds time in the poll hook).
    int recv_batch = 64;
    // Socket buffer request (0 keeps the kernel default).
    int socket_buffer_bytes = 1 << 20;

    // --- Cross-process rendezvous (all optional) ---
    // Hosts this process owns. Empty = all hosts (single-process legacy).
    std::vector<int> local_hosts;
    // Directory endpoint. directory_port == 0 disables rendezvous (then
    // every host must be local).
    std::string directory_address = "127.0.0.1";
    uint16_t directory_port = 0;
    // Exactly one process of the group serves the directory.
    bool directory_server = false;
    int rendezvous_timeout_ms = 10000;
    int announce_interval_ms = 50;
    // Wire-version range announced for this process's hosts.
    uint16_t wire_min = kPonyWireVersionMin;
    uint16_t wire_max = kPonyWireVersionMax;
  };

  explicit UdpFabric(int num_hosts);
  UdpFabric(int num_hosts, Options options);
  ~UdpFabric() override;

  // Binds local sockets and, when a directory is configured, runs the
  // blocking rendezvous until every host's endpoint is known (or the
  // timeout fails the Init). Must succeed before AddHost/Start.
  Status Init();

  // Setup-thread-only, after Init(). Local hosts only.
  void AddHost(int host_id, Nic* nic, LiveExecutor* executor);

  // PacketEgress; called on the source host's engine thread. Batches the
  // encoded frame: nothing reaches the socket before Flush(src_host).
  void Route(PacketPtr packet, SimTime wire_time) override;
  bool models_link_timing() const override { return false; }

  // Sends every frame batched for `src_host` since the last flush, ringing
  // an in-process destination's doorbell after each send. Called on the
  // source host's executor thread at the end of each pass (LiveRuntime
  // installs it as the executor's pass-end hook). Returns the datagrams
  // the kernel accepted.
  int Flush(int src_host);

  // Drains up to recv_batch datagrams for `dst_host` into its NIC; called
  // from that host's executor thread. Returns packets delivered.
  int DrainTo(int dst_host);

  int num_hosts() const { return num_hosts_; }
  bool IsLocal(int host) const { return local_[host]; }
  // Port host `h` is bound to (after Init); for remote hosts this is the
  // rendezvous-learned peer port.
  uint16_t port(int host) const { return ports_[host]; }
  // Advertised wire-version range of `host` (rendezvous-learned for
  // remote hosts; this process's own range for local ones).
  uint16_t peer_wire_min(int host) const { return peers_[host].wire_min; }
  uint16_t peer_wire_max(int host) const { return peers_[host].wire_max; }

  struct Stats {
    int64_t delivered = 0;
    int64_t dropped_send = 0;    // send failed (buffer full etc.)
    int64_t send_calls = 0;      // data-frame send syscalls
    int64_t dropped_decode = 0;  // undecodable / stray datagram
    int64_t dropped_bad_address = 0;
    int64_t control_frames = 0;  // rendezvous traffic (both directions)
  };
  Stats GetStats() const;

 private:
  // Frames Route() batched for one source host, back to back in `bytes`.
  // Touched only by that host's executor thread.
  struct TxBatch {
    struct Frame {
      int dst;
      size_t offset;
      size_t len;
    };
    std::vector<uint8_t> bytes;
    std::vector<Frame> frames;
    bool gso = true;  // cleared for good once the kernel rejects GSO
  };

  // Frames to one destination that can leave in one GSO send (defined in
  // udp_fabric.cc).
  struct GsoRun;

  struct Peer {
    sockaddr_in addr{};
    uint16_t wire_min = kPonyWireVersionMin;
    uint16_t wire_max = kPonyWireVersionMax;
    bool known = false;
  };

  Status BindLocalSockets();
  Status Rendezvous();
  void DirectoryLoop();
  std::vector<ControlEntry> LocalEntries() const;
  void AdoptTable(const ControlFrame& table);
  void SendAck(int fd, const sockaddr_in& to);
  // Sends `run` from `src` to `dst` in one GSO call, or one call per
  // frame when it holds one frame or `*gso` is off (cleared here if the
  // kernel rejects GSO). Returns datagrams the kernel accepted.
  int SendRun(int src, int dst, const GsoRun& run, bool* gso);

  int num_hosts_;
  Options options_;
  std::vector<bool> local_;
  int first_local_ = -1;
  std::vector<int> fds_;
  std::vector<uint16_t> ports_;
  std::vector<Peer> peers_;
  std::vector<Nic*> nics_;
  std::vector<LiveExecutor*> executors_;
  int dir_fd_ = -1;
  sockaddr_in dir_addr_{};
  std::vector<std::unique_ptr<std::atomic<int64_t>>> delivered_;
  std::vector<std::unique_ptr<TxBatch>> batches_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> dropped_send_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> send_calls_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> dropped_decode_;
  std::atomic<int64_t> dropped_bad_address_{0};
  std::atomic<int64_t> control_frames_{0};
};

}  // namespace snap

#endif  // SRC_LIVE_UDP_FABRIC_H_
