// Packet egress: the one-way contract between a NIC's transmit path and
// whatever carries packets to their destination. The simulated Fabric
// (src/net/fabric.h) models a switch with per-port queues behind it; the
// live substrate (src/live/) implements it with in-process SPSC loopback
// rings or real UDP sockets. Factoring this out is what lets Nic — and
// everything above it — run unmodified on either substrate.
#ifndef SRC_NET_EGRESS_H_
#define SRC_NET_EGRESS_H_

#include "src/packet/packet.h"
#include "src/util/time_types.h"

namespace snap {

class PacketEgress {
 public:
  virtual ~PacketEgress() = default;

  // Takes ownership of a packet that finished serializing onto the source
  // NIC's uplink at `wire_time` and carries it toward packet->dst_host.
  // May drop (the fabric is lossy end-to-end; transports retransmit).
  virtual void Route(PacketPtr packet, SimTime wire_time) = 0;

  // True if the NIC must model the link in front of this egress: serialize
  // each packet onto a modeled uplink and wait out the NIC pipeline delay
  // before Route(). The simulated Fabric does; a live egress is the wire
  // itself, so its NIC routes each packet as soon as it is transmitted.
  virtual bool models_link_timing() const = 0;
};

// Nanoseconds to serialize `bytes` at `gbps`.
inline SimDuration SerializationDelay(int64_t bytes, double gbps) {
  return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 / gbps);
}

}  // namespace snap

#endif  // SRC_NET_EGRESS_H_
