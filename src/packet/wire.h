// Byte-level wire encoding of the Pony Express header.
//
// Section 3.1: "we periodically extend and change our internal wire
// protocol while maintaining compatibility with prior versions... We use an
// out-of-band mechanism to advertise the wire protocol versions available
// when connecting to a remote engine, and select the least common
// denominator."
//
// Two versions exist here:
//  - v1: base header.
//  - v2: adds the TX timestamp + echo used for RTT measurement (Timely) and
//    the batched-indirection count; v1 peers ignore both (the transport
//    falls back to software timestamps and unbatched reads).
//
// Encoding is little-endian, fixed layout per version. The CRC field covers
// the header (with the CRC field itself zeroed) plus the payload.
#ifndef SRC_PACKET_WIRE_H_
#define SRC_PACKET_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/packet/packet.h"
#include "src/util/status.h"

namespace snap {

inline constexpr uint16_t kPonyWireVersionMin = 1;
inline constexpr uint16_t kPonyWireVersionMax = 2;

// Encoded sizes (bytes) per version.
int PonyHeaderWireSize(uint16_t version);

// Serializes `header` at wire version `header.version` into `out`
// (overwritten). Fails on unsupported versions.
Status EncodePonyHeader(const PonyHeader& header, std::vector<uint8_t>* out);

// Parses a header from `data`; the version is read from the first two
// bytes. Fails on truncation or unsupported versions.
StatusOr<PonyHeader> DecodePonyHeader(const uint8_t* data, size_t len);

// Computes the end-to-end CRC over an encoded header (crc field zeroed)
// plus payload bytes.
uint32_t PonyPacketCrc(const PonyHeader& header,
                       const std::vector<uint8_t>& payload);

// True if `header.crc32` matches the CRC recomputed over header + payload.
bool VerifyPonyPacketCrc(const PonyHeader& header,
                         const std::vector<uint8_t>& payload);

// Negotiates the wire version between two peers advertising inclusive
// ranges; returns the highest mutually supported version, or an error when
// the ranges do not overlap.
StatusOr<uint16_t> NegotiateWireVersion(uint16_t local_min, uint16_t local_max,
                                        uint16_t remote_min,
                                        uint16_t remote_max);

// --- Full-frame codec (live mode, src/live/udp_fabric.h) ------------------
//
// Serializes a whole Pony Packet — fabric addressing, header at its own
// wire version, real payload bytes — into one datagram-sized frame so the
// live UDP fabric can put real packets on a real wire. Simulation-only
// bookkeeping (enqueue/rx times, chaos flags) intentionally does not
// travel: the receiver stamps its own times.

// Frames start with this magic so stray datagrams are rejected cheaply.
inline constexpr uint32_t kWireFrameMagic = 0x534e5046;  // "SNPF"

// Appends the encoding of `packet` to `out` (earlier contents stay, so a
// sender can pack many frames into one buffer). Only WireProtocol::kPony
// packets have a wire encoding; anything else is an error and appends
// nothing.
Status EncodeWireFrame(const Packet& packet, std::vector<uint8_t>* out);

// Parses a frame; fails on bad magic, truncation, or unsupported versions.
StatusOr<PacketPtr> DecodeWireFrame(const uint8_t* data, size_t len);

// --- Control-plane frames (rendezvous, src/live/udp_fabric.h) -------------
//
// The out-of-band channel of Section 3.1: before any data frame flows
// between processes, hosts exchange control frames with a directory to
// learn each other's (address, port) endpoints and advertised wire-version
// ranges. Control frames share the UDP sockets with data frames and are
// told apart by their own magic in the first four bytes; they are
// versioned independently of both the data-frame layout and the Pony
// header.

inline constexpr uint32_t kControlFrameMagic = 0x534e5043;  // "SNPC"

enum class ControlFrameType : uint8_t {
  kAnnounce = 1,  // member -> directory: here are my local hosts
  kTable = 2,     // directory -> member: the complete endpoint table
  kTableAck = 3,  // member -> directory: table received, stop resending
};

// One host's endpoint plus its advertised Pony wire-version range (the
// rendezvous doubles as the version-advertisement channel, so remote
// peers can negotiate before the first data frame).
struct ControlEntry {
  int32_t host_id = -1;
  uint32_t ipv4_be = 0;  // network byte order, as in sockaddr_in
  uint16_t port = 0;     // host byte order
  uint16_t wire_min = kPonyWireVersionMin;
  uint16_t wire_max = kPonyWireVersionMax;
};

struct ControlFrame {
  ControlFrameType type = ControlFrameType::kAnnounce;
  // Sender identity: the announcing member's first local host id, or -1
  // from the directory.
  int32_t sender = -1;
  std::vector<ControlEntry> entries;
};

// True when `data` starts with the control-frame magic (cheap dispatch in
// the shared-socket receive path).
bool IsControlFrame(const uint8_t* data, size_t len);

Status EncodeControlFrame(const ControlFrame& frame,
                          std::vector<uint8_t>* out);
StatusOr<ControlFrame> DecodeControlFrame(const uint8_t* data, size_t len);

}  // namespace snap

#endif  // SRC_PACKET_WIRE_H_
