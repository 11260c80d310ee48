#include "src/packet/wire.h"

#include <algorithm>
#include <cstring>

#include "src/packet/crc32.h"

namespace snap {

namespace {

constexpr int kV1Size = 2 + 8 + 8 + 8 + 1 + 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4 +
                        4 + 2 + 4;  // = 82
constexpr int kV2Extra = 8 + 8 + 2;  // tx_timestamp + ts_echo + batch
constexpr int kV2Size = kV1Size + kV2Extra;

// Writes into a caller-provided buffer of at least kV2Size bytes. CRC
// computation encodes every header twice per packet (tx stamp + rx
// verify), so this path must not touch the heap.
class Writer {
 public:
  explicit Writer(uint8_t* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(out_ + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  size_t pos() const { return pos_; }

 private:
  uint8_t* out_;
  size_t pos_ = 0;
};

// Encodes into `out` (>= kV2Size bytes); returns the encoded length.
size_t EncodePonyHeaderRaw(const PonyHeader& h, uint8_t* out) {
  Writer w(out);
  w.Put<uint16_t>(h.version);
  w.Put<uint64_t>(h.flow_id);
  w.Put<uint64_t>(h.seq);
  w.Put<uint64_t>(h.ack);
  w.Put<uint8_t>(static_cast<uint8_t>(h.type));
  w.Put<uint8_t>(static_cast<uint8_t>(h.op));
  w.Put<uint64_t>(h.op_id);
  w.Put<uint64_t>(h.stream_id);
  w.Put<uint32_t>(h.msg_offset);
  w.Put<uint32_t>(h.msg_length);
  w.Put<uint64_t>(h.region_id);
  w.Put<uint64_t>(h.region_offset);
  w.Put<uint32_t>(h.op_length);
  w.Put<uint32_t>(h.credit);
  w.Put<uint16_t>(h.status);
  w.Put<uint32_t>(h.crc32);
  if (h.version >= 2) {
    w.Put<int64_t>(h.tx_timestamp);
    w.Put<int64_t>(h.ts_echo);
    w.Put<uint16_t>(h.batch);
  }
  return w.pos();
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  template <typename T>
  bool Get(T* value) {
    if (pos_ + sizeof(T) > len_) {
      return false;
    }
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  // Advances past `n` bytes, returning their start (nullptr if truncated).
  const uint8_t* Skip(size_t n) {
    if (pos_ + n > len_) {
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace

int PonyHeaderWireSize(uint16_t version) {
  return version >= 2 ? kV2Size : kV1Size;
}

Status EncodePonyHeader(const PonyHeader& h, std::vector<uint8_t>* out) {
  if (h.version < kPonyWireVersionMin || h.version > kPonyWireVersionMax) {
    return InvalidArgumentError("unsupported wire version");
  }
  out->resize(PonyHeaderWireSize(h.version));
  EncodePonyHeaderRaw(h, out->data());
  return OkStatus();
}

StatusOr<PonyHeader> DecodePonyHeader(const uint8_t* data, size_t len) {
  Reader r(data, len);
  PonyHeader h;
  if (!r.Get(&h.version)) {
    return InvalidArgumentError("truncated header: version");
  }
  if (h.version < kPonyWireVersionMin || h.version > kPonyWireVersionMax) {
    return InvalidArgumentError("unsupported wire version");
  }
  uint8_t type = 0;
  uint8_t op = 0;
  bool ok = r.Get(&h.flow_id) && r.Get(&h.seq) && r.Get(&h.ack) &&
            r.Get(&type) && r.Get(&op) && r.Get(&h.op_id) &&
            r.Get(&h.stream_id) && r.Get(&h.msg_offset) &&
            r.Get(&h.msg_length) && r.Get(&h.region_id) &&
            r.Get(&h.region_offset) && r.Get(&h.op_length) &&
            r.Get(&h.credit) && r.Get(&h.status) && r.Get(&h.crc32);
  if (!ok) {
    return InvalidArgumentError("truncated header");
  }
  h.type = static_cast<PonyPacketType>(type);
  h.op = static_cast<PonyOpCode>(op);
  if (h.version >= 2) {
    if (!r.Get(&h.tx_timestamp) || !r.Get(&h.ts_echo) || !r.Get(&h.batch)) {
      return InvalidArgumentError("truncated v2 header");
    }
  }
  return h;
}

uint32_t PonyPacketCrc(const PonyHeader& header,
                       const std::vector<uint8_t>& payload) {
  if (header.version < kPonyWireVersionMin ||
      header.version > kPonyWireVersionMax) {
    return 0;
  }
  PonyHeader copy = header;
  copy.crc32 = 0;
  uint8_t encoded[kV2Size];
  size_t len = EncodePonyHeaderRaw(copy, encoded);
  uint32_t crc = Crc32c(encoded, len);
  if (!payload.empty()) {
    crc = Crc32c(payload.data(), payload.size(), crc);
  }
  return crc;
}

bool VerifyPonyPacketCrc(const PonyHeader& header,
                         const std::vector<uint8_t>& payload) {
  return header.crc32 == PonyPacketCrc(header, payload);
}

StatusOr<uint16_t> NegotiateWireVersion(uint16_t local_min, uint16_t local_max,
                                        uint16_t remote_min,
                                        uint16_t remote_max) {
  uint16_t lo = std::max(local_min, remote_min);
  uint16_t hi = std::min(local_max, remote_max);
  if (lo > hi) {
    return FailedPreconditionError("no common wire version");
  }
  return hi;
}

namespace {
// Frame layout version, independent of the Pony header version it carries.
constexpr uint16_t kWireFrameVersion = 1;
}  // namespace

Status EncodeWireFrame(const Packet& packet, std::vector<uint8_t>* out) {
  if (packet.proto != WireProtocol::kPony) {
    return InvalidArgumentError("only Pony packets have a frame encoding");
  }
  uint8_t header[kV2Size];
  if (packet.pony.version < kPonyWireVersionMin ||
      packet.pony.version > kPonyWireVersionMax) {
    return InvalidArgumentError("unsupported wire version");
  }
  size_t header_len = EncodePonyHeaderRaw(packet.pony, header);
  size_t needed = out->size() + 4 + 2 + 4 + 4 + 4 + 4 + 4 + 4 + 2 +
                  header_len + 4 + packet.data.size();
  if (needed > out->capacity()) {
    // Grow geometrically: `out` may be a batch that gains a frame per call,
    // and an exact reserve would copy it whole on every append.
    out->reserve(std::max(needed, 2 * out->capacity()));
  }
  auto put = [out](const auto& value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    out->insert(out->end(), p, p + sizeof(value));
  };
  put(kWireFrameMagic);
  put(kWireFrameVersion);
  put(static_cast<int32_t>(packet.src_host));
  put(static_cast<int32_t>(packet.dst_host));
  put(packet.steering_hash);
  put(packet.tenant);
  put(packet.payload_bytes);
  put(packet.wire_bytes);
  put(static_cast<uint16_t>(header_len));
  out->insert(out->end(), header, header + header_len);
  put(static_cast<uint32_t>(packet.data.size()));
  out->insert(out->end(), packet.data.begin(), packet.data.end());
  return OkStatus();
}

StatusOr<PacketPtr> DecodeWireFrame(const uint8_t* data, size_t len) {
  Reader r(data, len);
  uint32_t magic = 0;
  uint16_t frame_version = 0;
  if (!r.Get(&magic) || magic != kWireFrameMagic) {
    return InvalidArgumentError("bad frame magic");
  }
  if (!r.Get(&frame_version) || frame_version != kWireFrameVersion) {
    return InvalidArgumentError("unsupported frame version");
  }
  auto packet = std::make_unique<Packet>();
  int32_t src = 0;
  int32_t dst = 0;
  uint16_t header_len = 0;
  bool ok = r.Get(&src) && r.Get(&dst) && r.Get(&packet->steering_hash) &&
            r.Get(&packet->tenant) && r.Get(&packet->payload_bytes) &&
            r.Get(&packet->wire_bytes) && r.Get(&header_len);
  if (!ok) {
    return InvalidArgumentError("truncated frame");
  }
  packet->src_host = src;
  packet->dst_host = dst;
  const uint8_t* header = r.Skip(header_len);
  if (header == nullptr) {
    return InvalidArgumentError("truncated frame header");
  }
  StatusOr<PonyHeader> decoded = DecodePonyHeader(header, header_len);
  if (!decoded.ok()) {
    return decoded.status();
  }
  packet->pony = *decoded;
  uint32_t data_len = 0;
  if (!r.Get(&data_len)) {
    return InvalidArgumentError("truncated frame payload length");
  }
  const uint8_t* payload = r.Skip(data_len);
  if (payload == nullptr) {
    return InvalidArgumentError("truncated frame payload");
  }
  packet->data.assign(payload, payload + data_len);
  return packet;
}

namespace {
constexpr uint16_t kControlFrameVersion = 1;
// A table never exceeds the rendezvous group; anything larger is a
// corrupt or hostile frame.
constexpr uint32_t kMaxControlEntries = 4096;
}  // namespace

bool IsControlFrame(const uint8_t* data, size_t len) {
  uint32_t magic = 0;
  if (len < sizeof(magic)) {
    return false;
  }
  std::memcpy(&magic, data, sizeof(magic));
  return magic == kControlFrameMagic;
}

Status EncodeControlFrame(const ControlFrame& frame,
                          std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(4 + 2 + 1 + 4 + 4 + frame.entries.size() * 14);
  auto put = [out](const auto& value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    out->insert(out->end(), p, p + sizeof(value));
  };
  put(kControlFrameMagic);
  put(kControlFrameVersion);
  put(static_cast<uint8_t>(frame.type));
  put(frame.sender);
  put(static_cast<uint32_t>(frame.entries.size()));
  for (const ControlEntry& e : frame.entries) {
    put(e.host_id);
    put(e.ipv4_be);
    put(e.port);
    put(e.wire_min);
    put(e.wire_max);
  }
  return OkStatus();
}

StatusOr<ControlFrame> DecodeControlFrame(const uint8_t* data, size_t len) {
  Reader r(data, len);
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!r.Get(&magic) || magic != kControlFrameMagic) {
    return InvalidArgumentError("bad control magic");
  }
  if (!r.Get(&version) || version != kControlFrameVersion) {
    return InvalidArgumentError("unsupported control version");
  }
  ControlFrame frame;
  uint8_t type = 0;
  uint32_t count = 0;
  if (!r.Get(&type) || !r.Get(&frame.sender) || !r.Get(&count)) {
    return InvalidArgumentError("truncated control frame");
  }
  if (type < static_cast<uint8_t>(ControlFrameType::kAnnounce) ||
      type > static_cast<uint8_t>(ControlFrameType::kTableAck)) {
    return InvalidArgumentError("unknown control frame type");
  }
  if (count > kMaxControlEntries) {
    return InvalidArgumentError("oversized control table");
  }
  frame.type = static_cast<ControlFrameType>(type);
  frame.entries.resize(count);
  for (ControlEntry& e : frame.entries) {
    if (!r.Get(&e.host_id) || !r.Get(&e.ipv4_be) || !r.Get(&e.port) ||
        !r.Get(&e.wire_min) || !r.Get(&e.wire_max)) {
      return InvalidArgumentError("truncated control entry");
    }
  }
  return frame;
}

}  // namespace snap
