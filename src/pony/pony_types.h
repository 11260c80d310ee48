// Shared Pony Express types: addressing, the asynchronous operation-level
// command/completion interface (Section 3: "The application interface to
// Pony Express is based on asynchronous operation-level commands and
// completions, as opposed to a packet-level or byte-streaming sockets
// interface").
#ifndef SRC_PONY_PONY_TYPES_H_
#define SRC_PONY_PONY_TYPES_H_

#include <cstdint>
#include <vector>

#include "src/packet/packet.h"
#include "src/util/time_types.h"

namespace snap {

// Address of a Pony Express engine on the fabric.
struct PonyAddress {
  int host = -1;
  uint32_t engine_id = 0;

  friend bool operator==(const PonyAddress& a, const PonyAddress& b) {
    return a.host == b.host && a.engine_id == b.engine_id;
  }
  friend bool operator<(const PonyAddress& a, const PonyAddress& b) {
    if (a.host != b.host) {
      return a.host < b.host;
    }
    return a.engine_id < b.engine_id;
  }
};

enum class PonyCommandType : uint8_t {
  kSendMessage,
  kRead,
  kWrite,
  kIndirectRead,
  kScanAndRead,
};

// One entry in an application's command queue.
struct PonyCommand {
  PonyCommandType type = PonyCommandType::kSendMessage;
  uint64_t op_id = 0;
  PonyAddress peer;
  uint64_t stream_id = 0;   // kSendMessage
  int64_t length = 0;       // message or access length (synthetic payloads)
  std::vector<uint8_t> data;  // real payload (messages / writes), optional
  uint64_t region_id = 0;     // one-sided target region
  uint64_t region_offset = 0;
  uint16_t batch = 1;         // kIndirectRead: number of indirections
  uint64_t scan_match = 0;    // kScanAndRead: value to match
  SimTime submit_time = 0;
  uint32_t tenant = 0;        // qos::TenantId of the submitting client
};

enum class PonyOpStatus : uint16_t {
  kOk = 0,
  kNoSuchRegion = 1,
  kOutOfBounds = 2,
  kPermissionDenied = 3,
  kNoMatch = 4,
  kAborted = 5,
};

// One entry in an application's completion queue.
struct PonyCompletion {
  uint64_t op_id = 0;
  PonyOpStatus status = PonyOpStatus::kOk;
  int64_t length = 0;         // bytes read/written/sent
  std::vector<uint8_t> data;  // read results (when real payloads in use)
  SimTime submit_time = 0;
  SimTime complete_time = 0;
};

// A fully reassembled incoming two-sided message.
struct PonyIncomingMessage {
  PonyAddress from;
  uint64_t stream_id = 0;
  uint64_t op_id = 0;
  int64_t length = 0;  // the message length, synthetic bytes included
  // The real bytes the sender supplied: a prefix of the message, so
  // data.size() <= length, equal when the whole body was real (always so
  // live). The synthetic rest is a length only and never allocated.
  std::vector<uint8_t> data;
  SimTime receive_time = 0;
};

}  // namespace snap

#endif  // SRC_PONY_PONY_TYPES_H_
