// Live application driver: a real thread talking to its Pony engine over
// the SPSC command/completion rings — the paper's "applications ...
// spin-poll the completion queue" mode (Section 3.1).
//
// One driver, RunLivePeer, plays either or both of two roles on one
// PonyClient:
//   - ping: a closed-loop RPC client. Each message leads with a 16-byte
//     header: an 8-byte sequence number, then the 8-byte send timestamp.
//     Latency is measured end-to-end on this thread when the echo returns.
//   - echo: sends each incoming ping back verbatim, with kEchoTag (the MSB
//     of the sequence number) set.
// Incoming messages demux by that tag, so one message queue carries both
// roles (live_node's ring: ping the successor, echo for the predecessor).
//
// Streams are created in the setup phase (CreateStream mutates engine
// maps, which only the engine thread may touch once running), so the
// driver takes pre-created stream ids.
#ifndef SRC_LIVE_LIVE_APPS_H_
#define SRC_LIVE_LIVE_APPS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/pony/client.h"
#include "src/pony/pony_types.h"
#include "src/util/doorbell.h"

namespace snap {

// Set in an echo's sequence number; clear in a ping's.
constexpr uint64_t kEchoTag = 1ULL << 63;
// Sequence number + send timestamp.
constexpr int64_t kLiveHeaderBytes = 16;

struct LiveAppResult {
  int64_t rpcs_completed = 0;     // ping role: echoes of our pings received
  int64_t echoes_sent = 0;        // echo role: pings echoed back
  int64_t messages_received = 0;  // well-formed pings + echoes
  int64_t bytes_received = 0;
  // Dropped incoming messages: shorter than the header, an echo with no
  // ping in flight or with a send timestamp this thread cannot have
  // written, or a ping the echo role does not expect.
  int64_t malformed = 0;
  int64_t send_completions = 0;
  int64_t send_errors = 0;          // completions with non-OK status
  int64_t submit_backpressure = 0;  // SendMessage returned 0 (queue full)
  // Sends still uncompleted when the tail drain ended. Not a failure by
  // itself: a remote peer that finished first may exit before acking.
  int64_t completions_missing = 0;
  int64_t poll_passes = 0;  // outer poll-loop iterations
  int64_t waits = 0;        // blocking mode: times the thread slept
  bool timed_out = false;
  std::vector<int64_t> rtt_ns;  // per-RPC round-trip (ping role)

  // Nearest-rank percentile of rtt_ns in microseconds (index
  // floor(p/100 * (n-1))); 0 with no samples.
  double RttPercentileUs(double p) const;
};

struct LivePeer {
  // Ping role: `pings` messages of `message_bytes` to `ping_to` on
  // `ping_stream`, at most `window` in flight.
  PonyAddress ping_to;
  uint64_t ping_stream = 0;
  int64_t pings = 0;
  int64_t message_bytes = 64;  // >= kLiveHeaderBytes
  int window = 1;
  // Echo role: echo `echoes` incoming pings to `echo_to` on `echo_stream`.
  PonyAddress echo_to;
  uint64_t echo_stream = 0;
  int64_t echoes = 0;
  // Raw MonotonicTimeNs clock. Past it the driver sets timed_out and
  // returns.
  int64_t deadline_ns = 0;
  // Once both roles finish, send completions drain until all arrive, the
  // deadline, or this long after the finish, whichever is first.
  int64_t linger_ns = std::numeric_limits<int64_t>::max();
  // Non-null (bind it to the client first: PonyClient::BindDoorbell): the
  // thread sleeps on the bell whenever a full poll pass makes no progress,
  // instead of spin-polling — poll_passes stays near the message count and
  // waits counts the sleeps.
  Doorbell* doorbell = nullptr;
};

// Runs both roles until each is complete and the tail drain ends.
LiveAppResult RunLivePeer(PonyClient* client, const LivePeer& peer);

}  // namespace snap

#endif  // SRC_LIVE_LIVE_APPS_H_
