#include "src/live/live_apps.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/kernel/kstack.h"
#include "src/live/live_executor.h"
#include "src/util/logging.h"

namespace snap {

namespace {

// App-side CPU costs are modeled quantities; in live mode real cycles are
// spent, so the modeled charge is accumulated and discarded.
CpuCostSink* Sink() {
  thread_local CpuCostSink sink;
  return &sink;
}

bool Expired(int64_t deadline_ns) { return MonotonicTimeNs() > deadline_ns; }

// Longest single sleep in blocking mode: bounds staleness against wakeup
// paths that cannot ring the bell (engine-side holds, remote peers).
constexpr int64_t kBlockSliceNs = 1'000'000;

// Blocking-notify idle step: called when a full poll pass made no
// progress. The Consume at the caller's loop top latched any ring since
// the previous pass; if the bell is still quiet, sleep until rung (the
// engine rings on every completion/message delivery) or the slice ends.
void IdleWait(Doorbell* doorbell, LiveAppResult* result) {
  if (doorbell == nullptr) {
    return;  // spin-poll mode
  }
  if (doorbell->pending()) {
    return;  // rung during the pass; poll again immediately
  }
  result->waits++;
  doorbell->WaitFor(kBlockSliceNs);
}

}  // namespace

double LiveAppResult::RttPercentileUs(double p) const {
  if (rtt_ns.empty()) {
    return 0;
  }
  std::vector<int64_t> sorted = rtt_ns;
  size_t idx = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1));
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return static_cast<double>(sorted[idx]) / 1000.0;
}

LiveAppResult RunLivePeer(PonyClient* client, const LivePeer& peer) {
  SNAP_CHECK_GE(peer.message_bytes, kLiveHeaderBytes)
      << "payload carries seq + timestamp";
  SNAP_CHECK_GE(peer.window, 1);
  LiveAppResult result;
  result.rtt_ns.reserve(static_cast<size_t>(peer.pings));
  int64_t pings_sent = 0;
  int64_t in_flight = 0;
  std::vector<uint8_t> payload(static_cast<size_t>(peer.message_bytes),
                               0xa5);
  // Drains send completions; returns whether any arrived.
  auto drain_completions = [&] {
    bool any = false;
    while (auto done = client->PollCompletion(Sink())) {
      any = true;
      result.send_completions++;
      if (done->status != PonyOpStatus::kOk) {
        result.send_errors++;
      }
    }
    return any;
  };
  int64_t finished_at = -1;  // when both roles completed: starts the tail
  while (true) {
    const int64_t now = MonotonicTimeNs();
    if (finished_at < 0 && result.rpcs_completed >= peer.pings &&
        result.echoes_sent >= peer.echoes) {
      finished_at = now;
    }
    if (finished_at >= 0 &&
        (result.send_completions >= pings_sent + result.echoes_sent ||
         now - finished_at >= peer.linger_ns)) {
      break;
    }
    if (now > peer.deadline_ns) {
      result.timed_out = true;
      break;
    }
    if (peer.doorbell != nullptr) {
      peer.doorbell->Consume();
    }
    result.poll_passes++;
    bool progress = false;
    // Keep the closed-loop ping window full.
    while (in_flight < peer.window && pings_sent < peer.pings) {
      uint64_t seq = static_cast<uint64_t>(pings_sent);
      int64_t sent_at = MonotonicTimeNs();
      std::memcpy(payload.data(), &seq, sizeof(seq));
      std::memcpy(payload.data() + 8, &sent_at, sizeof(sent_at));
      if (client->SendMessage(peer.ping_to, peer.ping_stream,
                              peer.message_bytes, payload, Sink()) == 0) {
        result.submit_backpressure++;
        break;  // command ring full; poll before retrying
      }
      pings_sent++;
      in_flight++;
      progress = true;
    }
    while (auto msg = client->PollMessage(Sink())) {
      progress = true;
      if (msg->data.size() < static_cast<size_t>(kLiveHeaderBytes)) {
        result.malformed++;
        continue;
      }
      uint64_t seq = 0;
      int64_t sent_at = 0;
      std::memcpy(&seq, msg->data.data(), sizeof(seq));
      std::memcpy(&sent_at, msg->data.data() + 8, sizeof(sent_at));
      if ((seq & kEchoTag) != 0) {
        // An echo carries our own send timestamp, never a future one.
        int64_t received_at = MonotonicTimeNs();
        if (in_flight == 0 || sent_at < 0 || sent_at > received_at) {
          result.malformed++;
          continue;
        }
        in_flight--;
        result.rpcs_completed++;
        result.messages_received++;
        result.bytes_received += msg->length;
        result.rtt_ns.push_back(received_at - sent_at);
        continue;
      }
      if (result.echoes_sent >= peer.echoes) {
        result.malformed++;
        continue;
      }
      result.messages_received++;
      result.bytes_received += msg->length;
      // A ping: tag it and send it back, preserving the timestamp; retry
      // through command-ring backpressure, draining completions so the
      // ring frees up.
      std::vector<uint8_t> reply = std::move(msg->data);
      seq |= kEchoTag;
      std::memcpy(reply.data(), &seq, sizeof(seq));
      while (client->SendMessage(peer.echo_to, peer.echo_stream, msg->length,
                                 reply, Sink()) == 0) {
        result.submit_backpressure++;
        if (Expired(peer.deadline_ns)) {
          result.timed_out = true;
          break;
        }
        drain_completions();
      }
      if (result.timed_out) {
        break;
      }
      result.echoes_sent++;
    }
    if (drain_completions()) {
      progress = true;
    }
    if (!progress) {
      IdleWait(peer.doorbell, &result);
    }
  }
  result.completions_missing =
      pings_sent + result.echoes_sent - result.send_completions;
  return result;
}

}  // namespace snap
