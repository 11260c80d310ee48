// The Pony Express lower transport layer (Section 3.1): "the lower layer
// implements reliable flows between a pair of engines across the network...
// only responsible for reliably delivering individual packets whereas the
// upper layer handles reordering, reassembly, and semantics associated with
// specific operations."
//
// A Flow provides: per-packet sequencing with cumulative acks and duplicate
// suppression, fast retransmit on dup-acks with NewReno recovery, an
// RFC 6298 retransmission timeout with exponential backoff, Timely-paced
// transmission, and credit-based flow control for two-sided
// message data (one-sided operations intentionally bypass credits and fall
// back to congestion control + CPU scheduling, Section 3.3).
#ifndef SRC_PONY_FLOW_H_
#define SRC_PONY_FLOW_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/packet/packet.h"
#include "src/pony/timely.h"
#include "src/sim/model_params.h"
#include "src/snap/state_codec.h"
#include "src/util/time_types.h"

namespace snap {

struct FlowKey {
  int remote_host = -1;
  uint32_t remote_engine = 0;

  friend bool operator<(const FlowKey& a, const FlowKey& b) {
    if (a.remote_host != b.remote_host) {
      return a.remote_host < b.remote_host;
    }
    return a.remote_engine < b.remote_engine;
  }
  friend bool operator==(const FlowKey& a, const FlowKey& b) {
    return a.remote_host == b.remote_host &&
           a.remote_engine == b.remote_engine;
  }
};

// A packet queued for (re)transmission; headers are completed (seq, ack,
// timestamps) when the packet goes on the wire. A queued record is the next
// fragment of its message, [msg_offset, msg_offset + payload_bytes); with
// `rest_of_message` set it also stands for the rest of the message, which
// the flow cuts into further fragments of the same size when it may send
// them (the engine queues each message once, not once per MTU packet).
struct TxRecord {
  PonyHeader header;
  int32_t payload_bytes = 0;
  bool uses_credit = false;  // two-sided message fragments
  bool rest_of_message = false;
  // The real payload of the next fragment; a later fragment cut from this
  // record carries none (real bytes beyond one fragment live in `body`).
  std::vector<uint8_t> data;
  // Zero-copy message body (Section 6.2): when set, the real payload is
  // this fragment's part of the message body that every fragment shares —
  // bytes [msg_offset, msg_offset + payload_bytes), clipped to the body —
  // and `data` is unused. (Fields are ordered to keep the record within
  // three per deque block.)
  std::shared_ptr<const std::vector<uint8_t>> body;

  // The real payload bytes, wherever they live.
  std::span<const uint8_t> bytes() const {
    if (body == nullptr) {
      return data;
    }
    size_t begin = std::min<size_t>(header.msg_offset, body->size());
    size_t end = std::min<size_t>(begin + payload_bytes, body->size());
    return {body->data() + begin, end - begin};
  }

  // True while the record stands for more than its next fragment.
  bool HasMoreFragments() const {
    return rest_of_message && payload_bytes > 0 &&
           int64_t{header.msg_offset} + payload_bytes < header.msg_length;
  }
  // Cuts the next fragment off a record with HasMoreFragments() and
  // advances the record to the fragment after it.
  TxRecord CutFragment();

  // One record is built per transmitted fragment; recycling `data`'s
  // buffer through the shared payload cache (see packet.h) keeps record
  // construction off malloc. Behavior is unchanged: data starts empty.
  TxRecord() : data(TakePayloadBuffer()) {}
  ~TxRecord() { StashPayloadBuffer(std::move(data)); }
  TxRecord(const TxRecord&) = default;
  TxRecord(TxRecord&&) = default;
  TxRecord& operator=(const TxRecord&) = default;
  TxRecord& operator=(TxRecord&&) = default;
};

class Flow {
 public:
  // Initial two-sided message credit granted by a new peer.
  static constexpr int64_t kInitialCreditBytes = 1024 * 1024;
  // Receiver grants accumulated credit once it crosses this threshold.
  static constexpr int64_t kCreditGrantThreshold = 32 * 1024;

  Flow(FlowKey key, int local_host, uint32_t local_engine,
       uint16_t wire_version, const TimelyParams& timely_params,
       const PonyParams* pony_params);

  const FlowKey& key() const { return key_; }
  uint16_t wire_version() const { return wire_version_; }

  // QoS tenant owning this flow (src/qos/tenant.h). Assigned by the engine
  // from the creating command (or inherited from the first arriving tagged
  // packet), stamped into every outgoing packet, and round-tripped through
  // Serialize/Deserialize. Does not affect inert(): the tag changes who is
  // charged, never whether work exists.
  uint32_t tenant() const { return tenant_; }
  void set_tenant(uint32_t tenant) { tenant_ = tenant; }

  // --- Transmit side ---
  // Message data (uses_credit) queues per stream and is serviced
  // round-robin, one fragment per turn, so one large message cannot
  // head-of-line block others (Section 3.3's stream semantics); one-sided
  // ops and uncredited messages queue separately and bypass credit flow
  // control entirely. A record with rest_of_message leaves its queue only
  // once its last fragment is cut.
  void QueueTx(TxRecord record);
  // Queued records (a queued message counts once, however many fragments
  // it has left) plus pending retransmissions.
  size_t tx_backlog() const {
    return msg_backlog_ + op_queue_.size() + retx_queue_.size();
  }
  // True iff the flow is a provable no-op for every per-poll engine query:
  // BuildNextPacket returns nullptr, OnTimerCheck / MaybeBuildAck /
  // MaybeBuildCreditGrant do nothing, CanSend is false and every deadline
  // is kSimTimeNever — independent of `now`. The engine polls each flow
  // many times per iteration; inert flows can be skipped with bit-identical
  // results. The answer is cached as one flag (the full predicate reads
  // seven fields across several cache lines): every mutating method ends
  // with RecomputeInert(), so the flag is always exact.
  bool inert() const { return inert_; }
  // True if BuildNextPacket would produce a packet now.
  bool CanSend(SimTime now) const;
  // Earliest future time a queued packet becomes sendable (pacing);
  // kSimTimeNever when nothing is queued or the window is full.
  SimTime NextSendTime() const;
  // Builds the next wire packet (assigns seq, piggybacks ack, stamps
  // timestamps, paces). nullptr when nothing is sendable.
  PacketPtr BuildNextPacket(SimTime now);

  // Pure ack / credit-grant generation (bypass pacing). Acks coalesce:
  // one per kAckEvery received packets, or when the ack deadline passes,
  // or immediately on out-of-order arrival (fast-retransmit signal).
  bool ack_pending() const { return ack_pending_; }
  // Earliest time a coalesced ack must go out; kSimTimeNever if none owed.
  SimTime AckDeadline() const;
  PacketPtr MaybeBuildAck(SimTime now);
  PacketPtr MaybeBuildCreditGrant(SimTime now);

  // --- Receive side ---
  struct RxResult {
    bool duplicate = false;
    bool deliver = false;  // hand the packet to the upper layer
  };
  RxResult OnReceive(const Packet& packet, SimTime now);

  // --- Timers ---
  // The retransmission timer's deadline; kSimTimeNever while disarmed.
  // Armed by the first send into an empty window, restarted by every
  // cumulative-ack advance, disarmed when everything is acked.
  SimTime rto_deadline() const { return rto_at_; }
  // Fires the retransmission timer if due: retransmits only the lowest
  // unacked seq, enters recovery and backs the timer off. Returns true if
  // it fired.
  bool OnTimerCheck(SimTime now);
  // Current timeout, backoff included (introspection for tests).
  SimDuration rto() const { return CurrentRto(); }

  // --- Two-sided credit flow control ---
  bool HasCredit(int64_t bytes) const { return credit_ >= bytes; }
  // Receiver side: the application consumed `bytes` of delivered messages.
  void NoteDelivered(int64_t bytes) {
    pending_grant_ += bytes;
    RecomputeInert();
  }

  TimelyController& timely() { return timely_; }
  int64_t credit() const { return credit_; }
  size_t unacked_packets() const { return unacked_.size(); }

  // --- Introspection (invariant checkers, src/testing/invariants.h) ---
  uint64_t rcv_nxt() const { return rcv_nxt_; }
  uint64_t last_ack_seen() const { return last_ack_seen_; }
  int64_t pending_grant() const { return pending_grant_; }
  int64_t reserved() const { return reserved_; }
  size_t retx_queue_size() const { return retx_queue_.size(); }
  // Cumulative credit granted by this side / observed from the peer. Credit
  // grants ride every outgoing packet as a cumulative count (mod 2^32) so a
  // lost kCredit packet is healed by any later packet: the receiver applies
  // the serial-arithmetic delta against last_credit_seen().
  uint32_t granted_total() const { return granted_total_; }
  uint32_t last_credit_seen() const { return last_credit_seen_; }

  // Invoked once per packet when the peer's cumulative ack covers it (the
  // upper layer completes send operations on reliable delivery).
  void set_ack_observer(std::function<void(const TxRecord&)> observer) {
    ack_observer_ = std::move(observer);
  }

  struct Stats {
    int64_t data_packets_sent = 0;
    int64_t acks_sent = 0;
    int64_t retransmits = 0;
    int64_t rto_events = 0;
    int64_t duplicates_received = 0;
    int64_t rtt_samples = 0;
    // Retransmits of packets that were never lost: the covering ack arrived
    // sooner after the retransmit left than the fabric's minimum RTT, so it
    // was triggered by the original transmission (reordering-induced
    // dup-acks or an early RTO, not loss).
    int64_t spurious_retransmits = 0;
  };
  const Stats& stats() const { return stats_; }

  // --- Upgrade serialization (Section 4): the entire flow state moves. ---
  void Serialize(StateWriter* w) const;
  static Flow Deserialize(StateReader* r, int local_host,
                          uint32_t local_engine,
                          const TimelyParams& timely_params,
                          const PonyParams* pony_params);

 private:
  struct Unacked {
    TxRecord record;
    SimTime sent_at = 0;
    int transmissions = 1;          // 1 = original only
    SimTime last_retx_at = kSimTimeNever;
  };

  PacketPtr MakePacket(const TxRecord& record, SimTime now, uint64_t seq);
  // Bodies of the public mutators; the public wrappers re-derive inert_
  // on every exit path.
  PacketPtr BuildNextPacketImpl(SimTime now);
  RxResult OnReceiveImpl(const Packet& packet, SimTime now);
  // True if any stream's head fragment may be sent under the credit
  // reservation rules.
  bool MsgReady() const;
  bool StreamEligible(
      const std::pair<const uint64_t, std::deque<TxRecord>>* entry) const;
  // Rebuilds started/reserved bookkeeping from queue contents (restore).
  void RebuildCreditReservations();
  // Takes the next sendable fragment (stream round-robin vs op
  // alternation), cutting it off its queued message.
  TxRecord PopNextRecord();
  bool AnythingSendable() const;
  uint64_t WireFlowId() const {
    return (static_cast<uint64_t>(local_engine_) << 32) |
           static_cast<uint64_t>(key_.remote_engine);
  }

  // RFC 6298 retransmission timer. One RTT sample folds into SRTT/RTTVAR;
  // CurrentRto() is max(min_rto, SRTT + 4*RTTVAR), doubled per unanswered
  // timeout (capped). The timer is one deadline, not a per-packet scan.
  void OnRttEstimate(SimDuration rtt);
  SimDuration CurrentRto() const;
  void ArmRtoTimer(SimTime now) { rto_at_ = now + CurrentRto(); }
  // Queues `seq` for retransmission unless it is already queued.
  void QueueRetransmit(uint64_t seq);
  // Retransmits the first hole and enters NewReno recovery up to the
  // highest seq sent so far (timeouts and fast retransmits share this).
  void EnterRecovery(SimTime now);

  // MsgReady() is polled by the engine every iteration (via CanSend /
  // NextSendTime) but its inputs — the stream queues, the credit pool and
  // the reservation bookkeeping — only change when a packet is queued,
  // built, or received. Every mutation site marks the cache dirty, so the
  // cached answer is always exactly what a fresh scan would return.
  bool ComputeMsgReady() const;
  void MarkMsgReadyDirty() { msg_ready_dirty_ = true; }

  // Re-derives inert_ from the fields it summarizes (see inert()). Each
  // conjunct guards one engine query: empty tx queues (nothing to send),
  // empty unacked_ (no RTO), no ack owed, no grant ripe.
  void RecomputeInert() {
    inert_ = msg_backlog_ == 0 && op_queue_.empty() &&
             retx_queue_.empty() && unacked_.empty() && !ack_pending_ &&
             unacked_rx_ == 0 && pending_grant_ < kCreditGrantThreshold;
  }

  FlowKey key_;
  int local_host_;
  uint32_t local_engine_;
  uint16_t wire_version_;
  uint32_t tenant_ = 0;  // qos::kDefaultTenant
  const PonyParams* params_;
  TimelyController timely_;

  // TX.
  // Credit-gated messages, one queue per stream, serviced one fragment at
  // a time in round-robin order (msg_rr_ holds pointers to the active map entries —
  // map nodes are address-stable and never erased, so the rotation and the
  // eligibility scans touch no map lookups). Starting a message RESERVES
  // its full length against the credit pool, so every in-progress message
  // is guaranteed to finish (otherwise round-robin could strand more
  // partial messages than the pool can complete and the receiver would
  // never grant credit back — deadlock).
  using MsgQueueMap = std::map<uint64_t, std::deque<TxRecord>>;
  using MsgQueueEntry = MsgQueueMap::value_type;
  MsgQueueMap msg_queues_;
  std::deque<MsgQueueEntry*> msg_rr_;
  std::set<uint64_t> started_streams_;  // head message mid-transmission
  int64_t reserved_ = 0;  // unsent bytes of started messages
  size_t msg_backlog_ = 0;  // records across msg_queues_
  // One-sided ops, their replies, and uncredited (large) messages.
  std::deque<TxRecord> op_queue_;
  bool prefer_op_ = false;          // alternation when both are ready
  mutable bool msg_ready_cache_ = false;   // see MarkMsgReadyDirty()
  mutable bool msg_ready_dirty_ = true;
  bool inert_ = true;  // see RecomputeInert(); a fresh flow is inert
  std::deque<uint64_t> retx_queue_;  // seqs to retransmit (from unacked_)
  std::map<uint64_t, Unacked> unacked_;
  // Loss recovery (see OnRttEstimate()). Not serialized: a restored flow
  // restarts from min_rto with the timer disarmed until it next sends.
  SimTime rto_at_ = kSimTimeNever;  // kSimTimeNever: disarmed
  SimDuration srtt_ = 0;            // 0 until the first sample
  SimDuration rttvar_ = 0;
  int rto_backoff_ = 0;             // timeouts since the last new ack
  bool in_recovery_ = false;
  uint64_t recover_ = 0;            // recovery ends once this seq is acked
  SimTime recovery_start_ = 0;      // acks echoing earlier sends: spurious
  uint64_t next_seq_ = 1;
  int dup_acks_ = 0;
  uint64_t last_ack_seen_ = 0;
  SimTime next_send_time_ = 0;
  int64_t credit_;

  // RX.
  std::function<void(const TxRecord&)> ack_observer_;
  uint64_t rcv_nxt_ = 1;  // next expected seq (all below received)
  std::set<uint64_t> ooo_;
  bool ack_pending_ = false;
  int unacked_rx_ = 0;          // packets received since our last ack
  SimTime first_unacked_rx_ = kSimTimeNever;
  int64_t ts_echo_ = 0;   // tx_timestamp of the newest received packet
  int64_t pending_grant_ = 0;
  // Cumulative credit handshake (see granted_total() / last_credit_seen()).
  uint32_t granted_total_ = 0;     // total bytes this side has granted
  uint32_t last_credit_seen_ = 0;  // newest cumulative grant from the peer

  Stats stats_;
};

}  // namespace snap

#endif  // SRC_PONY_FLOW_H_
