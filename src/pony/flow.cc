#include "src/pony/flow.h"

#include <algorithm>

#include "src/packet/wire.h"
#include "src/util/logging.h"

namespace snap {

namespace {

// Bound on in-flight packets per flow (memory and loss-recovery bound).
constexpr size_t kMaxUnackedPackets = 1024;
// Ack coalescing: one ack per this many received packets...
constexpr int kAckEvery = 8;
// ...or once this much time has passed since the first unacked arrival.
constexpr SimDuration kAckDelay = 20 * kUsec;
// Pacing burst allowance: a flow that fell behind its pacing schedule may
// catch up with a burst of this many packets (paced NICs and Snap's
// just-in-time generation both emit short line-rate bursts).
constexpr int kPacingBurstPackets = 16;
// Dup-acks that signal a loss (fast retransmit).
constexpr int kDupAckThreshold = 3;
// Ceiling on the backed-off retransmission timeout (RFC 6298 5.5).
constexpr SimDuration kMaxRto = 64 * kMsec;

// Fragments a queued record sends, itself included.
uint32_t QueuedFragments(const TxRecord& r) {
  if (!r.HasMoreFragments()) {
    return 1;
  }
  int64_t left = int64_t{r.header.msg_length} - r.header.msg_offset;
  return static_cast<uint32_t>((left + r.payload_bytes - 1) /
                               r.payload_bytes);
}

// True if `next` is the fragment that a record queued for the message of
// `first` would cut after `prev` (Flow::Serialize writes such runs).
bool ContinuesRun(const TxRecord& first, const TxRecord& prev,
                  const TxRecord& next) {
  const PonyHeader& a = first.header;
  const PonyHeader& b = next.header;
  int64_t offset = int64_t{prev.header.msg_offset} + prev.payload_bytes;
  return a.type == PonyPacketType::kData && b.type == a.type &&
         b.op == a.op && b.op_id == a.op_id && b.stream_id == a.stream_id &&
         b.msg_length == a.msg_length && b.region_id == a.region_id &&
         b.region_offset == a.region_offset && b.op_length == a.op_length &&
         b.batch == a.batch && b.status == a.status &&
         next.uses_credit == first.uses_credit && first.payload_bytes > 0 &&
         prev.payload_bytes == first.payload_bytes && b.msg_offset == offset &&
         offset < a.msg_length &&
         next.payload_bytes ==
             std::min<int64_t>(first.payload_bytes, a.msg_length - offset);
}

// Queues a run of fragments (see ContinuesRun) as the one record that cuts
// them. A run that stops short of its message's end, or whose real bytes do
// not fill each fragment up to the last that has any, cannot be cut from
// one record and queues fragment by fragment.
void QueueRun(Flow* flow, std::vector<TxRecord>* run) {
  if (run->empty()) {
    return;
  }
  const TxRecord& tail = run->back();
  bool foldable = run->size() > 1 &&
                  int64_t{tail.header.msg_offset} + tail.payload_bytes ==
                      tail.header.msg_length;
  // Real bytes past the first fragment move into a shared body, which each
  // cut fragment clips: every fragment before the last one holding real
  // bytes must be real to its end.
  size_t last_real = 0;
  for (size_t i = 1; i < run->size(); ++i) {
    if (!(*run)[i].data.empty()) {
      last_real = i;
    }
  }
  for (size_t i = 0; foldable && i <= last_real && last_real > 0; ++i) {
    const TxRecord& f = (*run)[i];
    size_t payload = static_cast<size_t>(f.payload_bytes);
    foldable = i < last_real ? f.data.size() == payload
                             : f.data.size() <= payload;
  }
  if (!foldable) {
    for (TxRecord& f : *run) {
      flow->QueueTx(std::move(f));
    }
    run->clear();
    return;
  }
  TxRecord rec = std::move(run->front());
  rec.rest_of_message = true;
  if (last_real > 0) {
    // Bytes before the run's first fragment were sent already and are
    // never read again; they stay zero.
    const TxRecord& last = (*run)[last_real];
    auto body = std::make_shared<std::vector<uint8_t>>(
        last.header.msg_offset + last.data.size());
    auto place = [&body](const TxRecord& f) {
      std::copy(f.data.begin(), f.data.end(),
                body->begin() + f.header.msg_offset);
    };
    place(rec);
    for (size_t i = 1; i < run->size(); ++i) {
      place((*run)[i]);
    }
    rec.data.clear();
    rec.body = std::move(body);
  }
  flow->QueueTx(std::move(rec));
  run->clear();
}

}  // namespace

Flow::Flow(FlowKey key, int local_host, uint32_t local_engine,
           uint16_t wire_version, const TimelyParams& timely_params,
           const PonyParams* pony_params)
    : key_(key),
      local_host_(local_host),
      local_engine_(local_engine),
      wire_version_(wire_version),
      params_(pony_params),
      timely_(timely_params),
      credit_(kInitialCreditBytes) {}

TxRecord TxRecord::CutFragment() {
  TxRecord fragment;
  fragment.header = header;
  fragment.payload_bytes = payload_bytes;
  fragment.uses_credit = uses_credit;
  fragment.body = body;
  fragment.data.swap(data);  // only the next fragment carries `data`
  header.msg_offset += static_cast<uint32_t>(payload_bytes);
  payload_bytes = static_cast<int32_t>(std::min<int64_t>(
      payload_bytes, int64_t{header.msg_length} - header.msg_offset));
  return fragment;
}

void Flow::QueueTx(TxRecord record) {
  if (record.uses_credit) {
    uint64_t stream = record.header.stream_id;
    auto [qit, inserted] = msg_queues_.try_emplace(stream);
    if (qit->second.empty()) {
      msg_rr_.push_back(&*qit);
    }
    qit->second.push_back(std::move(record));
    ++msg_backlog_;
    MarkMsgReadyDirty();
  } else {
    op_queue_.push_back(std::move(record));
  }
  RecomputeInert();
}

bool Flow::StreamEligible(const MsgQueueEntry* entry) const {
  const TxRecord& head = entry->second.front();
  if (started_streams_.count(entry->first) > 0) {
    // Reserved at start: the invariant credit_ >= reserved_ guarantees
    // this fragment is covered.
    return true;
  }
  // Starting a new message requires unreserved credit for all of it.
  return credit_ - reserved_ >=
         static_cast<int64_t>(head.header.msg_length);
}

bool Flow::ComputeMsgReady() const {
  for (const MsgQueueEntry* entry : msg_rr_) {
    if (StreamEligible(entry)) {
      return true;
    }
  }
  return false;
}

bool Flow::MsgReady() const {
  if (msg_ready_dirty_) {
    msg_ready_cache_ = ComputeMsgReady();
    msg_ready_dirty_ = false;
  }
  return msg_ready_cache_;
}

bool Flow::AnythingSendable() const {
  return MsgReady() || !op_queue_.empty();
}

TxRecord Flow::PopNextRecord() {
  bool msg_ready = MsgReady();
  bool op_ready = !op_queue_.empty();
  bool take_op = op_ready && (!msg_ready || prefer_op_);
  prefer_op_ = !prefer_op_;
  if (take_op) {
    TxRecord& head = op_queue_.front();
    if (head.HasMoreFragments()) {
      return head.CutFragment();
    }
    TxRecord record = std::move(head);
    op_queue_.pop_front();
    return record;
  }
  // Round-robin across streams: rotate to the next eligible stream and
  // send one fragment of its head message.
  for (size_t i = 0; i < msg_rr_.size(); ++i) {
    if (StreamEligible(msg_rr_.front())) {
      break;
    }
    msg_rr_.push_back(msg_rr_.front());
    msg_rr_.pop_front();
  }
  MsgQueueEntry* entry = msg_rr_.front();
  msg_rr_.pop_front();
  uint64_t stream = entry->first;
  TxRecord& head = entry->second.front();
  bool last = !head.HasMoreFragments();
  TxRecord record = last ? TxRecord(std::move(head)) : head.CutFragment();
  if (last) {
    entry->second.pop_front();
    --msg_backlog_;
  }
  // Credit reservation bookkeeping.
  if (started_streams_.count(stream) == 0) {
    started_streams_.insert(stream);
    reserved_ += record.header.msg_length;
  }
  reserved_ -= record.payload_bytes;
  if (record.header.msg_offset + record.payload_bytes >=
      record.header.msg_length) {
    started_streams_.erase(stream);  // message complete
  }
  if (!entry->second.empty()) {
    msg_rr_.push_back(entry);
  }
  // A drained queue stays in msg_queues_ (it just leaves msg_rr_, which is
  // what the eligibility scans walk): stream ids are long-lived bindings,
  // so the same stream sends again soon and reuses the deque's buffer
  // instead of re-allocating map node + deque block per message.
  MarkMsgReadyDirty();
  return record;
}

void Flow::RebuildCreditReservations() {
  started_streams_.clear();
  reserved_ = 0;
  for (const auto& [stream, queue] : msg_queues_) {
    if (queue.empty()) {
      continue;  // drained queue kept for buffer reuse
    }
    const TxRecord& head = queue.front();
    if (head.header.msg_offset > 0) {
      // Mid-message after a restore: the remainder stays reserved.
      started_streams_.insert(stream);
      reserved_ += head.header.msg_length - head.header.msg_offset;
    }
  }
  MarkMsgReadyDirty();
}

bool Flow::CanSend(SimTime now) const {
  if (!retx_queue_.empty()) {
    return true;  // retransmits bypass pacing and the window bound
  }
  if (unacked_.size() >= kMaxUnackedPackets) {
    return false;
  }
  if (!AnythingSendable()) {
    return false;
  }
  return now >= next_send_time_;
}

SimTime Flow::NextSendTime() const {
  if (!retx_queue_.empty()) {
    return 0;
  }
  if (unacked_.size() >= kMaxUnackedPackets) {
    return kSimTimeNever;  // unblocked by an ack, not by time
  }
  if (!AnythingSendable()) {
    return kSimTimeNever;  // unblocked by a credit grant or new work
  }
  return next_send_time_;
}

PacketPtr Flow::MakePacket(const TxRecord& record, SimTime now,
                           uint64_t seq) {
  auto p = std::make_unique<Packet>();
  p->src_host = local_host_;
  p->dst_host = key_.remote_host;
  p->steering_hash = key_.remote_engine;
  p->proto = WireProtocol::kPony;
  p->pony = record.header;
  p->pony.version = wire_version_;
  p->pony.flow_id = WireFlowId();
  p->pony.seq = seq;
  p->pony.ack = rcv_nxt_ - 1;
  if (wire_version_ >= 2) {
    p->pony.tx_timestamp = now;
    // One-shot echo: a received timestamp is echoed by exactly one
    // outgoing packet (the batch ack). Later packets (e.g. credit grants
    // delayed by application consumption) must not re-echo stale values or
    // Timely sees phantom RTT inflation.
    p->pony.ts_echo = ts_echo_;
    ts_echo_ = 0;
  }
  // Every outgoing packet carries this side's cumulative credit grant: a
  // lost kCredit packet would otherwise leak its bytes from the sender's
  // pool forever (grants are unsequenced and never retransmitted); the
  // cumulative count makes any later packet heal the loss.
  p->pony.credit = granted_total_;
  p->payload_bytes = record.payload_bytes;
  // Copy; the record keeps its bytes for retransmission.
  std::span<const uint8_t> bytes = record.bytes();
  p->data.assign(bytes.begin(), bytes.end());
  p->wire_bytes = record.payload_bytes + params_->header_bytes;
  p->tenant = tenant_;  // QoS bookkeeping tag, outside the CRC-covered header
  ack_pending_ = false;  // piggybacked
  unacked_rx_ = 0;
  first_unacked_rx_ = kSimTimeNever;
  // End-to-end CRC over the final wire header + payload (recomputed per
  // transmission: seq/ack/timestamps differ across retransmits). Header-
  // only packets are covered too: a flipped ack, seq, or credit field is as
  // dangerous as a flipped payload byte.
  p->pony.crc32 = 0;
  p->pony.crc32 = PonyPacketCrc(p->pony, p->data);
  return p;
}

PacketPtr Flow::BuildNextPacket(SimTime now) {
  PacketPtr p = BuildNextPacketImpl(now);
  // Even a nullptr return may have mutated state (stale retransmission
  // entries reaped below), so re-derive on every path.
  RecomputeInert();
  if (p != nullptr && rto_at_ == kSimTimeNever) {
    // First send into an empty window, or the first retransmission of a
    // restored flow (whose timer starts disarmed).
    ArmRtoTimer(now);
  }
  return p;
}

PacketPtr Flow::BuildNextPacketImpl(SimTime now) {
  // Retransmissions first; they bypass pacing.
  while (!retx_queue_.empty()) {
    uint64_t seq = retx_queue_.front();
    auto it = unacked_.find(seq);
    if (it == unacked_.end()) {
      retx_queue_.pop_front();  // acked since being queued
      continue;
    }
    retx_queue_.pop_front();
    it->second.sent_at = now;
    ++it->second.transmissions;
    it->second.last_retx_at = now;
    ++stats_.retransmits;
    return MakePacket(it->second.record, now, seq);
  }
  if (!CanSend(now)) {
    return nullptr;
  }
  TxRecord record = PopNextRecord();
  if (record.uses_credit) {
    credit_ -= record.payload_bytes;
    MarkMsgReadyDirty();
  }
  uint64_t seq = next_seq_++;
  PacketPtr p = MakePacket(record, now, seq);
  // Pace at the Timely rate, allowing a bounded catch-up burst.
  double rate = timely_.rate_bytes_per_sec();
  SimDuration gap = static_cast<SimDuration>(
      static_cast<double>(p->wire_bytes) / rate * 1e9);
  SimTime base = std::max(next_send_time_, now - kPacingBurstPackets * gap);
  next_send_time_ = base + gap;
  ++stats_.data_packets_sent;
  unacked_[seq] = Unacked{std::move(record), now};
  return p;
}

SimTime Flow::AckDeadline() const {
  if (unacked_rx_ == 0) {
    return kSimTimeNever;
  }
  if (ack_pending_) {
    return 0;  // due now
  }
  return first_unacked_rx_ + kAckDelay;
}

PacketPtr Flow::MaybeBuildAck(SimTime now) {
  if (unacked_rx_ > 0 && now >= first_unacked_rx_ + kAckDelay) {
    // No RecomputeInert() needed for this write alone: it requires
    // unacked_rx_ > 0, which already makes the flow non-inert.
    ack_pending_ = true;
  }
  if (!ack_pending_) {
    return nullptr;
  }
  TxRecord record;
  record.header.type = PonyPacketType::kAck;
  PacketPtr p = MakePacket(record, now, /*seq=*/0);  // acks are unsequenced
  ++stats_.acks_sent;
  RecomputeInert();  // MakePacket cleared the ack-owed state
  return p;
}

PacketPtr Flow::MaybeBuildCreditGrant(SimTime now) {
  if (pending_grant_ < kCreditGrantThreshold) {
    return nullptr;
  }
  int64_t grant = std::min<int64_t>(pending_grant_, INT32_MAX);
  pending_grant_ -= grant;
  // Fold into the cumulative count; MakePacket stamps it on this packet
  // (and on every later one, healing this grant if it gets lost).
  granted_total_ += static_cast<uint32_t>(grant);
  TxRecord record;
  record.header.type = PonyPacketType::kCredit;
  PacketPtr p = MakePacket(record, now, /*seq=*/0);
  RecomputeInert();  // the grant drained; ack-owed state cleared
  return p;
}

Flow::RxResult Flow::OnReceive(const Packet& packet, SimTime now) {
  RxResult result = OnReceiveImpl(packet, now);
  RecomputeInert();
  return result;
}

Flow::RxResult Flow::OnReceiveImpl(const Packet& packet, SimTime now) {
  RxResult result;
  const PonyHeader& h = packet.pony;

  // RTT sample: prefer the hardware-timestamp echo (v2 wire); fall back to
  // software send-time lookup on cumulative-ack advance for v1 peers.
  if (h.ts_echo != 0) {
    timely_.OnRttSample(now - h.ts_echo, now);
    OnRttEstimate(now - h.ts_echo);
    ++stats_.rtt_samples;
  }

  // Credit processing (every packet carries the peer's cumulative grant;
  // see granted_total() in flow.h). Serial arithmetic: a reordered packet
  // carrying an older cumulative value yields a delta >= 2^31 and is
  // ignored (applying it would inflate the pool catastrophically).
  uint32_t credit_delta = h.credit - last_credit_seen_;
  if (credit_delta != 0 && credit_delta < 0x80000000u) {
    credit_ += credit_delta;
    last_credit_seen_ = h.credit;
    MarkMsgReadyDirty();
  }

  // Ack processing (every packet carries the peer's cumulative ack).
  uint64_t ack = h.ack;
  if (ack > last_ack_seen_) {
    SimTime newest_sent = -1;
    bool newest_retransmitted = false;
    auto it = unacked_.begin();
    while (it != unacked_.end() && it->first <= ack) {
      if (it->second.sent_at > newest_sent) {
        newest_sent = it->second.sent_at;
        newest_retransmitted = it->second.transmissions > 1;
      }
      if (it->second.transmissions > 1 &&
          now - it->second.last_retx_at < params_->spurious_rtt_floor) {
        // The ack arrived before the retransmit could have plausibly
        // round-tripped: the original was never lost.
        ++stats_.spurious_retransmits;
      }
      if (ack_observer_) {
        ack_observer_(it->second.record);
      }
      it = unacked_.erase(it);
    }
    if (h.ts_echo == 0 && newest_sent >= 0) {
      timely_.OnRttSample(now - newest_sent, now);
      if (!newest_retransmitted) {
        OnRttEstimate(now - newest_sent);  // Karn: never time a retransmit
      }
      ++stats_.rtt_samples;
    }
    last_ack_seen_ = ack;
    dup_acks_ = 0;
    // New data acked: the backoff resets and the timer restarts for what
    // is still in flight.
    rto_backoff_ = 0;
    if (unacked_.empty()) {
      rto_at_ = kSimTimeNever;
    } else {
      ArmRtoTimer(now);
    }
    if (in_recovery_) {
      if (ack >= recover_ || unacked_.empty()) {
        in_recovery_ = false;
      } else if (h.ts_echo != 0 && h.ts_echo < recovery_start_) {
        // The ack echoes a packet sent before recovery began: originals
        // are still arriving, so the loss signal was spurious (Eifel
        // detection, RFC 3522). The rest of the window is in flight, not
        // lost; walking it hole by hole would resend it all. The receiver
        // echoes its newest arrival, so an original reordered behind the
        // resent hole ends a real recovery too: the next hole then waits
        // one RTO instead of going at once. That costs time, not data,
        // and is accepted.
        in_recovery_ = false;
      } else {
        // Partial ack (NewReno): the next hole was lost too.
        QueueRetransmit(unacked_.begin()->first);
      }
    }
  } else if (ack == last_ack_seen_ && !unacked_.empty() &&
             h.type == PonyPacketType::kAck) {
    if (++dup_acks_ == kDupAckThreshold && !in_recovery_) {
      EnterRecovery(now);  // fast retransmit
    }
  }

  if (h.type == PonyPacketType::kCredit) {
    return result;  // control only; the grant was applied above
  }
  if (h.type == PonyPacketType::kAck) {
    return result;  // pure ack: no sequenced payload
  }

  // Sequenced packet: dedup, advance cumulative state, schedule an ack.
  uint64_t seq = h.seq;
  ++unacked_rx_;
  if (first_unacked_rx_ == kSimTimeNever) {
    first_unacked_rx_ = now;
  }
  if (unacked_rx_ >= kAckEvery) {
    ack_pending_ = true;
  }
  if (h.tx_timestamp != 0) {
    ts_echo_ = h.tx_timestamp;
  }
  if (seq < rcv_nxt_ || ooo_.count(seq) > 0) {
    ++stats_.duplicates_received;
    ack_pending_ = true;  // duplicate: re-ack immediately
    result.duplicate = true;
    return result;
  }
  if (seq == rcv_nxt_) {
    ++rcv_nxt_;
    auto it = ooo_.begin();
    while (it != ooo_.end() && *it == rcv_nxt_) {
      ++rcv_nxt_;
      it = ooo_.erase(it);
    }
  } else {
    ooo_.insert(seq);
    ack_pending_ = true;  // out of order: dup-ack for fast retransmit
  }
  result.deliver = true;
  return result;
}

void Flow::OnRttEstimate(SimDuration rtt) {
  if (rtt < 0) {
    return;
  }
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    return;
  }
  SimDuration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + rtt) / 8;
}

SimDuration Flow::CurrentRto() const {
  SimDuration rto = std::max(params_->min_rto, srtt_ + 4 * rttvar_);
  SimDuration cap = std::max(rto, kMaxRto);
  for (int i = 0; i < rto_backoff_ && rto < cap; ++i) {
    rto *= 2;
  }
  return std::min(rto, cap);
}

void Flow::QueueRetransmit(uint64_t seq) {
  if (std::find(retx_queue_.begin(), retx_queue_.end(), seq) ==
      retx_queue_.end()) {
    retx_queue_.push_back(seq);
  }
}

void Flow::EnterRecovery(SimTime now) {
  in_recovery_ = true;
  recovery_start_ = now;
  recover_ = next_seq_ - 1;
  QueueRetransmit(unacked_.begin()->first);
}

bool Flow::OnTimerCheck(SimTime now) {
  if (rto_at_ > now || unacked_.empty()) {
    return false;  // disarmed (kSimTimeNever) or not yet due
  }
  // An armed timer implies unacked data. Only the lowest seq goes again;
  // recovery then walks the remaining holes one partial ack at a time.
  EnterRecovery(now);
  if (CurrentRto() < kMaxRto) {
    ++rto_backoff_;
  }
  ArmRtoTimer(now);
  ++stats_.rto_events;
  timely_.OnRetransmitTimeout();
  RecomputeInert();
  return true;
}

void Flow::Serialize(StateWriter* w) const {
  w->BeginSection("flow");
  w->PutI64(key_.remote_host);
  w->PutU32(key_.remote_engine);
  w->PutU16(wire_version_);
  w->PutU32(tenant_);
  w->PutU64(next_seq_);
  w->PutU64(last_ack_seen_);
  w->PutU64(rcv_nxt_);
  w->PutI64(credit_);
  w->PutI64(pending_grant_);
  w->PutU32(granted_total_);
  w->PutU32(last_credit_seen_);
  w->PutDouble(timely_.rate_bytes_per_sec());
  w->PutU32(static_cast<uint32_t>(ooo_.size()));
  for (uint64_t seq : ooo_) {
    w->PutU64(seq);
  }
  // Unacked + untransmitted data moves so nothing in flight is lost beyond
  // what end-to-end retransmission recovers.
  auto put_record = [w](const TxRecord& r) {
    w->PutU8(static_cast<uint8_t>(r.header.type));
    w->PutU8(static_cast<uint8_t>(r.header.op));
    w->PutU64(r.header.op_id);
    w->PutU64(r.header.stream_id);
    w->PutU32(r.header.msg_offset);
    w->PutU32(r.header.msg_length);
    w->PutU64(r.header.region_id);
    w->PutU64(r.header.region_offset);
    w->PutU32(r.header.op_length);
    w->PutU16(r.header.batch);
    w->PutU16(r.header.status);
    w->PutI64(r.payload_bytes);
    w->PutBool(r.uses_credit);
    w->PutBytes(r.bytes());
  };
  w->PutU32(static_cast<uint32_t>(unacked_.size()));
  for (const auto& [seq, u] : unacked_) {
    w->PutU64(seq);
    put_record(u.record);
  }
  // A queued message is written as the fragments it would cut, so the
  // codec's bytes do not depend on how the queue holds it.
  auto put_queued = [&put_record](const TxRecord& r) {
    TxRecord rest = r;
    while (rest.HasMoreFragments()) {
      put_record(rest.CutFragment());
    }
    put_record(rest);
  };
  uint32_t n_queued = 0;
  for (const auto& [stream, queue] : msg_queues_) {
    for (const TxRecord& r : queue) {
      n_queued += QueuedFragments(r);
    }
  }
  for (const TxRecord& r : op_queue_) {
    n_queued += QueuedFragments(r);
  }
  w->PutU32(n_queued);
  for (const auto& [stream, queue] : msg_queues_) {
    for (const TxRecord& r : queue) {
      put_queued(r);
    }
  }
  for (const TxRecord& r : op_queue_) {
    put_queued(r);
  }
}

Flow Flow::Deserialize(StateReader* r, int local_host, uint32_t local_engine,
                       const TimelyParams& timely_params,
                       const PonyParams* pony_params) {
  r->ExpectSection("flow");
  FlowKey key;
  key.remote_host = static_cast<int>(r->GetI64());
  key.remote_engine = r->GetU32();
  uint16_t wire_version = r->GetU16();
  Flow flow(key, local_host, local_engine, wire_version, timely_params,
            pony_params);
  flow.tenant_ = r->GetU32();
  flow.next_seq_ = r->GetU64();
  flow.last_ack_seen_ = r->GetU64();
  flow.rcv_nxt_ = r->GetU64();
  flow.credit_ = r->GetI64();
  flow.pending_grant_ = r->GetI64();
  flow.granted_total_ = r->GetU32();
  flow.last_credit_seen_ = r->GetU32();
  flow.timely_.RestoreRate(r->GetDouble());
  uint32_t n_ooo = r->GetU32();
  for (uint32_t i = 0; i < n_ooo; ++i) {
    flow.ooo_.insert(r->GetU64());
  }
  auto get_record = [r]() {
    TxRecord rec;
    rec.header.type = static_cast<PonyPacketType>(r->GetU8());
    rec.header.op = static_cast<PonyOpCode>(r->GetU8());
    rec.header.op_id = r->GetU64();
    rec.header.stream_id = r->GetU64();
    rec.header.msg_offset = r->GetU32();
    rec.header.msg_length = r->GetU32();
    rec.header.region_id = r->GetU64();
    rec.header.region_offset = r->GetU64();
    rec.header.op_length = r->GetU32();
    rec.header.batch = r->GetU16();
    rec.header.status = r->GetU16();
    rec.payload_bytes = static_cast<int32_t>(r->GetI64());
    rec.uses_credit = r->GetBool();
    rec.data = r->GetBytes();
    return rec;
  };
  uint32_t n_unacked = r->GetU32();
  for (uint32_t i = 0; i < n_unacked; ++i) {
    uint64_t seq = r->GetU64();
    // In-flight packets at blackout are treated as lost and queued for
    // immediate retransmission by the new engine.
    flow.unacked_[seq] = Unacked{get_record(), 0};
    flow.retx_queue_.push_back(seq);
  }
  // Each run of fragments that a queued message would cut folds back into
  // that one record.
  uint32_t n_queued = r->GetU32();
  std::vector<TxRecord> run;
  for (uint32_t i = 0; i < n_queued; ++i) {
    TxRecord rec = get_record();
    if (!run.empty() && !ContinuesRun(run.front(), run.back(), rec)) {
      QueueRun(&flow, &run);
    }
    run.push_back(std::move(rec));
  }
  QueueRun(&flow, &run);
  flow.RebuildCreditReservations();
  flow.RecomputeInert();
  return flow;
}

}  // namespace snap
