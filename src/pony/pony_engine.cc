#include "src/pony/pony_engine.h"

#include <algorithm>
#include <cstring>

#include "src/packet/wire.h"
#include "src/stats/telemetry.h"
#include "src/util/logging.h"

namespace snap {

namespace {

// Start/end points of a sampled message's lifecycle flow (the mid-flow
// packet points are emitted via TracePacketPoint in src/net/nic.h).
inline void TraceMessagePoint(Substrate* sim, char phase, uint64_t op_id,
                              const char* point) {
#ifndef SNAP_DISABLE_PACKET_TRACE
  TraceRecorder* tracer = sim->tracer();
  if (tracer == nullptr || !tracer->ShouldSampleMessage(op_id)) {
    return;
  }
  tracer->FlowPoint(phase, sim->now(),
                    tracer->current_core_or(TraceRecorder::kFabricTrack),
                    op_id, "msg", "pkt", TraceArgStr("point", point));
#else
  (void)sim;
  (void)phase;
  (void)op_id;
  (void)point;
#endif
}

}  // namespace

PonyEngine::PonyEngine(std::string name, Substrate* sim, Nic* nic,
                       uint32_t engine_id, const PonyParams& params,
                       const TimelyParams& timely_params,
                       PonyDirectory* directory)
    : Engine(std::move(name)),
      sim_(sim),
      nic_(nic),
      engine_id_(engine_id),
      params_(params),
      timely_params_(timely_params),
      directory_(directory) {
  rx_ = nic_->CreateRxQueue();
  rx_->DisableInterrupts();
  PonyEngine* self = this;
  rx_->SetPollWatcher([self] { self->NotifyWork(); });
  Attach();
  if (directory_ != nullptr) {
    directory_->Register(address(),
                         PonyDirectory::Entry{wire_min_, wire_max_, this});
  }
}

PonyEngine::~PonyEngine() {
  wake_timer_.Cancel();
  if (attached_) {
    (void)nic_->RemoveSteeringFilter(engine_id_);
  }
}

void PonyEngine::SetWireVersions(uint16_t min_version, uint16_t max_version) {
  SNAP_CHECK_LE(min_version, max_version);
  wire_min_ = min_version;
  wire_max_ = max_version;
  if (directory_ != nullptr) {
    directory_->Register(address(),
                         PonyDirectory::Entry{wire_min_, wire_max_, this});
  }
}

void PonyEngine::Attach() {
  if (!attached_) {
    SNAP_CHECK_OK(nic_->InstallSteeringFilter(engine_id_, rx_));
    attached_ = true;
  }
}

void PonyEngine::Detach() {
  if (attached_) {
    SNAP_CHECK_OK(nic_->RemoveSteeringFilter(engine_id_));
    attached_ = false;
  }
  wake_timer_.Cancel();
}

void PonyEngine::AttachClient(PonyClient* client) {
  clients_.push_back(client);
  if (default_sink_ == nullptr) {
    default_sink_ = client;
  }
}

void PonyEngine::DetachClient(PonyClient* client) {
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
  if (default_sink_ == client) {
    default_sink_ = clients_.empty() ? nullptr : clients_.front();
  }
}

void PonyEngine::BindStream(uint64_t stream_id, PonyClient* client,
                            PonyAddress peer) {
  streams_[stream_id] = StreamBinding{client->client_id(), peer};
}

void PonyEngine::NoteMessageConsumed(PonyAddress peer, int64_t bytes) {
  Flow* flow = FindFlow(peer);
  if (flow != nullptr) {
    flow->NoteDelivered(bytes);
  }
}

Flow* PonyEngine::FindFlow(PonyAddress peer) {
  auto it = flows_.find(FlowKey{peer.host, peer.engine_id});
  return it == flows_.end() ? nullptr : &it->second;
}

Flow& PonyEngine::GetOrCreateFlow(PonyAddress peer,
                                  uint16_t wire_version_hint,
                                  qos::TenantId tenant) {
  FlowKey key{peer.host, peer.engine_id};
  if (last_flow_ != nullptr && last_flow_->key() == key) {
    if (tenant != qos::kDefaultTenant &&
        last_flow_->tenant() == qos::kDefaultTenant) {
      QosRetagFlow(last_flow_, tenant);
    }
    return *last_flow_;
  }
  auto it = flows_.find(key);
  if (it != flows_.end()) {
    last_flow_ = &it->second;
    if (tenant != qos::kDefaultTenant &&
        it->second.tenant() == qos::kDefaultTenant) {
      QosRetagFlow(&it->second, tenant);
    }
    return it->second;
  }
  // Version negotiation over the out-of-band channel: highest version both
  // ends support. A hint from an arriving packet pins the version the peer
  // already chose.
  uint16_t version = wire_version_hint;
  if (version == 0) {
    version = wire_max_;
    if (directory_ != nullptr) {
      const PonyDirectory::Entry* remote = directory_->Find(peer);
      if (remote != nullptr) {
        auto negotiated = NegotiateWireVersion(
            wire_min_, wire_max_, remote->wire_min, remote->wire_max);
        SNAP_CHECK(negotiated.ok()) << "no common wire version with peer";
        version = *negotiated;
      }
    }
  }
  auto [fit, inserted] = flows_.emplace(
      key, Flow(key, nic_->host_id(), engine_id_, version, timely_params_,
                &params_));
  fit->second.set_tenant(tenant);
  InstallAckObserver(&fit->second);
  RebuildFlowSeq();
  QosAddFlow(&fit->second);
  last_flow_ = &fit->second;
  return fit->second;
}

void PonyEngine::EnableQos(const qos::TenantRegistry* tenants) {
  if (qos_ != nullptr) {
    return;
  }
  qos_ = std::make_unique<QosState>();
  qos_->tenants = tenants;
  if (tenants != nullptr) {
    tenants->ForEach([this](const qos::TenantSpec& spec) {
      qos_->drr.SetWeight(spec.id, spec.weight);
    });
  }
  // Flows that predate the switch (e.g. deserialized state) keep their
  // serialized tenant tags; bucket them now.
  for (Flow* flow : flow_seq_) {
    QosAddFlow(flow);
  }
}

void PonyEngine::QosAddFlow(Flow* flow) {
  if (qos_ == nullptr) {
    return;
  }
  qos_->groups[flow->tenant()].flows.push_back(flow);
}

void PonyEngine::QosRetagFlow(Flow* flow, qos::TenantId tenant) {
  qos::TenantId old_tenant = flow->tenant();
  flow->set_tenant(tenant);
  if (qos_ == nullptr || old_tenant == tenant) {
    return;
  }
  TenantGroup& from = qos_->groups[old_tenant];
  auto& flows = from.flows;
  flows.erase(std::remove(flows.begin(), flows.end(), flow), flows.end());
  if (from.cursor >= flows.size()) {
    from.cursor = 0;
  }
  qos_->groups[tenant].flows.push_back(flow);
}

void PonyEngine::RebuildFlowSeq() {
  flow_seq_.clear();
  flow_seq_.reserve(flows_.size());
  for (auto& [key, flow] : flows_) {
    flow_seq_.push_back(&flow);
  }
}

void PonyEngine::InstallAckObserver(Flow* flow) {
  PonyEngine* self = this;
  flow->set_ack_observer(
      [self](const TxRecord& record) { self->OnFragmentAcked(record); });
}

void PonyEngine::OnFragmentAcked(const TxRecord& record) {
  if (record.header.type != PonyPacketType::kData) {
    return;
  }
  auto it = send_ops_.find(record.header.op_id);
  if (it == send_ops_.end()) {
    return;
  }
  SendOp& op = it->second;
  op.remaining -= record.payload_bytes;
  if (op.remaining > 0) {
    return;
  }
  // Reliable delivery achieved: complete the send to the application.
  PonyClient* client = FindClient(op.client_id);
  if (client != nullptr) {
    PonyCompletion completion;
    completion.op_id = it->first;
    completion.status = PonyOpStatus::kOk;
    completion.length = op.total;
    completion.submit_time = op.submit_time;
    completion.complete_time = sim_->now();
    ++stats_.completions;
    if (!client->DeliverCompletion(std::move(completion))) {
      stalled_completions_.emplace_back(client, std::move(completion));
    }
  }
  send_ops_.erase(it);
}

SimDuration PonyEngine::RxCopyCost(int64_t bytes) const {
  if (params_.ioat_copy_offload) {
    // The copy engine moves the bytes; the core pays only descriptor setup.
    return params_.ioat_setup_cost;
  }
  return static_cast<SimDuration>(params_.rx_copy_ns_per_byte *
                                  static_cast<double>(bytes));
}

// ---------------------------------------------------------------------------
// Poll loop
// ---------------------------------------------------------------------------

Engine::PollResult PonyEngine::Poll(SimTime now, SimDuration budget_ns) {
  PollResult result;
  result.cpu_ns += params_.poll_overhead;

  // 1. RX batch (default 16 packets, Section 3.1).
  for (int i = 0; i < params_.rx_batch && result.cpu_ns < budget_ns; ++i) {
    PacketPtr p = rx_->Poll();
    if (p == nullptr) {
      break;
    }
    ++result.work_items;
    HandleRxPacket(std::move(p), now, &result.cpu_ns);
  }

  // 2. Application command queues.
  for (PonyClient* client : clients_) {
    for (int i = 0; i < params_.cmd_batch && result.cpu_ns < budget_ns;
         ++i) {
      auto cmd = client->command_queue().TryPop();
      if (!cmd.has_value()) {
        break;
      }
      ++result.work_items;
      result.cpu_ns += params_.per_op_cost;
      HandleCommand(client, std::move(*cmd), now, &result.cpu_ns);
    }
  }

  // 3. Deliveries that previously hit full client queues.
  RetryPendingDeliveries(&result.work_items);

  // 4. Timers (RTO) and just-in-time packet generation: deficit-weighted
  // round robin across per-tenant flow lists when QoS is on, flat
  // round-robin over flow_seq_ otherwise.
  if (qos_ != nullptr) {
    TransmitFromFlowsQos(now, budget_ns, &result.cpu_ns,
                         &result.work_items);
  } else {
    TransmitFromFlows(now, budget_ns, &result.cpu_ns, &result.work_items);
  }

  // 5. Acks and credit grants for flows touched this pass.
  FlushAcksAndCredits(now, &result.cpu_ns, &result.work_items);

  // 6. If future work exists (pacing gaps, RTOs), arm a wake timer so
  // blocking schedulers resume us.
  UpdateWakeTimer(now);
  return result;
}

void PonyEngine::HandleRxPacket(PacketPtr packet, SimTime now,
                                SimDuration* cost) {
  ++stats_.rx_packets;
  TracePacketPoint(sim_, *packet, "rx_engine");
  SimDuration rx_cost;
  if (packet->pony.type == PonyPacketType::kAck ||
      packet->pony.type == PonyPacketType::kCredit) {
    // Header-only control packets take a short path through the engine.
    rx_cost = 100 * kNsec;
  } else {
    rx_cost = params_.per_packet_cost +
              static_cast<SimDuration>(params_.proc_ns_per_byte *
                                       static_cast<double>(
                                           packet->payload_bytes));
  }
  *cost += rx_cost;
  // End-to-end CRC verification (offloaded on real NICs; Section 3.4).
  // Every packet built by a Flow carries a CRC over header + payload;
  // crc32 == 0 marks hand-built test packets that opted out.
  if (packet->pony.crc32 != 0 &&
      !VerifyPonyPacketCrc(packet->pony, packet->data)) {
    ++stats_.crc_drops;
    return;
  }
  if (packet->chaos_corrupted) {
    // Fault injection flipped CRC-covered bytes yet verification passed:
    // a corrupt packet is about to be consumed. Must never happen.
    ++stats_.corrupt_accepted;
  }
  PonyAddress peer{packet->src_host,
                   static_cast<uint32_t>(packet->pony.flow_id >> 32)};
  // RX-created flows inherit the arriving packet's tenant tag, so a
  // server-side engine attributes its reverse flows correctly.
  Flow& flow = GetOrCreateFlow(peer, packet->pony.version, packet->tenant);
  if (qos_ != nullptr) {
    TenantStats& tstats = qos_->groups[flow.tenant()].stats;
    ++tstats.rx_packets;
    tstats.rx_bytes += packet->wire_bytes;
    tstats.cpu_ns += rx_cost;
  }
  Flow::RxResult rx = flow.OnReceive(*packet, now);
  if (!rx.deliver) {
    return;
  }
  switch (packet->pony.type) {
    case PonyPacketType::kData:
      HandleDataFragment(flow, *packet, now, cost);
      break;
    case PonyPacketType::kOpRequest:
      HandleOpRequest(flow, *packet, now, cost);
      break;
    case PonyPacketType::kOpResponse:
      HandleOpResponse(*packet, now, cost);
      break;
    default:
      break;
  }
  if (packet->pony.seq != 0) {
    // A sequenced packet may have filled a receive hole; completed messages
    // parked behind that hole are now releasable.
    ReleaseHeldMessages(packet->pony.flow_id, flow);
  }
}

void PonyEngine::HandleDataFragment(Flow& flow, const Packet& packet,
                                    SimTime now, SimDuration* cost) {
  const PonyHeader& h = packet.pony;
  auto key = std::make_pair(h.flow_id, h.op_id);
  auto ait = assemblies_.find(key);
  if (ait == assemblies_.end()) {
    if (!assembly_spare_.empty()) {
      auto node = std::move(assembly_spare_.back());
      assembly_spare_.pop_back();
      node.key() = key;
      node.mapped() = Assembly{};
      ait = assemblies_.insert(std::move(node)).position;
    } else {
      ait = assemblies_.try_emplace(key).first;
    }
  }
  Assembly& assembly = ait->second;
  if (assembly.total == 0) {
    assembly.from = PonyAddress{packet.src_host,
                                static_cast<uint32_t>(h.flow_id >> 32)};
    assembly.stream_id = h.stream_id;
    assembly.total = h.msg_length;
    assembly.first_rx = now;
  }
  assembly.last_seq = std::max(assembly.last_seq, h.seq);
  // Copy fragment payload into the application-visible buffer. The buffer
  // holds the real bytes only: it ends at the furthest real byte seen so
  // far, so a synthetic tail (e.g. a 1 MB response behind an 8-byte RPC
  // header) is never allocated. The copy cost still charges the full
  // payload. A fragment that is real to its end suggests a fully real
  // message (always so live), which gets its one full-size buffer up front.
  *cost += RxCopyCost(packet.payload_bytes);
  if (!packet.data.empty()) {
    size_t end = std::min<size_t>(h.msg_length,
                                  h.msg_offset + packet.data.size());
    if (end > h.msg_offset) {
      if (packet.data.size() >= static_cast<size_t>(packet.payload_bytes)) {
        assembly.data.reserve(h.msg_length);
      }
      if (assembly.data.size() < end) {
        assembly.data.resize(end);
      }
      std::copy(packet.data.begin(),
                packet.data.begin() + (end - h.msg_offset),
                assembly.data.begin() + h.msg_offset);
    }
  }
  assembly.received += packet.payload_bytes;
  if (assembly.received < assembly.total) {
    return;
  }
  // Message complete. It is handed over only once the flow's cumulative
  // receive point passes its last fragment (ReleaseHeldMessages, called by
  // HandleRxPacket after every sequenced packet): per-stream fragment seqs
  // are monotone across messages, so this restores submission order when
  // fragments of a later message overtake an earlier message's hole. The
  // in-order arrival case releases on this very packet.
  PonyIncomingMessage msg;
  msg.from = assembly.from;
  msg.stream_id = assembly.stream_id;
  msg.op_id = h.op_id;
  msg.length = assembly.total;
  msg.data = std::move(assembly.data);
  msg.receive_time = now;
  uint64_t release_seq = assembly.last_seq;
  {
    auto node = assemblies_.extract(ait);
    if (assembly_spare_.size() < kSpareNodeCap) {
      assembly_spare_.push_back(std::move(node));
    }
  }
  if (flow.rcv_nxt() <= release_seq) {
    ++stats_.messages_held_for_order;
  }
  auto& by_seq = held_[h.flow_id];
  auto hit = by_seq.find(release_seq);
  if (hit != by_seq.end()) {
    // Duplicate completion (retransmitted fragments): overwrite, matching
    // the old operator[] semantics.
    hit->second = std::move(msg);
  } else if (!held_spare_.empty()) {
    auto node = std::move(held_spare_.back());
    held_spare_.pop_back();
    node.key() = release_seq;
    node.mapped() = std::move(msg);
    by_seq.insert(std::move(node));
  } else {
    by_seq.emplace(release_seq, std::move(msg));
  }
}

void PonyEngine::ReleaseHeldMessages(uint64_t wire_flow_id, Flow& flow) {
  auto hit = held_.find(wire_flow_id);
  if (hit == held_.end()) {
    return;
  }
  auto& by_seq = hit->second;
  while (!by_seq.empty() && by_seq.begin()->first < flow.rcv_nxt()) {
    PonyIncomingMessage msg = std::move(by_seq.begin()->second);
    auto node = by_seq.extract(by_seq.begin());
    if (held_spare_.size() < kSpareNodeCap) {
      held_spare_.push_back(std::move(node));
    }
    DeliverOrStall(flow, std::move(msg));
  }
  // A drained inner map stays in held_ (flow ids are long-lived and
  // bounded); serialization and Footprint() already skip empty entries.
}

void PonyEngine::DeliverOrStall(Flow& flow, PonyIncomingMessage&& msg) {
  PonyClient* target = default_sink_;
  auto sit = streams_.find(msg.stream_id);
  if (sit != streams_.end()) {
    PonyClient* bound = FindClient(sit->second.client_id);
    if (bound != nullptr) {
      target = bound;
    }
  }
  if (target == nullptr) {
    return;  // no application attached; drop (credits never granted)
  }
  int64_t len = msg.length;
  uint64_t op_id = msg.op_id;
  // Earlier stalled deliveries must drain first or they would be overtaken.
  if (stalled_messages_.empty() && target->DeliverMessage(std::move(msg))) {
    TraceMessagePoint(sim_, 'f', op_id, "deliver");
    ++stats_.messages_delivered;
    stats_.message_bytes_delivered += len;
    if (qos_ != nullptr) {
      TenantStats& tstats = qos_->groups[flow.tenant()].stats;
      ++tstats.messages_delivered;
      tstats.message_bytes_delivered += len;
    }
    // Receiver-driven flow control: delivering into the application's
    // posted receive ring frees pool buffers; grant credit back. Large
    // (posted-buffer) messages never consumed pool credit.
    if (len <= params_.credit_message_threshold) {
      flow.NoteDelivered(len);
    }
  } else {
    stalled_messages_.emplace_back(target, std::move(msg));
  }
}

void PonyEngine::HandleOpRequest(Flow& flow, const Packet& packet,
                                 SimTime now, SimDuration* cost) {
  const PonyHeader& h = packet.pony;
  ++stats_.ops_executed;
  *cost += params_.onesided_exec_cost;

  TxRecord reply;
  reply.header.type = PonyPacketType::kOpResponse;
  reply.header.op = h.op;
  reply.header.op_id = h.op_id;
  reply.header.status = static_cast<uint16_t>(PonyOpStatus::kOk);
  reply.uses_credit = false;

  MemoryRegion* region = regions_.Find(h.region_id);
  auto fail = [&](PonyOpStatus status) {
    ++stats_.op_errors;
    reply.header.status = static_cast<uint16_t>(status);
    reply.payload_bytes = 0;
  };

  if (region == nullptr) {
    fail(PonyOpStatus::kNoSuchRegion);
  } else {
    switch (h.op) {
      case PonyOpCode::kRead: {
        if (h.region_offset + h.op_length > region->data.size()) {
          fail(PonyOpStatus::kOutOfBounds);
          break;
        }
        reply.payload_bytes = static_cast<int32_t>(h.op_length);
        if (!region->data.empty() && h.op_length <= (1 << 16)) {
          reply.data.assign(
              region->data.begin() + h.region_offset,
              region->data.begin() + h.region_offset + h.op_length);
        }
        break;
      }
      case PonyOpCode::kWrite: {
        if (h.region_offset + h.op_length > region->data.size()) {
          fail(PonyOpStatus::kOutOfBounds);
          break;
        }
        if (!region->allow_remote_write) {
          fail(PonyOpStatus::kPermissionDenied);
          break;
        }
        if (!packet.data.empty()) {
          std::copy(packet.data.begin(), packet.data.end(),
                    region->data.begin() + h.region_offset);
        }
        *cost += RxCopyCost(h.op_length);
        reply.payload_bytes = 0;
        reply.header.op_length = h.op_length;
        break;
      }
      case PonyOpCode::kIndirectRead: {
        // The indirection table holds u64 byte-offsets into the same
        // region; entry i of the request batch is table index
        // (region_offset + i). Each indirection fetches op_length bytes.
        uint16_t batch = std::max<uint16_t>(1, h.batch);
        uint64_t table_end = (h.region_offset + batch) * 8;
        if (table_end > region->data.size()) {
          fail(PonyOpStatus::kOutOfBounds);
          break;
        }
        int64_t total = 0;
        bool ok = true;
        for (uint16_t i = 0; i < batch && ok; ++i) {
          *cost += params_.indirection_cost;
          ++stats_.indirections_executed;
          uint64_t entry_off = (h.region_offset + i) * 8;
          uint64_t target = 0;
          std::memcpy(&target, region->data.data() + entry_off, 8);
          if (target + h.op_length > region->data.size()) {
            fail(PonyOpStatus::kOutOfBounds);
            ok = false;
            break;
          }
          if (h.op_length <= (1 << 16)) {
            reply.data.insert(
                reply.data.end(), region->data.begin() + target,
                region->data.begin() + target + h.op_length);
          }
          total += h.op_length;
        }
        if (ok) {
          reply.payload_bytes = static_cast<int32_t>(total);
          reply.header.batch = batch;
        }
        break;
      }
      case PonyOpCode::kScanAndRead: {
        // Region layout: (key u64, offset u64) pairs; match the key, fetch
        // op_length bytes at the associated offset.
        size_t pairs = region->data.size() / 16;
        bool found = false;
        for (size_t i = 0; i < pairs; ++i) {
          *cost += 5 * kNsec;  // per-entry scan cost
          uint64_t entry_key = 0;
          std::memcpy(&entry_key, region->data.data() + i * 16, 8);
          if (entry_key == h.region_offset) {
            uint64_t target = 0;
            std::memcpy(&target, region->data.data() + i * 16 + 8, 8);
            if (target + h.op_length > region->data.size()) {
              fail(PonyOpStatus::kOutOfBounds);
            } else {
              reply.payload_bytes = static_cast<int32_t>(h.op_length);
              if (h.op_length <= (1 << 16)) {
                reply.data.assign(
                    region->data.begin() + target,
                    region->data.begin() + target + h.op_length);
              }
            }
            found = true;
            break;
          }
        }
        if (!found) {
          fail(PonyOpStatus::kNoMatch);
        }
        break;
      }
      default:
        fail(PonyOpStatus::kAborted);
        break;
    }
  }
  flow.QueueTx(std::move(reply));
}

void PonyEngine::HandleOpResponse(const Packet& packet, SimTime now,
                                  SimDuration* cost) {
  const PonyHeader& h = packet.pony;
  auto it = pending_ops_.find(h.op_id);
  if (it == pending_ops_.end()) {
    return;  // duplicate response after completion
  }
  PendingOp op = it->second;
  pending_ops_.erase(it);
  PonyClient* client = FindClient(op.client_id);
  if (client == nullptr) {
    return;
  }
  *cost += RxCopyCost(packet.payload_bytes);
  PonyCompletion completion;
  completion.op_id = h.op_id;
  completion.status = static_cast<PonyOpStatus>(h.status);
  completion.length = packet.payload_bytes;
  completion.data = packet.data;
  completion.submit_time = op.submit_time;
  completion.complete_time = now;
  ++stats_.completions;
  if (!client->DeliverCompletion(std::move(completion))) {
    stalled_completions_.emplace_back(client, std::move(completion));
  }
}

void PonyEngine::HandleCommand(PonyClient* client, PonyCommand cmd,
                               SimTime now, SimDuration* cost) {
  Flow& flow = GetOrCreateFlow(cmd.peer, 0, cmd.tenant);
  switch (cmd.type) {
    case PonyCommandType::kSendMessage: {
      TraceMessagePoint(sim_, 's', cmd.op_id, "app_enqueue");
      // One record stands for the whole message; the flow cuts it into
      // MTU-sized fragments, all sharing the op id for reassembly, as it
      // sends them. TX is zero-copy (Section 6.2).
      int64_t length = std::max<int64_t>(
          cmd.length, static_cast<int64_t>(cmd.data.size()));
      if (length == 0) {
        length = 1;  // zero-length messages still occupy one packet
      }
      TxRecord rec;
      rec.header.type = PonyPacketType::kData;
      rec.header.op_id = cmd.op_id;
      rec.header.stream_id = cmd.stream_id;
      rec.header.msg_length = static_cast<uint32_t>(length);
      rec.payload_bytes =
          static_cast<int32_t>(std::min<int64_t>(params_.mtu_payload, length));
      // Small messages draw on the credit-managed shared pool; large ones
      // use receiver-driven buffer posting and bypass credits.
      rec.uses_credit = length <= params_.credit_message_threshold;
      rec.rest_of_message = true;
      // A multi-fragment body is shared, not copied: every fragment
      // references the one command buffer, which is freed when the last
      // fragment is acked rather than here. A body that fits one fragment
      // copies into the record's recycled buffer instead. Real payload
      // bytes may cover only a prefix of the (synthetic) message length —
      // e.g. an RPC header riding a larger request.
      if (static_cast<int64_t>(cmd.data.size()) > params_.mtu_payload) {
        rec.body = std::make_shared<const std::vector<uint8_t>>(
            std::move(cmd.data));
      } else {
        rec.data.assign(cmd.data.begin(), cmd.data.end());
      }
      flow.QueueTx(std::move(rec));
      // The send completes when every fragment has been acked (reliable
      // delivery), throttling applications to transport progress.
      SendOp op;
      op.client_id = client->client_id();
      op.submit_time = cmd.submit_time;
      op.remaining = length;
      op.total = length;
      send_ops_[cmd.op_id] = op;
      break;
    }
    case PonyCommandType::kRead:
    case PonyCommandType::kWrite:
    case PonyCommandType::kIndirectRead:
    case PonyCommandType::kScanAndRead: {
      TxRecord rec;
      rec.header.type = PonyPacketType::kOpRequest;
      rec.header.op_id = cmd.op_id;
      rec.header.region_id = cmd.region_id;
      rec.uses_credit = false;
      switch (cmd.type) {
        case PonyCommandType::kRead:
          rec.header.op = PonyOpCode::kRead;
          rec.header.region_offset = cmd.region_offset;
          rec.header.op_length = static_cast<uint32_t>(cmd.length);
          break;
        case PonyCommandType::kWrite:
          rec.header.op = PonyOpCode::kWrite;
          rec.header.region_offset = cmd.region_offset;
          rec.header.op_length = static_cast<uint32_t>(
              std::max<int64_t>(cmd.length,
                                static_cast<int64_t>(cmd.data.size())));
          rec.payload_bytes = static_cast<int32_t>(rec.header.op_length);
          rec.data = std::move(cmd.data);
          break;
        case PonyCommandType::kIndirectRead:
          rec.header.op = PonyOpCode::kIndirectRead;
          rec.header.region_offset = cmd.region_offset;  // first table index
          rec.header.op_length = static_cast<uint32_t>(cmd.length);
          rec.header.batch = cmd.batch;
          break;
        case PonyCommandType::kScanAndRead:
          rec.header.op = PonyOpCode::kScanAndRead;
          rec.header.region_offset = cmd.scan_match;  // value to match
          rec.header.op_length = static_cast<uint32_t>(cmd.length);
          break;
        default:
          break;
      }
      PendingOp pending;
      pending.client_id = client->client_id();
      pending.type = cmd.type;
      pending.submit_time = cmd.submit_time;
      pending.expected_bytes = cmd.length;
      pending_ops_[cmd.op_id] = pending;
      flow.QueueTx(std::move(rec));
      break;
    }
  }
}

PonyClient* PonyEngine::FindClient(uint64_t client_id) {
  for (PonyClient* c : clients_) {
    if (c->client_id() == client_id) {
      return c;
    }
  }
  return nullptr;
}

bool PonyEngine::TransmitFromFlows(SimTime now, SimDuration budget,
                                   SimDuration* cost, int* work) {
  if (flows_.empty()) {
    return false;
  }
  bool sent_any = false;
  // Round-robin across flows for fairness; just-in-time generation bounded
  // by NIC TX descriptor availability.
  size_t n = flow_seq_.size();
  size_t start = flow_cursor_ % n;
  for (size_t visited = 0; visited < n; ++visited) {
    Flow& flow = *flow_seq_[(start + visited) % n];
    // An inert flow's visit is a no-op (OnTimerCheck does nothing and
    // BuildNextPacket returns nullptr), but the budget break below must
    // still run: the poll can arrive here already over budget.
    if (!flow.inert()) {
      flow.OnTimerCheck(now);
      while (*cost < budget && nic_->TxSlotsAvailable() > 0) {
        PacketPtr p = flow.BuildNextPacket(now);
        if (p == nullptr) {
          break;
        }
        *cost += params_.per_packet_cost +
                 static_cast<SimDuration>(params_.proc_ns_per_byte *
                                          static_cast<double>(
                                              p->payload_bytes));
        ++stats_.tx_packets;
        ++(*work);
        sent_any = true;
        TracePacketPoint(sim_, *p, "engine_tx");
        nic_->Transmit(std::move(p));
      }
    }
    if (*cost >= budget) {
      break;
    }
  }
  flow_cursor_ = (flow_cursor_ + 1) % n;
  return sent_any;
}

bool PonyEngine::TransmitFromFlowsQos(SimTime now, SimDuration budget,
                                      SimDuration* cost, int* work) {
  if (flows_.empty()) {
    return false;
  }
  // Timer checks run in the legacy visit order (flow key order) for every
  // flow, so RTO-driven retransmits are queued independently of how the
  // tenant schedule unfolds below.
  for (Flow* flow : flow_seq_) {
    if (!flow->inert()) {
      flow->OnTimerCheck(now);
    }
  }
  // Only tenants with sendable work participate in (and are replenished
  // by) the DRR pass; an idle tenant banking credit would defeat
  // isolation.
  for (auto& [tenant, group] : qos_->groups) {
    bool sendable = false;
    for (Flow* flow : group.flows) {
      if (!flow->inert() && flow->CanSend(now)) {
        sendable = true;
        break;
      }
    }
    if (sendable) {
      qos_->drr.Activate(tenant);
    } else {
      qos_->drr.Deactivate(tenant);
    }
  }
  bool sent_any = false;
  // Serves one packet per call: round-robin across the tenant's flows via
  // the group cursor, deficit charged with the actual wire bytes.
  auto serve = [&](qos::TenantId tenant) -> int64_t {
    if (*cost >= budget || nic_->TxSlotsAvailable() <= 0) {
      return -1;  // out of budget / TX slots: abort the pass
    }
    TenantGroup& group = qos_->groups[tenant];
    size_t n = group.flows.size();
    for (size_t i = 0; i < n; ++i) {
      size_t idx = (group.cursor + i) % n;
      Flow& flow = *group.flows[idx];
      if (flow.inert()) {
        continue;
      }
      PacketPtr p = flow.BuildNextPacket(now);
      if (p == nullptr) {
        continue;
      }
      group.cursor = (idx + 1) % n;
      SimDuration pkt_cost =
          params_.per_packet_cost +
          static_cast<SimDuration>(params_.proc_ns_per_byte *
                                   static_cast<double>(p->payload_bytes));
      *cost += pkt_cost;
      int64_t wire = p->wire_bytes;
      ++stats_.tx_packets;
      ++(*work);
      sent_any = true;
      ++group.stats.tx_packets;
      group.stats.tx_bytes += wire;
      group.stats.cpu_ns += pkt_cost;
      TracePacketPoint(sim_, *p, "engine_tx");
      nic_->Transmit(std::move(p));
      return wire;
    }
    return 0;  // nothing sendable right now
  };
  qos_->drr.RunPass(serve);
  return sent_any;
}

void PonyEngine::ForEachTenant(
    const std::function<void(const TenantSnapshot&)>& fn) const {
  if (qos_ == nullptr) {
    return;
  }
  SimTime now = sim_->now();
  for (const auto& [tenant, group] : qos_->groups) {
    TenantSnapshot snap;
    snap.id = tenant;
    snap.deficit = qos_->drr.deficit(tenant);
    snap.flows = group.flows.size();
    snap.stats = group.stats;
    for (const Flow* flow : group.flows) {
      if (!flow->inert() && flow->CanSend(now)) {
        snap.sendable = true;
        break;
      }
    }
    fn(snap);
  }
}

void PonyEngine::ExportQosStats(Telemetry* telemetry,
                                const std::string& prefix) const {
  if (qos_ == nullptr) {
    return;
  }
  for (const auto& [tenant, group] : qos_->groups) {
    std::string tname = qos_->tenants != nullptr
                            ? qos_->tenants->DisplayName(tenant)
                            : "t" + std::to_string(tenant);
    const std::string base = prefix + "/" + tname;
    telemetry->SetCounter(base + "/engine_tx_packets",
                          group.stats.tx_packets);
    telemetry->SetCounter(base + "/engine_tx_bytes", group.stats.tx_bytes);
    telemetry->SetCounter(base + "/engine_rx_packets",
                          group.stats.rx_packets);
    telemetry->SetCounter(base + "/engine_rx_bytes", group.stats.rx_bytes);
    telemetry->SetCounter(base + "/messages_delivered",
                          group.stats.messages_delivered);
    telemetry->SetCounter(base + "/goodput_bytes",
                          group.stats.message_bytes_delivered);
    telemetry->SetCounter(base + "/engine_cpu_ns", group.stats.cpu_ns);
  }
}

void PonyEngine::TraceQosAdmission(qos::TenantId tenant, bool blocked) {
  TraceRecorder* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return;
  }
  tracer->Instant(sim_->now(), TraceRecorder::kSchedTrack,
                  blocked ? "qos_admission_block" : "qos_admission_unblock",
                  "qos",
                  TraceArgInt("tenant", static_cast<int64_t>(tenant)));
}

void PonyEngine::FlushAcksAndCredits(SimTime now, SimDuration* cost,
                                     int* work) {
  for (Flow* flow_ptr : flow_seq_) {
    Flow& flow = *flow_ptr;
    if (flow.inert()) {
      continue;
    }
    if (nic_->TxSlotsAvailable() <= 0) {
      break;
    }
    PacketPtr credit = flow.MaybeBuildCreditGrant(now);
    if (credit != nullptr) {
      *cost += 100 * kNsec;
      ++stats_.tx_packets;
      ++(*work);
      nic_->Transmit(std::move(credit));
    }
    PacketPtr ack = flow.MaybeBuildAck(now);
    if (ack != nullptr) {
      *cost += 100 * kNsec;
      ++stats_.tx_packets;
      ++(*work);
      nic_->Transmit(std::move(ack));
    }
  }
}

void PonyEngine::RetryPendingDeliveries(int* work) {
  while (!stalled_completions_.empty()) {
    auto& [client, completion] = stalled_completions_.front();
    if (!client->DeliverCompletion(std::move(completion))) {
      break;  // still full; retry next poll
    }
    stalled_completions_.erase(stalled_completions_.begin());
    ++(*work);
  }
  while (!stalled_messages_.empty()) {
    auto& [client, message] = stalled_messages_.front();
    PonyAddress from = message.from;
    int64_t len = message.length;
    uint64_t op_id = message.op_id;
    if (!client->DeliverMessage(std::move(message))) {
      break;
    }
    TraceMessagePoint(sim_, 'f', op_id, "deliver");
    stalled_messages_.erase(stalled_messages_.begin());
    ++stats_.messages_delivered;
    stats_.message_bytes_delivered += len;
    if (qos_ != nullptr) {
      Flow* src = FindFlow(from);
      qos::TenantId tenant =
          src != nullptr ? src->tenant() : qos::kDefaultTenant;
      TenantStats& tstats = qos_->groups[tenant].stats;
      ++tstats.messages_delivered;
      tstats.message_bytes_delivered += len;
    }
    if (len <= params_.credit_message_threshold) {
      Flow* flow = FindFlow(from);
      if (flow != nullptr) {
        flow->NoteDelivered(len);
      }
    }
    ++(*work);
  }
}

void PonyEngine::UpdateWakeTimer(SimTime now) {
  SimTime earliest = kSimTimeNever;
  for (const Flow* flow : flow_seq_) {
    if (flow->inert()) {
      continue;  // all three deadlines are kSimTimeNever
    }
    earliest = std::min(earliest, flow->NextSendTime());
    earliest = std::min(earliest, flow->rto_deadline());
    earliest = std::min(earliest, flow->AckDeadline());
  }
  wake_timer_.Cancel();
  if (earliest == kSimTimeNever) {
    return;
  }
  if (earliest <= now) {
    return;  // immediate work; HasWork() reports it
  }
  if (HasWork(now)) {
    return;  // the host will poll again anyway; avoid timer churn
  }
  PonyEngine* self = this;
  wake_timer_ = sim_->ScheduleAt(earliest, [self] { self->NotifyWork(); });
}

bool PonyEngine::HasWork(SimTime now) const {
  if (rx_->pending() > 0) {
    return true;
  }
  for (PonyClient* client : clients_) {
    if (!client->command_queue().empty()) {
      return true;
    }
  }
  if (!stalled_messages_.empty() || !stalled_completions_.empty()) {
    return true;
  }
  for (const Flow* flow : flow_seq_) {
    if (flow->inert()) {
      continue;  // cannot send, no ack owed, no deadline due
    }
    if (flow->CanSend(now) || flow->ack_pending()) {
      return true;
    }
    if (flow->rto_deadline() <= now || flow->AckDeadline() <= now) {
      return true;
    }
  }
  return false;
}

SimDuration PonyEngine::QueueingDelay(SimTime now) const {
  SimDuration worst = 0;
  SimTime oldest_rx = rx_->OldestArrival();
  if (oldest_rx != kSimTimeNever) {
    worst = std::max(worst, now - oldest_rx);
  }
  for (PonyClient* client : clients_) {
    SimTime oldest_cmd = client->OldestCommandTime();
    if (oldest_cmd != kSimTimeNever) {
      worst = std::max(worst, now - oldest_cmd);
    }
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Upgrade serialization (Section 4)
// ---------------------------------------------------------------------------

Engine::StateFootprint PonyEngine::Footprint() const {
  StateFootprint fp;
  fp.flows = static_cast<int64_t>(flows_.size());
  fp.streams = static_cast<int64_t>(streams_.size() + assemblies_.size() +
                                    pending_ops_.size() + send_ops_.size());
  for (const auto& [flow_id, by_seq] : held_) {
    fp.streams += static_cast<int64_t>(by_seq.size());
  }
  fp.regions = static_cast<int64_t>(regions_.size());
  return fp;
}

void PonyEngine::SerializeState(StateWriter* w) const {
  w->BeginSection("pony_engine");
  w->PutU32(engine_id_);
  w->PutU16(wire_min_);
  w->PutU16(wire_max_);
  w->PutU32(static_cast<uint32_t>(flows_.size()));
  for (const auto& [key, flow] : flows_) {
    flow.Serialize(w);
  }
  w->PutU32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [stream_id, binding] : streams_) {
    w->PutU64(stream_id);
    w->PutU64(binding.client_id);
    w->PutI64(binding.peer.host);
    w->PutU32(binding.peer.engine_id);
  }
  w->PutU32(static_cast<uint32_t>(pending_ops_.size()));
  for (const auto& [op_id, op] : pending_ops_) {
    w->PutU64(op_id);
    w->PutU64(op.client_id);
    w->PutU8(static_cast<uint8_t>(op.type));
    w->PutI64(op.submit_time);
    w->PutI64(op.expected_bytes);
  }
  w->PutU32(static_cast<uint32_t>(send_ops_.size()));
  for (const auto& [op_id, op] : send_ops_) {
    w->PutU64(op_id);
    w->PutU64(op.client_id);
    w->PutI64(op.submit_time);
    w->PutI64(op.remaining);
    w->PutI64(op.total);
  }
  w->PutU32(static_cast<uint32_t>(assemblies_.size()));
  for (const auto& [key, assembly] : assemblies_) {
    w->PutU64(key.first);
    w->PutU64(key.second);
    w->PutI64(assembly.from.host);
    w->PutU32(assembly.from.engine_id);
    w->PutU64(assembly.stream_id);
    w->PutI64(assembly.received);
    w->PutI64(assembly.total);
    w->PutBytes(assembly.data);
    w->PutU64(assembly.last_seq);
  }
  uint32_t held_flows = 0;
  for (const auto& [flow_id, by_seq] : held_) {
    held_flows += by_seq.empty() ? 0 : 1;
  }
  w->PutU32(held_flows);
  for (const auto& [flow_id, by_seq] : held_) {
    if (by_seq.empty()) {
      continue;
    }
    w->PutU64(flow_id);
    w->PutU32(static_cast<uint32_t>(by_seq.size()));
    for (const auto& [seq, msg] : by_seq) {
      w->PutU64(seq);
      w->PutI64(msg.from.host);
      w->PutU32(msg.from.engine_id);
      w->PutU64(msg.stream_id);
      w->PutU64(msg.op_id);
      w->PutI64(msg.length);
      w->PutBytes(msg.data);
      w->PutI64(msg.receive_time);
    }
  }
}

void PonyEngine::DeserializeState(StateReader* r) {
  r->ExpectSection("pony_engine");
  engine_id_ = r->GetU32();
  wire_min_ = r->GetU16();
  wire_max_ = r->GetU16();
  uint32_t n_flows = r->GetU32();
  for (uint32_t i = 0; i < n_flows; ++i) {
    Flow flow = Flow::Deserialize(r, nic_->host_id(), engine_id_,
                                  timely_params_, &params_);
    auto [it, inserted] = flows_.emplace(flow.key(), std::move(flow));
    InstallAckObserver(&it->second);
    if (inserted) {
      QosAddFlow(&it->second);  // tenant tag round-trips with the flow
    }
  }
  RebuildFlowSeq();
  uint32_t n_streams = r->GetU32();
  for (uint32_t i = 0; i < n_streams; ++i) {
    uint64_t stream_id = r->GetU64();
    StreamBinding binding;
    binding.client_id = r->GetU64();
    binding.peer.host = static_cast<int>(r->GetI64());
    binding.peer.engine_id = r->GetU32();
    streams_[stream_id] = binding;
  }
  uint32_t n_ops = r->GetU32();
  for (uint32_t i = 0; i < n_ops; ++i) {
    uint64_t op_id = r->GetU64();
    PendingOp op;
    op.client_id = r->GetU64();
    op.type = static_cast<PonyCommandType>(r->GetU8());
    op.submit_time = r->GetI64();
    op.expected_bytes = r->GetI64();
    pending_ops_[op_id] = op;
  }
  uint32_t n_sends = r->GetU32();
  for (uint32_t i = 0; i < n_sends; ++i) {
    uint64_t op_id = r->GetU64();
    SendOp op;
    op.client_id = r->GetU64();
    op.submit_time = r->GetI64();
    op.remaining = r->GetI64();
    op.total = r->GetI64();
    send_ops_[op_id] = op;
  }
  uint32_t n_asm = r->GetU32();
  for (uint32_t i = 0; i < n_asm; ++i) {
    uint64_t k1 = r->GetU64();
    uint64_t k2 = r->GetU64();
    Assembly assembly;
    assembly.from.host = static_cast<int>(r->GetI64());
    assembly.from.engine_id = r->GetU32();
    assembly.stream_id = r->GetU64();
    assembly.received = r->GetI64();
    assembly.total = r->GetI64();
    assembly.data = r->GetBytes();
    assembly.last_seq = r->GetU64();
    assemblies_[std::make_pair(k1, k2)] = std::move(assembly);
  }
  uint32_t n_held_flows = r->GetU32();
  for (uint32_t i = 0; i < n_held_flows; ++i) {
    uint64_t flow_id = r->GetU64();
    uint32_t n_msgs = r->GetU32();
    for (uint32_t j = 0; j < n_msgs; ++j) {
      uint64_t seq = r->GetU64();
      PonyIncomingMessage msg;
      msg.from.host = static_cast<int>(r->GetI64());
      msg.from.engine_id = r->GetU32();
      msg.stream_id = r->GetU64();
      msg.op_id = r->GetU64();
      msg.length = r->GetI64();
      msg.data = r->GetBytes();
      msg.receive_time = r->GetI64();
      held_[flow_id][seq] = std::move(msg);
    }
  }
}

}  // namespace snap
