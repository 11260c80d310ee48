#include "src/net/nic.h"

#include "src/net/egress.h"
#include "src/stats/telemetry.h"
#include "src/util/logging.h"

namespace snap {

namespace {
// Shared empty map for NICs without QoS TX state. Namespace-scope (not a
// function-local static) so concurrent shard threads never touch a
// magic-static guard.
const std::map<uint32_t, Nic::TenantTxStats> kEmptyTenantTxStats;
}  // namespace

// --------------------------------------------------------------------------
// RxQueue
// --------------------------------------------------------------------------

RxQueue::RxQueue(Substrate* sim, const NicParams& params, int id)
    : sim_(sim), params_(params), id_(id) {}

PacketPtr RxQueue::Poll() {
  if (ring_.empty()) {
    return nullptr;
  }
  PacketPtr p = std::move(ring_.front());
  ring_.pop_front();
  return p;
}

void RxQueue::SetInterruptHandler(std::function<void()> handler) {
  handler_ = std::move(handler);
  has_handler_ = true;
  interrupts_armed_ = true;
}

void RxQueue::DisableInterrupts() {
  interrupts_disabled_ = true;
  interrupts_armed_ = false;
  itr_timer_.Cancel();
}

void RxQueue::Rearm() {
  if (interrupts_disabled_ || !has_handler_) {
    return;
  }
  interrupts_armed_ = true;
  if (!ring_.empty()) {
    // Packets arrived while masked: fire immediately (no lost wakeups).
    Fire();
  }
}

void RxQueue::Deliver(PacketPtr packet) {
  if (static_cast<int>(ring_.size()) >= params_.rx_ring_entries) {
    ++stats_.dropped_ring_full;
    return;
  }
  ++stats_.received;
  ring_.push_back(std::move(packet));
  MaybeInterrupt();
  last_arrival_ = sim_->now();
  if (watcher_) {
    watcher_();
  }
}

void RxQueue::MaybeInterrupt() {
  if (!interrupts_armed_ || !has_handler_) {
    return;
  }
  ++coalesced_frames_;
  SimTime now = sim_->now();
  // Adaptive moderation: an isolated packet (low rate) interrupts
  // immediately; under a burst we coalesce until the frame or time limit.
  bool low_rate = (now - last_arrival_) > 5 * kUsec;
  if (low_rate || coalesced_frames_ >= params_.itr_max_frames) {
    Fire();
    return;
  }
  if (!itr_timer_.pending()) {
    itr_timer_ = sim_->Schedule(params_.itr_max_wait, [this] { Fire(); });
  }
}

void RxQueue::Fire() {
  itr_timer_.Cancel();
  coalesced_frames_ = 0;
  // Mask until the consumer rearms (NAPI discipline).
  interrupts_armed_ = false;
  ++stats_.interrupts;
  handler_();
}

// --------------------------------------------------------------------------
// Nic
// --------------------------------------------------------------------------

Nic::Nic(Substrate* sim, PacketEgress* egress, int host_id,
         const NicParams& params)
    : sim_(sim),
      egress_(egress),
      models_link_(egress->models_link_timing()),
      host_id_(host_id),
      params_(params) {
  // Queue 0: the host kernel's default queue.
  queues_.push_back(std::make_unique<RxQueue>(sim_, params_, 0));
}

RxQueue* Nic::CreateRxQueue() {
  queues_.push_back(std::make_unique<RxQueue>(
      sim_, params_, static_cast<int>(queues_.size())));
  return queues_.back().get();
}

Status Nic::InstallSteeringFilter(uint32_t key, RxQueue* queue) {
  auto [it, inserted] = steering_.emplace(key, queue);
  if (!inserted) {
    return AlreadyExistsError("steering filter exists for key");
  }
  return OkStatus();
}

Status Nic::RemoveSteeringFilter(uint32_t key) {
  if (steering_.erase(key) == 0) {
    return NotFoundError("no steering filter for key");
  }
  return OkStatus();
}

int Nic::TxSlotsAvailable() const {
  return params_.tx_ring_entries - tx_outstanding_;
}

bool Nic::Transmit(PacketPtr packet) {
  if (tx_outstanding_ >= params_.tx_ring_entries) {
    ++stats_.tx_ring_full;
    return false;
  }
  SNAP_CHECK_GT(packet->wire_bytes, 0) << "packet must have wire_bytes set";
  SimTime now = sim_->now();
  packet->enqueue_time = now;
  ++tx_outstanding_;
  ++stats_.tx_packets;
  stats_.tx_bytes += packet->wire_bytes;
  TracePacketPoint(sim_, *packet, "nic_tx");
  if (tx_tap_) {
    tx_tap_(*packet);
  }
  if (qos_tx_ != nullptr) {
    // QoS TX: park the packet in its tenant's WFQ queue (it keeps its ring
    // slot) and make sure a drain is scheduled for when the link frees up.
    uint32_t tenant = packet->tenant;
    qos_tx_->wfq.Enqueue(tenant, std::move(packet));
    if (!qos_tx_->drain_pending) {
      ScheduleQosDrain(std::max(now, tx_busy_until_));
    }
    return true;
  }
  if (!models_link_) {
    // Live egress: the socket or ring is the wire. No serialization slot,
    // no pipeline delay, no timer event; the descriptor frees at once.
    --tx_outstanding_;
    egress_->Route(std::move(packet), now);
    return true;
  }
  // Serialize onto the uplink behind any packets already queued in the
  // ring. The NIC pipeline delay is pure latency: it delays delivery but
  // does not occupy the link.
  SimTime start = std::max(now, tx_busy_until_);
  SimTime serialized =
      start + SerializationDelay(packet->wire_bytes, params_.link_gbps);
  tx_busy_until_ = serialized;
  SimTime done = serialized + params_.nic_pipeline_delay;
  // The event owns the packet (EventCallback supports move-only captures),
  // so packets still in flight when the simulation ends are reclaimed.
  sim_->ScheduleAt(done, [this, done, p = std::move(packet)]() mutable {
    --tx_outstanding_;
    egress_->Route(std::move(p), done);
  });
  return true;
}

void Nic::EnableQosTx(const qos::TenantRegistry* tenants) {
  if (qos_tx_ != nullptr) {
    return;
  }
  qos_tx_ = std::make_unique<QosTx>();
  qos_tx_->tenants = tenants;
  if (tenants != nullptr) {
    tenants->ForEach([this](const qos::TenantSpec& spec) {
      qos_tx_->wfq.SetWeight(spec.id, spec.weight);
    });
  }
}

void Nic::ScheduleQosDrain(SimTime at) {
  qos_tx_->drain_pending = true;
  sim_->ScheduleAt(std::max(at, sim_->now()), [this] { QosDrain(); });
}

void Nic::QosDrain() {
  qos_tx_->drain_pending = false;
  if (qos_tx_->wfq.empty()) {
    return;
  }
  SimTime now = sim_->now();
  if (tx_busy_until_ > now) {
    // A competing drain already claimed the link; come back when it frees.
    ScheduleQosDrain(tx_busy_until_);
    return;
  }
  // One packet per drain event: the WFQ decision is re-made at each link
  // idle edge so a latecomer high-weight tenant is never stuck behind a
  // burst that was queued first.
  PacketPtr packet = qos_tx_->wfq.Dequeue();
  TenantTxStats& tstats = qos_tx_->per_tenant[packet->tenant];
  ++tstats.tx_packets;
  tstats.tx_bytes += packet->wire_bytes;
  SimDuration queue_delay = now - packet->enqueue_time;
  tstats.queue_delay_total += queue_delay;
  tstats.queue_delay_max = std::max(tstats.queue_delay_max, queue_delay);
  SimTime serialized =
      now + SerializationDelay(packet->wire_bytes, params_.link_gbps);
  tx_busy_until_ = serialized;
  SimTime done = serialized + params_.nic_pipeline_delay;
  sim_->ScheduleAt(done, [this, done, p = std::move(packet)]() mutable {
    --tx_outstanding_;
    egress_->Route(std::move(p), done);
  });
  if (!qos_tx_->wfq.empty()) {
    ScheduleQosDrain(serialized);
  }
}

const std::map<uint32_t, Nic::TenantTxStats>& Nic::tenant_tx_stats() const {
  return qos_tx_ == nullptr ? kEmptyTenantTxStats : qos_tx_->per_tenant;
}

void Nic::ExportQosStats(Telemetry* telemetry,
                         const std::string& prefix) const {
  if (qos_tx_ == nullptr) {
    return;
  }
  for (const auto& [tenant, tstats] : qos_tx_->per_tenant) {
    std::string name = qos_tx_->tenants != nullptr
                           ? qos_tx_->tenants->DisplayName(tenant)
                           : "t" + std::to_string(tenant);
    const std::string base = prefix + "/" + name;
    telemetry->SetCounter(base + "/nic_tx_packets", tstats.tx_packets);
    telemetry->SetCounter(base + "/nic_tx_bytes", tstats.tx_bytes);
    int64_t mean_delay =
        tstats.tx_packets > 0 ? tstats.queue_delay_total / tstats.tx_packets
                              : 0;
    telemetry->SetCounter(base + "/nic_queue_delay_mean_ns", mean_delay);
    telemetry->SetCounter(base + "/nic_queue_delay_max_ns",
                          tstats.queue_delay_max);
  }
}

void Nic::DeliverFromWire(PacketPtr packet) {
  ++stats_.rx_packets;
  stats_.rx_bytes += packet->wire_bytes;
  packet->rx_time = sim_->now();
  TracePacketPoint(sim_, *packet, "nic_rx");
  if (rx_tap_) {
    rx_tap_(*packet);
  }
  auto it = steering_.find(packet->steering_hash);
  RxQueue* q = it != steering_.end() ? it->second : queues_.front().get();
  q->Deliver(std::move(packet));
}

}  // namespace snap
