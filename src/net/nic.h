// Simulated NIC: receive queues with descriptor rings, exact-match steering
// filters, adaptive interrupt moderation, and a transmit path that
// serializes onto the link.
//
// The link timing model (serialization slot on a `link_gbps` uplink, then
// `nic_pipeline_delay`, then one timer event per packet) runs only in front
// of an egress that models link timing — the simulated Fabric. In front of
// a live egress (UDP sockets, loopback rings) the socket is the wire, so
// the FIFO TX path hands each packet to Route() inside Transmit(). The QoS
// WFQ drain (EnableQosTx) keeps its modeled link drain in both substrates:
// its fairness is defined against that link's idle edges.
//
// Engines interact with the NIC exactly the way Snap does with real
// hardware: they poll RX descriptor rings (OS-bypass), transmit only when
// descriptor slots are available (Section 3.1's "just-in-time generation of
// packets based on slot availability"), and install/detach steering filters
// (used by transparent upgrade to hand a queue to the new engine,
// Section 4). Interrupt-driven consumers (the kernel stack, "spreading"
// engines) arm interrupts and get woken through a handler callback.
#ifndef SRC_NET_NIC_H_
#define SRC_NET_NIC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/egress.h"
#include "src/packet/packet.h"
#include "src/qos/scheduler.h"
#include "src/qos/tenant.h"
#include "src/sim/model_params.h"
#include "src/sim/substrate.h"
#include "src/util/status.h"

namespace snap {

class Nic;
class Telemetry;

// One NIC receive queue: a bounded descriptor ring plus interrupt state.
class RxQueue {
 public:
  RxQueue(Substrate* sim, const NicParams& params, int id);

  // Consumer side: takes the next received packet, or nullptr.
  PacketPtr Poll();
  int pending() const { return static_cast<int>(ring_.size()); }
  // RX time of the oldest undelivered packet; kSimTimeNever when empty.
  SimTime OldestArrival() const {
    return ring_.empty() ? kSimTimeNever : ring_.front()->rx_time;
  }

  // Interrupt control (NAPI-style): the handler fires once per interrupt;
  // the NIC then masks further interrupts until Rearm(). Rearm() with
  // packets still pending fires immediately (no lost wakeups).
  void SetInterruptHandler(std::function<void()> handler);
  void Rearm();
  bool interrupts_enabled() const { return interrupts_armed_; }
  // Disables interrupt generation entirely (spin-polling consumers).
  void DisableInterrupts();

  // Lightweight per-delivery notification for engine runtimes: invoked on
  // every packet arrival regardless of interrupt state. The CPU scheduler
  // models the cost of the resulting wakeup (IPI/IRQ for blocked tasks,
  // poll-loop detection latency for spinning ones).
  void SetPollWatcher(std::function<void()> watcher) {
    watcher_ = std::move(watcher);
  }

  int id() const { return id_; }

  struct Stats {
    int64_t received = 0;
    int64_t dropped_ring_full = 0;
    int64_t interrupts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Nic;

  // NIC side: a packet arrived from the wire.
  void Deliver(PacketPtr packet);
  void MaybeInterrupt();
  void Fire();

  Substrate* sim_;
  const NicParams params_;
  int id_;
  std::deque<PacketPtr> ring_;
  std::function<void()> handler_;
  std::function<void()> watcher_;
  bool has_handler_ = false;
  bool interrupts_armed_ = false;
  bool interrupts_disabled_ = false;
  int coalesced_frames_ = 0;
  SimTime last_arrival_ = -kSec;
  EventHandle itr_timer_;
  Stats stats_;
};

class Nic {
 public:
  Nic(Substrate* sim, PacketEgress* egress, int host_id,
      const NicParams& params);

  // Creates an additional RX queue (queue 0 exists by default and is the
  // default steering target, i.e. the host kernel's queue).
  RxQueue* CreateRxQueue();
  RxQueue* default_queue() { return queues_.front().get(); }
  RxQueue* queue(int id) { return queues_[id].get(); }
  int num_queues() const { return static_cast<int>(queues_.size()); }

  // Steering: exact-match on Packet::steering_hash.
  Status InstallSteeringFilter(uint32_t key, RxQueue* queue);
  Status RemoveSteeringFilter(uint32_t key);

  // Transmit path. Returns false when no TX descriptor slots are free.
  bool Transmit(PacketPtr packet);
  int TxSlotsAvailable() const;

  // Multi-tenant QoS (src/qos/): switches the TX path from FIFO link
  // serialization to per-tenant queues drained by weighted fair queuing.
  // `tenants` supplies weights and must outlive the NIC. Default off; the
  // legacy path is untouched and event-for-event identical. The drain
  // serializes onto the modeled link on live substrates too.
  void EnableQosTx(const qos::TenantRegistry* tenants);
  bool qos_tx_enabled() const { return qos_tx_ != nullptr; }

  struct TenantTxStats {
    int64_t tx_packets = 0;
    int64_t tx_bytes = 0;
    // Time from Transmit() to the packet winning the WFQ drain (the
    // per-tenant queue delay the scheduler is supposed to bound).
    SimDuration queue_delay_total = 0;
    SimDuration queue_delay_max = 0;
  };
  // Per-tenant TX accounting; empty unless QoS TX is enabled.
  const std::map<uint32_t, TenantTxStats>& tenant_tx_stats() const;
  // Registers per-tenant counters/gauges under
  // "<prefix>/<tenant-name>/..." (see docs/QOS.md).
  void ExportQosStats(Telemetry* telemetry, const std::string& prefix) const;

  // Fabric side: a packet arrived addressed to this host.
  void DeliverFromWire(PacketPtr packet);

  int host_id() const { return host_id_; }
  const NicParams& params() const { return params_; }

  // Observation taps (invariant checkers, src/testing/invariants.h): fire
  // for every packet the NIC accepts for transmission / receives from the
  // wire. Purely passive; never mutate delivery.
  void SetTxTap(std::function<void(const Packet&)> tap) {
    tx_tap_ = std::move(tap);
  }
  void SetRxTap(std::function<void(const Packet&)> tap) {
    rx_tap_ = std::move(tap);
  }

  struct Stats {
    int64_t tx_packets = 0;
    int64_t tx_bytes = 0;
    int64_t rx_packets = 0;
    int64_t rx_bytes = 0;
    int64_t tx_ring_full = 0;
    int64_t rx_no_filter_drops = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // QoS TX state: the WFQ holds packets that have consumed a TX ring slot
  // but not yet won the link; a self-rescheduling drain event serializes
  // the WFQ winner whenever the link goes free, so ring occupancy
  // semantics (tx_outstanding_ <= tx_ring_entries across queued +
  // in-flight packets) match the legacy path exactly.
  struct QosTx {
    const qos::TenantRegistry* tenants = nullptr;
    qos::WfqScheduler wfq;
    bool drain_pending = false;
    std::map<uint32_t, TenantTxStats> per_tenant;
  };
  void ScheduleQosDrain(SimTime at);
  void QosDrain();

  Substrate* sim_;
  PacketEgress* egress_;
  const bool models_link_;  // egress_->models_link_timing(), read once
  int host_id_;
  NicParams params_;
  std::vector<std::unique_ptr<RxQueue>> queues_;
  std::map<uint32_t, RxQueue*> steering_;
  // TX serialization onto the link.
  SimTime tx_busy_until_ = 0;
  int tx_outstanding_ = 0;
  std::function<void(const Packet&)> tx_tap_;
  std::function<void(const Packet&)> rx_tap_;
  std::unique_ptr<QosTx> qos_tx_;
  Stats stats_;
};

// Records one packet-lifecycle flow point for a sampled Pony message: a
// "msg" flow bound by op id, with the lifecycle stage in args ("engine_tx",
// "nic_tx", "fabric_enq", "nic_rx", ...). Pure observation on the hot path
// — one null test when tracing is disabled — and compiled out entirely with
// -DSNAP_TRACE_PACKET_LIFECYCLE=OFF.
inline void TracePacketPoint(
    Substrate* sim, const Packet& packet, const char* point,
    int fallback_track = TraceRecorder::kFabricTrack) {
#ifndef SNAP_DISABLE_PACKET_TRACE
  TraceRecorder* tracer = sim->tracer();
  if (tracer == nullptr || packet.proto != WireProtocol::kPony ||
      !tracer->ShouldSampleMessage(packet.pony.op_id)) {
    return;
  }
  tracer->FlowPoint('t', sim->now(), tracer->current_core_or(fallback_track),
                    packet.pony.op_id, "msg", "pkt",
                    TraceArgStr("point", point));
#else
  (void)sim;
  (void)packet;
  (void)point;
  (void)fallback_track;
#endif
}

}  // namespace snap

#endif  // SRC_NET_NIC_H_
