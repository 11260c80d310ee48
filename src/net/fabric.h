// Simulated datacenter fabric: hosts attached to a switch, with per-
// destination egress port queues that drain at line rate. The egress queue
// is where congestion appears: incast traffic inflates queueing delay
// (which Timely's RTT-gradient congestion control reacts to) and overflows
// drop (the lossy fabric of Section 5.4: no PFC pauses; losses are handled
// end-to-end).
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/net/egress.h"
#include "src/net/nic.h"
#include "src/packet/packet.h"
#include "src/sim/model_params.h"
#include "src/sim/simulator.h"

namespace snap {

class Fabric;

// Routes packets between per-shard Fabrics in a sharded simulation
// (src/net/shard_net.h). A Fabric with a shard router installed hands it
// every routed packet instead of queueing locally; the router stages the
// packet for delivery on the destination host's shard at the next epoch
// barrier.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  // Called at the top of Fabric::AddHost on `adder`, before the host id is
  // assigned, so the router can pad every other shard's host table and
  // keep host ids global across shards.
  virtual void OnAddHost(Fabric* adder) = 0;
  // Takes ownership of a packet leaving `src`'s wire at `wire_time`.
  virtual void RouteFromShard(Fabric* src, PacketPtr packet,
                              SimTime wire_time) = 0;
};

class Fabric : public PacketEgress {
 public:
  Fabric(Simulator* sim, const NicParams& params);

  // Creates a new host with one NIC attached to the fabric; hosts are
  // numbered densely from 0 (globally, across shards, when a shard router
  // is installed).
  Nic* AddHost();

  // Records a host that lives on another shard's fabric: reserves its id
  // locally (nullptr NIC, placeholder port) so host ids index the same
  // tables on every shard. Only shard routers call this.
  void AddRemoteHost();

  // nullptr when the host lives on another shard's fabric.
  Nic* nic(int host) { return nics_[host].get(); }
  bool host_is_local(int host) const {
    return host >= 0 && host < num_hosts() && nics_[host] != nullptr;
  }
  int num_hosts() const { return static_cast<int>(nics_.size()); }

  // Called by a NIC when a packet finishes serializing onto its uplink at
  // time `wire_time`. Routes through the destination's egress port.
  void Route(PacketPtr packet, SimTime wire_time) override;
  bool models_link_timing() const override { return true; }

  // Second half of Route: contend for the destination's egress port queue
  // and schedule delivery. Public so delivery hooks can re-inject packets
  // they intercepted (possibly delayed/cloned/corrupted). The time
  // argument is the source wire time normally, or the switch-arrival time
  // when arrival-time mode is on (see set_arrival_time_mode).
  void EnqueueAtPort(PacketPtr packet, SimTime wire_time);

  // Delivery entry point used by shard routers at epoch barriers: the
  // packet has already crossed the fabric (switch_arrival = wire_time +
  // propagation), so this runs the delivery hook / port contention in the
  // arrival time frame.
  void DeliverAtSwitch(PacketPtr packet, SimTime switch_arrival);

  // Canonically ordered arrival staging (arrival-time-mode fabrics only).
  // The packet is parked on its destination port and delivered — via
  // DeliverAtSwitch — by a per-port sequencer event at `arrival`; arrivals
  // sharing a (port, arrival) pair are delivered in (wire_time, src_host,
  // seq) order no matter what order they were staged in. This is what
  // makes same-instant tie order placement- and shard-count-invariant:
  // cross-shard packets are staged here at epoch barriers while same-shard
  // packets are staged eagerly at route time, and both meet in one
  // canonical queue. `arrival` must be >= the owning simulator's clock.
  void StageArrival(PacketPtr packet, SimTime arrival, SimTime wire_time,
                    int src_host, uint64_t seq);

  // Installs the cross-shard router; this fabric then owns only shard
  // `shard_id`'s hosts and forwards every routed packet to the router.
  void set_shard_router(ShardRouter* router, int shard_id) {
    router_ = router;
    shard_id_ = shard_id;
  }
  int shard_id() const { return shard_id_; }

  // In arrival-time mode, EnqueueAtPort's time argument is interpreted as
  // the switch-arrival time (propagation already elapsed) instead of the
  // source wire time. Sharded fabrics run this way: their delivery hooks
  // (chaos links) execute on the destination shard at wire + propagation,
  // so re-injected packets must not pay propagation twice.
  void set_arrival_time_mode(bool on) { arrival_time_mode_ = on; }

  // Fault injection: drop each packet independently with this probability.
  // The decision is a deterministic per-packet hash of (simulation seed,
  // src, dst, per-source departure sequence) rather than an RNG draw: a
  // host's departures are totally ordered by its own timeline, so the
  // sequence numbers — and hence the drop pattern — are identical no
  // matter how hosts are sharded or placed, which keeps drop_probability >
  // 0 digest-comparable between serial and sharded runs.
  void set_random_drop_probability(double p) { drop_probability_ = p; }
  double random_drop_probability() const { return drop_probability_; }
  void CountRandomDrop() { ++stats_.dropped_random; }

  // Interposes on every packet routed toward `dst_host`, after the random-
  // drop stage and before port queueing. The hook owns the packet; it
  // delivers (or drops) via EnqueueAtPort. Used by src/testing/chaos.h.
  void SetDeliveryHook(int dst_host,
                       std::function<void(PacketPtr, SimTime)> hook) {
    if (dst_host >= static_cast<int>(delivery_hooks_.size())) {
      delivery_hooks_.resize(dst_host + 1);
    }
    delivery_hooks_[dst_host] = std::move(hook);
  }

  struct Stats {
    int64_t delivered = 0;
    int64_t dropped_queue_full = 0;
    int64_t dropped_random = 0;
    int64_t dropped_bad_address = 0;
    // Drain events fired (batched path); delivered / drain_events is the
    // mean delivery batch size.
    int64_t drain_events = 0;
  };
  const Stats& stats() const { return stats_; }

  // Instantaneous queue depth (bytes) at a destination's egress port.
  int64_t PortQueueBytes(int host) const;

  Simulator* sim() { return sim_; }
  const NicParams& params() const { return params_; }

 private:
  // A packet in flight toward a port's NIC with its exact modeled delivery
  // time. `pending` stays sorted by `at` because a port's busy_until (and
  // so each successive delivery time) is monotonically nondecreasing.
  struct PendingDelivery {
    SimTime at;
    PacketPtr packet;
  };
  // An arrival staged by StageArrival, waiting for the port sequencer.
  struct StagedArrival {
    SimTime at;
    SimTime wire_time;
    int src_host;
    uint64_t seq;
    PacketPtr packet;
  };
  struct Port {
    SimTime busy_until = 0;
    int64_t queued_bytes = 0;
    std::deque<PendingDelivery> pending;
    // Exactly one drain event is in flight per port while pending is
    // non-empty; it fires at pending.front().at.
    bool drain_armed = false;
    // Arrival sequencer state (arrival-time mode): staged arrivals not yet
    // handed to DeliverAtSwitch, and the one armed sequencer event
    // (rearmed earlier whenever an earlier arrival is staged).
    std::vector<StagedArrival> staged;
    SimTime sequencer_armed_at = -1;
    EventHandle sequencer_event;
  };

  // Delivers every pending packet whose time has come, then re-arms at the
  // next pending delivery time (batched path).
  void DrainPort(int dst);
  void DeliverOne(int dst, PacketPtr packet);
  // Port sequencer: delivers every staged arrival due now in canonical
  // (wire_time, src_host, seq) order, then re-arms at the next staged time.
  void DrainArrivals(int dst);
  // Deterministic hashed drop decision for a packet leaving `src_host`.
  bool DropsPacket(const Packet& packet);

  Simulator* sim_;
  NicParams params_;
  std::vector<std::unique_ptr<Nic>> nics_;
  // deque: Port holds a move-only pending queue and must not relocate.
  std::deque<Port> ports_;
  std::vector<std::function<void(PacketPtr, SimTime)>> delivery_hooks_;
  double drop_probability_ = 0;
  // Per-source-host departure counters feeding the hashed drop decision.
  std::vector<uint64_t> drop_seq_;
  ShardRouter* router_ = nullptr;
  int shard_id_ = 0;
  bool arrival_time_mode_ = false;
  Stats stats_;
};

}  // namespace snap

#endif  // SRC_NET_FABRIC_H_
