// LoopbackFabric: in-process live fabric — one model-checked SPSC ring per
// (source, destination) host pair.
//
// Route() runs on the source host's engine thread and pushes the raw
// Packet pointer into the (src, dst) ring; the destination executor's poll
// hook drains every ring addressed to it and hands packets to its NIC.
// Each ring therefore has exactly one producer thread and one consumer
// thread — the discipline the SpscRing (and its src/verify/ model
// checking) guarantees correctness for. Packets cross threads by pointer;
// the Packet allocator's freelists are thread-local, so a packet freed on
// the consumer thread never touches the producer's cache.
//
// A full ring drops the packet (the paper's lossy fabric, Section 5.4:
// no PFC — losses are repaired end-to-end by the transport), so a slow
// receiver backpressures senders through Pony Express retransmission and
// congestion control rather than by blocking the fabric.
#ifndef SRC_LIVE_LOOPBACK_FABRIC_H_
#define SRC_LIVE_LOOPBACK_FABRIC_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/live/live_executor.h"
#include "src/net/egress.h"
#include "src/net/nic.h"
#include "src/queue/spsc_ring.h"

namespace snap {

class LoopbackFabric : public PacketEgress {
 public:
  struct Options {
    // Per-(src,dst) ring capacity (rounded up to a power of two).
    int ring_entries = 1024;
  };

  explicit LoopbackFabric(int num_hosts);
  LoopbackFabric(int num_hosts, Options options);
  ~LoopbackFabric() override;

  // Setup-thread-only: registers host `host_id`'s NIC and the executor to
  // wake when packets arrive for it. All hosts must be registered before
  // any executor starts.
  void AddHost(int host_id, Nic* nic, LiveExecutor* executor);

  // PacketEgress; called on the source host's engine thread.
  void Route(PacketPtr packet, SimTime wire_time) override;
  bool models_link_timing() const override { return false; }

  // Drains every ring addressed to `dst_host` into its NIC. Must be called
  // from that host's executor thread (its poll hook). Returns packets
  // delivered.
  int DrainTo(int dst_host);

  int num_hosts() const { return num_hosts_; }

  struct Stats {
    int64_t delivered = 0;
    int64_t dropped_ring_full = 0;
    int64_t dropped_bad_address = 0;
  };
  // Aggregated over all hosts; exact once traffic has quiesced.
  Stats GetStats() const;

 private:
  using Ring = SpscRing<Packet*>;
  Ring& ring(int src, int dst) { return *rings_[src * num_hosts_ + dst]; }

  int num_hosts_;
  Options options_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<Nic*> nics_;
  std::vector<LiveExecutor*> executors_;
  // Per-host counters, each written by a single thread (producers drop,
  // consumers deliver); atomics make the cross-thread aggregation defined.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> delivered_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> dropped_full_;
  std::atomic<int64_t> dropped_bad_address_{0};
};

}  // namespace snap

#endif  // SRC_LIVE_LOOPBACK_FABRIC_H_
