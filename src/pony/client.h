// Pony Express client library (Section 3.1): applications bootstrap shared
// memory with Snap over a Unix domain socket, then interact exclusively
// through lock-free command/completion queues. "Application threads can
// then either spin-poll the completion queue, or can request to receive a
// thread notification when a completion is written."
//
// All methods return their modeled application-side CPU cost through a
// CpuCostSink so calling SimTasks charge the right cores.
#ifndef SRC_PONY_CLIENT_H_
#define SRC_PONY_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/kernel/kstack.h"  // CpuCostSink
#include "src/pony/memory_region.h"
#include "src/pony/pony_types.h"
#include "src/qos/tenant.h"
#include "src/qos/token_bucket.h"
#include "src/queue/spsc_ring.h"
#include "src/sim/model_params.h"
#include "src/util/doorbell.h"

namespace snap {

class PonyEngine;

// The id of the `n`th client (n >= 1) created on `host_id`. Client ids
// must be globally unique: stream ids derive from them and are
// demultiplexed at REMOTE engines, so two hosts minting the same id would
// cross-deliver each other's messages. The sim's PonyModule and the live
// LiveHost both mint ids here.
inline uint64_t GlobalClientId(int host_id, uint64_t n) {
  return (static_cast<uint64_t>(host_id + 1) << 20) | n;
}

class PonyClient {
 public:
  PonyClient(std::string app_name, uint64_t client_id, PonyEngine* engine,
             const AppParams& params);
  ~PonyClient();

  PonyClient(const PonyClient&) = delete;
  PonyClient& operator=(const PonyClient&) = delete;

  // --- Command submission (async; completion arrives later). Returns the
  // op id, or 0 if the command queue is full. ---
  uint64_t SendMessage(PonyAddress peer, uint64_t stream_id, int64_t bytes,
                       std::vector<uint8_t> data, CpuCostSink* cost);
  uint64_t Read(PonyAddress peer, uint64_t region_id, uint64_t offset,
                int64_t length, CpuCostSink* cost);
  uint64_t Write(PonyAddress peer, uint64_t region_id, uint64_t offset,
                 int64_t length, std::vector<uint8_t> data,
                 CpuCostSink* cost);
  uint64_t IndirectRead(PonyAddress peer, uint64_t table_region_id,
                        uint64_t first_index, uint16_t batch, int64_t length,
                        CpuCostSink* cost);
  uint64_t ScanAndRead(PonyAddress peer, uint64_t region_id,
                       uint64_t match_value, int64_t length,
                       CpuCostSink* cost);

  // --- Completion / receive queues ---
  std::optional<PonyCompletion> PollCompletion(CpuCostSink* cost);
  std::optional<PonyIncomingMessage> PollMessage(CpuCostSink* cost);

  // One-shot notification instead of spinning (edge-triggered).
  void ArmCompletionNotify(std::function<void()> cb, CpuCostSink* cost);
  void ArmMessageNotify(std::function<void()> cb, CpuCostSink* cost);

  // Live blocking-notify path (Section 3.1 "receive a thread notification
  // when a completion is written"): once bound (setup phase only), every
  // completion or message delivered into the app-visible rings rings the
  // doorbell, so an app thread can sleep in Doorbell::WaitFor instead of
  // spin-polling. Level-style: the bell latches until consumed, so a
  // delivery racing the poll loop is never lost. At most one app thread
  // may wait on it (the Doorbell contract).
  void BindDoorbell(Doorbell* doorbell) { doorbell_ = doorbell; }
  Doorbell* doorbell() const { return doorbell_; }

  // --- Memory registration (proxied through the control plane) ---
  uint64_t RegisterRegion(size_t bytes, bool allow_remote_write);
  MemoryRegion* region(uint64_t id);
  // Iterates registered regions (upgrade re-registration path).
  void ForEachRegion(
      const std::function<void(uint64_t, MemoryRegion*)>& fn) const {
    for (const auto& [id, region] : regions_) {
      fn(id, region.get());
    }
  }

  // Creates a message stream to `peer` (Section 3.3: streams avoid
  // head-of-line blocking between independent messages).
  uint64_t CreateStream(PonyAddress peer);

  uint64_t client_id() const { return client_id_; }
  const std::string& app_name() const { return app_name_; }
  PonyEngine* engine() { return engine_; }

  // --- QoS (src/qos/) ---
  // Binds this client to a tenant: every submitted command carries the
  // tenant id, and if the spec sets admission_rate_bytes_per_sec > 0 a
  // token bucket gates Submit so an aggressor is backpressured at the app
  // boundary (Submit returns 0, the same signal as a full command queue).
  void SetTenant(const qos::TenantSpec& spec);
  qos::TenantId tenant() const { return tenant_; }
  // Submissions rejected by the admission bucket (not queue-full).
  int64_t admission_throttled() const { return admission_throttled_; }

  // Upgrade support: shared memory (rings, regions) survives; only the
  // engine pointer is swapped (Section 4: "authenticated application
  // connections remain established").
  void Rebind(PonyEngine* engine) { engine_ = engine; }

  // Observes every message that reaches the application-visible ring
  // (invariant checkers, src/testing/invariants.h). Fires after the push
  // succeeds; never fires for messages the engine is still holding.
  void SetDeliveryObserver(
      std::function<void(const PonyIncomingMessage&)> observer) {
    delivery_observer_ = std::move(observer);
  }

  // --- Engine-side interface ---
  SpscRing<PonyCommand>& command_queue() { return commands_; }
  // Deliver into the app-visible rings. Return false WITHOUT consuming the
  // argument when the ring is full (receiver-driven flow control: the
  // engine holds the item and the sender's credits stay unreplenished).
  bool DeliverCompletion(PonyCompletion&& completion);
  bool DeliverMessage(PonyIncomingMessage&& message);
  // Oldest unserviced command's submit time (engine queueing-delay metric).
  SimTime OldestCommandTime() const;

 private:
  uint64_t Submit(PonyCommand cmd, CpuCostSink* cost);

  std::string app_name_;
  uint64_t client_id_;
  PonyEngine* engine_;
  AppParams params_;
  SpscRing<PonyCommand> commands_;
  SpscRing<PonyCompletion> completions_;
  SpscRing<PonyIncomingMessage> messages_;
  std::map<uint64_t, std::unique_ptr<MemoryRegion>> regions_;
  std::function<void()> completion_notify_;
  std::function<void()> message_notify_;
  Doorbell* doorbell_ = nullptr;
  std::function<void(const PonyIncomingMessage&)> delivery_observer_;
  uint64_t next_op_ = 1;
  uint64_t next_region_ = 1;
  uint64_t next_stream_ = 1;
  qos::TenantId tenant_ = qos::kDefaultTenant;
  qos::TokenBucket admission_;
  bool admission_limited_ = false;
  bool admission_blocked_ = false;  // tracing edge state
  int64_t admission_throttled_ = 0;
};

}  // namespace snap

#endif  // SRC_PONY_CLIENT_H_
