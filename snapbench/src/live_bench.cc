// The two live workloads: two LiveRuntime hosts over real UDP sockets on
// the loopback interface, driven through PonyClient directly.
//
//   pingpong_udp    closed loop, one op outstanding, one spin-polling app
//                   thread playing client and responder, dedicated engine
//                   workers (3 busy threads, leaving a core to the kernel).
//   mixed_open_udp  open loop on a seeded Poisson schedule, a spinning
//                   generator, a responder that sleeps on its doorbell,
//                   compacting engine scheduler with at most two workers.
//
// Both carry the same four op classes (64 B echo RPCs, 64 B one-sided
// Reads and Writes, 1 MB-response RPCs) in different proportions, and both
// verify every byte that comes back.
#include "snapbench/src/workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "snapbench/src/alloc_count.h"
#include "snapbench/src/measure.h"
#include "snapbench/src/ops.h"
#include "src/kernel/kstack.h"
#include "src/live/live_runtime.h"
#include "src/pony/flow.h"
#include "src/stats/trace.h"
#include "src/util/doorbell.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace snapbench {
namespace {

using snap::Doorbell;
using snap::LiveRuntime;
using snap::Packet;
using snap::PonyAddress;
using snap::PonyClient;
using snap::PonyPacketType;

// Server region: a read-only half of seeded 64 B slots, then a disjoint
// half that Writes land in.
constexpr int kSlots = 512;
constexpr size_t kRegionBytes = 2 * kSlots * kSmallBytes;
constexpr size_t kWriteBase = kSlots * kSmallBytes;

constexpr int kSetups = 21;
// The measurement window is cut into this many slices (see ReportEndToEnd).
constexpr int kSlices = 10;
constexpr int64_t kWarmupNs = 1'000'000'000;
// Open loop: how long after the last arrival outstanding ops may still
// complete before they count as timed out.
constexpr int64_t kDrainNs = 2'000'000'000;
// Closed loop: an op outstanding this long counts as timed out.
constexpr int64_t kOpTimeoutNs = 1'000'000'000;
// Traced window cap: tap buffers are preallocated for this long.
constexpr int64_t kMaxTracedNs = 3'000'000'000;
constexpr size_t kTapCapacity = 1 << 21;
constexpr size_t kTraceFileOps = 2000;
// Stated tolerance of the trace accounting check: the probe RPCs' median
// stage self times must sum to their median latency within this share.
constexpr double kStageSumTolerance = 0.15;

// A failed op's latency sample is at least its workload's timeout.
int64_t MissNs(bool open_loop) { return open_loop ? kDrainNs : kOpTimeoutNs; }

snap::CpuCostSink* Sink() {
  thread_local snap::CpuCostSink sink;
  return &sink;
}

struct Shape {
  bool open_loop = false;
  snap::SchedulingMode mode = snap::SchedulingMode::kDedicatedCores;
  int max_workers = 4;
};

Shape ShapeFor(const std::string& workload) {
  Shape s;
  if (workload == "mixed_open_udp") {
    s.open_loop = true;
    s.mode = snap::SchedulingMode::kCompactingEngines;
    s.max_workers = 2;
  }
  return s;
}

// Open-loop offered load per class: 10k/s probes, 10k/s one-sided ops
// (alternating Read/Write), 100/s 1 MB-response RPCs.
const std::vector<double> kOpenRates = {10000.0, 10000.0, 100.0};

// Closed-loop mix: every 2000th op is a bulk RPC, so 1 MB transfers are a
// fixed share of the run (they dominate its bytes); the others are drawn
// from the seed: 10% Reads, 10% Writes, 80% probes.
OpClass ClosedLoopClass(snap::Rng& rng, uint64_t seq) {
  if (seq % 2000 == 1999) {
    return kBulk;
  }
  uint64_t r = rng.NextBounded(10);
  return r == 0 ? kRead : (r == 1 ? kWrite : kProbe);
}

// 64 B request body: seq, class tag, seeded pattern.
void MakeRequest(uint64_t seed, uint64_t seq, OpClass cls, uint8_t* out) {
  FillPayload(seed, seq, out, kSmallBytes);
  out[8] = cls;
}

int ReadSlot(uint64_t seq) {
  return static_cast<int>((seq * 0x9e3779b97f4a7c15ULL) >> 55) % kSlots;
}

// One NIC observation. `type` is the PonyPacketType; `src` the host that
// sent the packet.
struct TapRec {
  uint64_t op_id;
  int64_t ts;
  uint32_t offset;
  uint8_t type;
  uint8_t src;
};

// Single-writer tap buffer for one host's NIC (the host's executor is the
// only thread that transmits or receives on it); read after Stop().
struct TapLog {
  std::vector<TapRec> tx, rx;
  int64_t overflow = 0;
  void Add(std::vector<TapRec>* v, const Packet& p, int64_t ts) {
    if (p.proto != snap::WireProtocol::kPony ||
        (p.pony.type != PonyPacketType::kData &&
         p.pony.type != PonyPacketType::kOpRequest &&
         p.pony.type != PonyPacketType::kOpResponse)) {
      return;
    }
    if (v->size() == v->capacity()) {
      ++overflow;
      return;
    }
    v->push_back(TapRec{p.pony.op_id, ts, p.pony.msg_offset,
                        static_cast<uint8_t>(p.pony.type),
                        static_cast<uint8_t>(p.src_host)});
  }
};

struct SrvRec {
  uint64_t seq = 0;
  int64_t stamp = 0;  // receive_time at the server engine
  int64_t poll = 0;   // responder's PollMessage returned it
  int64_t sub1 = 0;   // reply submit returned
  uint64_t reply_op = 0;
};

// One assembled pair of live hosts: client app on host 0, responder and
// region on host 1.
struct Rig {
  std::unique_ptr<LiveRuntime> runtime;
  std::unique_ptr<PonyClient> cli, srv;
  PonyAddress cli_addr, srv_addr;
  uint64_t probe_stream = 0, bulk_stream = 0;
  uint64_t probe_reply = 0, bulk_reply = 0;
  uint64_t region_id = 0;
  std::vector<uint16_t> ports;
  Doorbell srv_bell;
  TapLog taps[2];
  std::atomic<bool> tap_armed{false};
  int64_t started_ns = 0;
  int64_t stopped_ns = 0;

  LiveRuntime& rt() { return *runtime; }
};

std::unique_ptr<Rig> BuildRig(const Shape& shape, uint64_t seed,
                              bool traced) {
  auto rig = std::make_unique<Rig>();
  LiveRuntime::Options o;
  o.num_hosts = 2;
  o.fabric = LiveRuntime::FabricKind::kUdp;
  o.seed = seed;
  o.scheduler.mode = shape.mode;
  o.scheduler.max_workers = shape.max_workers;
  // Fixed ports so the run can find its own sockets in /proc/net/udp;
  // retried on a collision with another process.
  snap::Rng port_rng(seed * 31 + 17);
  for (int attempt = 0; attempt < 32; ++attempt) {
    o.udp.base_port = static_cast<uint16_t>(
        20000 + 2 * port_rng.NextBounded(15000));
    auto runtime = std::make_unique<LiveRuntime>(o);
    if (runtime->Init().ok()) {
      rig->runtime = std::move(runtime);
      break;
    }
  }
  SNAP_CHECK(rig->runtime != nullptr) << "no free UDP port pair";
  rig->ports = {o.udp.base_port,
                static_cast<uint16_t>(o.udp.base_port + 1)};
  LiveRuntime& rt = rig->rt();
  rig->cli = rt.host(0)->CreateClient("bench-client");
  rig->srv = rt.host(1)->CreateClient("bench-responder");
  rig->cli_addr = rt.host(0)->engine()->address();
  rig->srv_addr = rt.host(1)->engine()->address();
  // Separate streams per class pair: a 64 B probe never waits behind a
  // 1 MB response on the same stream.
  rig->probe_stream = rig->cli->CreateStream(rig->srv_addr);
  rig->bulk_stream = rig->cli->CreateStream(rig->srv_addr);
  rig->probe_reply = rig->srv->CreateStream(rig->cli_addr);
  rig->bulk_reply = rig->srv->CreateStream(rig->cli_addr);
  rig->region_id = rig->srv->RegisterRegion(kRegionBytes, true);
  std::vector<uint8_t> pattern = PatternBytes(seed, kWriteBase);
  std::memcpy(rig->srv->region(rig->region_id)->data.data(), pattern.data(),
              pattern.size());
  if (shape.open_loop) {
    rig->srv->BindDoorbell(&rig->srv_bell);
  }
  if (traced) {
    for (int h = 0; h < 2; ++h) {
      TapLog* log = &rig->taps[h];
      log->tx.reserve(kTapCapacity);
      log->rx.reserve(kTapCapacity);
      Rig* r = rig.get();
      snap::Nic* nic = rt.host(h)->nic();
      nic->SetTxTap([r, log](const Packet& p) {
        if (r->tap_armed.load(std::memory_order_relaxed)) {
          log->Add(&log->tx, p, r->runtime->NowNs());
        }
      });
      nic->SetRxTap([r, log](const Packet& p) {
        if (r->tap_armed.load(std::memory_order_relaxed)) {
          log->Add(&log->rx, p, r->runtime->NowNs());
        }
      });
    }
  }
  rt.Start();
  rig->started_ns = rt.NowNs();
  return rig;
}

// The responder: echoes probes verbatim, answers bulk requests with the
// seeded 1 MB body, on the reply stream of the request's class. The closed
// loop calls Serve() from its own spinning thread (with one op outstanding
// only one side ever has work); the open loop gives it a thread of its own
// that sleeps on the responder's doorbell.
class Responder {
 public:
  Responder(Rig* rig, bool record, uint64_t seed)
      : rig_(rig), record_(record),
        bulk_body_(PatternBytes(seed + 1, kBulkBytes)) {
    if (record_) {
      recs_.reserve(1 << 20);
    }
  }
  ~Responder() { Stop(); }
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  void StartThread() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        rig_->srv_bell.Consume();
        if (!Serve()) {
          rig_->srv_bell.WaitFor(1'000'000);
        }
      }
    });
  }
  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      rig_->srv_bell.Ring();
      thread_.join();
    }
  }

  // One pass over the responder's rings; returns whether anything arrived.
  bool Serve() {
    PonyClient* srv = rig_->srv.get();
    LiveRuntime& rt = rig_->rt();
    bool progress = false;
    while (auto msg = srv->PollMessage(Sink())) {
      progress = true;
      const int64_t polled = rt.NowNs();
      if (msg->data.size() != static_cast<size_t>(kSmallBytes)) {
        ++errors_;
        continue;
      }
      uint64_t seq = 0;
      std::memcpy(&seq, msg->data.data(), 8);
      const bool bulk = msg->data[8] == kBulk;
      std::vector<uint8_t> reply;
      if (bulk) {
        reply = bulk_body_;
        std::memcpy(reply.data(), &seq, 8);
      } else {
        reply = std::move(msg->data);
      }
      const int64_t len = static_cast<int64_t>(reply.size());
      const uint64_t stream = bulk ? rig_->bulk_reply : rig_->probe_reply;
      uint64_t op = 0;
      while ((op = srv->SendMessage(rig_->cli_addr, stream, len, reply,
                                    Sink())) == 0) {
        DrainCompletions();  // command ring full: let sends complete
      }
      if (record_ && recs_.size() < recs_.capacity()) {
        recs_.push_back(
            SrvRec{seq, msg->receive_time, polled, rt.NowNs(), op});
      }
    }
    return DrainCompletions() || progress;
  }

  // Valid after Stop().
  const std::vector<SrvRec>& recs() const { return recs_; }
  int64_t errors() const { return errors_; }

 private:
  bool DrainCompletions() {
    bool any = false;
    while (auto c = rig_->srv->PollCompletion(Sink())) {
      any = true;
      if (c->status != snap::PonyOpStatus::kOk) {
        ++errors_;
      }
    }
    return any;
  }

  Rig* rig_;
  bool record_;
  std::vector<uint8_t> bulk_body_;
  std::vector<SrvRec> recs_;
  int64_t errors_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// The client side: submits ops, polls results, checks returned bytes.
class Client {
 public:
  Client(Rig* rig, uint64_t seed)
      : rig_(rig), seed_(seed), pattern_(PatternBytes(seed, kWriteBase)),
        bulk_body_(PatternBytes(seed + 1, kBulkBytes)) {}

  std::vector<OpRec>& ops() { return ops_; }
  const std::vector<OpRec>& ops() const { return ops_; }
  int64_t in_flight() const { return in_flight_; }
  int64_t submits = 0, refused = 0, polls = 0, empty_polls = 0;
  int64_t mismatches = 0;

  // Submits op `seq` (which must be ops().size()).
  void Submit(OpClass cls, int64_t due, bool window) {
    LiveRuntime& rt = rig_->rt();
    PonyClient* cli = rig_->cli.get();
    uint64_t seq = ops_.size();
    ops_.emplace_back();
    OpRec& rec = ops_.back();
    rec.cls = cls;
    rec.window = window;
    rec.due = due;
    uint8_t body[kSmallBytes];
    std::vector<uint8_t> data;
    if (cls != kRead) {
      MakeRequest(seed_, seq, cls, body);
      data.assign(body, body + kSmallBytes);
    }
    rec.sub0 = rt.NowNs();
    uint64_t id = 0;
    switch (cls) {
      case kProbe:
        id = cli->SendMessage(rig_->srv_addr, rig_->probe_stream,
                              kSmallBytes, std::move(data), Sink());
        break;
      case kBulk:
        id = cli->SendMessage(rig_->srv_addr, rig_->bulk_stream, kSmallBytes,
                              std::move(data), Sink());
        break;
      case kRead:
        id = cli->Read(rig_->srv_addr, rig_->region_id,
                       static_cast<uint64_t>(ReadSlot(seq)) * kSmallBytes,
                       kSmallBytes, Sink());
        break;
      case kWrite:
        id = cli->Write(rig_->srv_addr, rig_->region_id,
                        kWriteBase + (seq % kSlots) * kSmallBytes,
                        kSmallBytes, std::move(data), Sink());
        break;
    }
    rec.sub1 = rt.NowNs();
    ++submits;
    if (id == 0) {
      ++refused;
      rec.finished = true;  // refused: failed, never in flight
      rec.done = rec.sub1;
      return;
    }
    rec.op_id = id;
    by_op_[id] = static_cast<uint32_t>(seq);
    ++in_flight_;
  }

  // Closed loop: the responder is served from the client's own thread.
  void ServeInline(Responder* responder) { inline_responder_ = responder; }

  // One poll of both rings; returns how many results arrived.
  int Poll() {
    if (inline_responder_ != nullptr) {
      inline_responder_->Serve();
    }
    LiveRuntime& rt = rig_->rt();
    PonyClient* cli = rig_->cli.get();
    int got = 0;
    while (true) {
      auto c = cli->PollCompletion(Sink());
      ++polls;
      if (!c.has_value()) {
        ++empty_polls;
        break;
      }
      ++got;
      auto it = by_op_.find(c->op_id);
      if (it == by_op_.end()) {
        continue;  // completion of an op already failed by timeout
      }
      uint32_t seq = it->second;
      OpRec& rec = ops_[seq];
      bool ok = c->status == snap::PonyOpStatus::kOk;
      if (rec.cls == kRead || rec.cls == kWrite) {
        by_op_.erase(it);
        if (ok && rec.cls == kRead) {
          size_t off = static_cast<size_t>(ReadSlot(seq)) * kSmallBytes;
          ok = c->data.size() == static_cast<size_t>(kSmallBytes) &&
               std::memcmp(c->data.data(), pattern_.data() + off,
                           kSmallBytes) == 0;
          mismatches += ok ? 0 : 1;
        }
        Finish(&rec, ok, c->complete_time, rt.NowNs());
      } else {
        // Send completion of an RPC request; the reply finishes the op.
        by_op_.erase(it);
        if (!ok) {
          Finish(&rec, false, c->complete_time, rt.NowNs());
        }
      }
    }
    while (true) {
      auto m = cli->PollMessage(Sink());
      ++polls;
      if (!m.has_value()) {
        ++empty_polls;
        break;
      }
      ++got;
      uint64_t seq = 0;
      if (m->data.size() >= 8) {
        std::memcpy(&seq, m->data.data(), 8);
      }
      if (m->data.size() < 8 || seq >= ops_.size()) {
        ++mismatches;
        continue;
      }
      OpRec& rec = ops_[seq];
      bool ok = false;
      if (rec.cls == kProbe) {
        uint8_t body[kSmallBytes];
        MakeRequest(seed_, seq, kProbe, body);
        ok = m->data.size() == static_cast<size_t>(kSmallBytes) &&
             std::memcmp(m->data.data(), body, kSmallBytes) == 0;
      } else if (rec.cls == kBulk) {
        ok = m->data.size() == static_cast<size_t>(kBulkBytes) &&
             std::memcmp(m->data.data() + 8, bulk_body_.data() + 8,
                         kBulkBytes - 8) == 0;
      }
      mismatches += ok ? 0 : 1;
      if (!rec.finished) {
        Finish(&rec, ok, m->receive_time, rt.NowNs());
      }
    }
    return got;
  }

  // Gives up on every op still outstanding (timeout).
  void FailOutstanding(int64_t now) {
    for (OpRec& rec : ops_) {
      if (!rec.finished) {
        rec.finished = true;
        rec.ok = false;
        rec.done = now;
        --in_flight_;
      }
    }
    by_op_.clear();
  }

 private:
  void Finish(OpRec* rec, bool ok, int64_t stamp, int64_t now) {
    if (rec->finished) {
      return;
    }
    rec->finished = true;
    rec->ok = ok;
    rec->stamp = stamp;
    rec->done = now;
    --in_flight_;
  }

  Rig* rig_;
  uint64_t seed_;
  std::vector<uint8_t> pattern_;
  std::vector<uint8_t> bulk_body_;
  std::vector<OpRec> ops_;
  std::unordered_map<uint64_t, uint32_t> by_op_;
  int64_t in_flight_ = 0;
  Responder* inline_responder_ = nullptr;
};

// Stats read from one rig after Stop().
struct RigCounters {
  int64_t engine_tx = 0, nic_tx = 0, ring_drops = 0;
  int64_t op_errors = 0, crc_drops = 0, corrupt_accepted = 0;
  int64_t retransmits = 0, spurious = 0, data_sent = 0;
  int64_t loops = 0, work = 0, timer_fires = 0, wakes = 0, busy_ns = 0;
  int64_t worker_parks = 0, worker_park_ns = 0, workers = 0;
  int64_t migrations = 0;
  int64_t fabric_delivered = 0, fabric_dropped = 0;
};

RigCounters ReadCounters(Rig* rig) {
  RigCounters c;
  LiveRuntime& rt = rig->rt();
  for (int h = 0; h < 2; ++h) {
    snap::LiveHost* host = rt.host(h);
    const auto& es = host->engine()->stats();
    c.engine_tx += es.tx_packets;
    c.op_errors += es.op_errors;
    c.crc_drops += es.crc_drops;
    c.corrupt_accepted += es.corrupt_accepted;
    host->engine()->ForEachFlow([&c](const snap::Flow& f) {
      c.retransmits += f.stats().retransmits;
      c.spurious += f.stats().spurious_retransmits;
      c.data_sent += f.stats().data_packets_sent;
    });
    c.nic_tx += host->nic()->stats().tx_packets;
    for (int q = 0; q < host->nic()->num_queues(); ++q) {
      c.ring_drops += host->nic()->queue(q)->stats().dropped_ring_full;
    }
    auto xs = host->executor()->GetStats();
    c.loops += xs.loop_iterations;
    c.work += xs.work_items;
    c.timer_fires += xs.timer_fires;
    c.wakes += xs.wakes;
    c.busy_ns += xs.busy_ns;
  }
  snap::LiveScheduler* sched = rt.scheduler();
  c.workers = sched->num_workers();
  for (int w = 0; w < sched->num_workers(); ++w) {
    auto ws = sched->GetWorkerStats(w);
    c.worker_parks += ws.parks;
    c.worker_park_ns += ws.park_ns;
  }
  c.migrations = sched->migrations();
  auto fs = rt.GetFabricStats();
  c.fabric_delivered = fs.delivered;
  c.fabric_dropped = fs.dropped;
  return c;
}

// Runs `rig` for one setup probe op (closed loop) and returns when done.
bool FirstOp(Rig* rig, Client* client) {
  client->Submit(kProbe, rig->rt().NowNs(), false);
  int64_t deadline = rig->rt().NowNs() + 10'000'000'000;
  while (!client->ops().back().finished) {
    client->Poll();
    if (rig->rt().NowNs() > deadline) {
      return false;
    }
  }
  return client->ops().back().ok;
}

struct PhaseResult {
  int64_t window_start = 0;
  int64_t window_end = 0;  // window_start + the window's length
  // Slice boundaries of the window (kSlices + 1 of them once it ends) and
  // the serving CPU seconds read at each.
  std::vector<int64_t> mark_ns;
  std::vector<double> mark_cpu;
  // Peak RSS when the window opens: set-up and warm-up are done, and the
  // benchmark's own per-op records have not yet grown with the window.
  double rss_mb = 0;
  // Operator-new count when the window opens and when its last slice ends.
  int64_t allocs_open = 0;
  int64_t allocs_close = 0;
  int64_t backlog_start = 0;
  int64_t backlog_end = 0;
  int64_t kernel_drops = 0;
};

// CPU seconds of the process minus those of the calling thread (the load
// generator): the cost of serving the load, not of generating it.
double ServingCpuSeconds() { return ProcessCpuSeconds() - ThreadCpuSeconds(); }

// Opens the window at `start`; Mark() then closes each of its kSlices
// slices as the clock passes their ends.
void OpenWindow(PhaseResult* out, int64_t start, int64_t window_ns) {
  out->window_start = start;
  out->window_end = start + window_ns;
  out->mark_ns = {start};
  out->mark_cpu = {ServingCpuSeconds()};
  out->rss_mb = PeakRssMb();
  out->allocs_open = AllocCount();
}

void Mark(PhaseResult* out, int64_t now) {
  const int64_t len = out->window_end - out->window_start;
  const size_t done = out->mark_ns.size() - 1;
  if (done < static_cast<size_t>(kSlices) &&
      now >= out->window_start +
                 len * static_cast<int64_t>(done + 1) / kSlices) {
    out->mark_ns.push_back(now);
    out->mark_cpu.push_back(ServingCpuSeconds());
    out->allocs_close = AllocCount();
  }
}

void RunClosedLoop(Rig* rig, Client* client, uint64_t seed,
                   int64_t window_ns, PhaseResult* out) {
  LiveRuntime& rt = rig->rt();
  snap::Rng rng(seed * 1000003 + 5);
  auto run_until = [&](int64_t end, bool window) {
    while (rt.NowNs() < end) {
      client->Submit(ClosedLoopClass(rng, client->ops().size()), rt.NowNs(),
                     window);
      const OpRec& rec = client->ops().back();
      while (!rec.finished) {
        client->Poll();
        if (rt.NowNs() - rec.sub0 > kOpTimeoutNs) {
          client->FailOutstanding(rt.NowNs());
        }
      }
      if (window) {
        Mark(out, rt.NowNs());
      }
    }
  };
  run_until(rt.NowNs() + kWarmupNs, false);
  out->kernel_drops = KernelUdpDrops(rig->ports);
  rig->tap_armed.store(true, std::memory_order_relaxed);
  OpenWindow(out, rt.NowNs(), window_ns);
  run_until(out->window_end, true);
  // The last op may end past the window; the last slice ends with it.
  while (out->mark_ns.size() < kSlices + 1u) {
    Mark(out, std::max(rt.NowNs(), out->window_end));
  }
  rig->tap_armed.store(false, std::memory_order_relaxed);
}

// The generator spins on the clock so ops leave on time; latency is timed
// from each op's due time, so any lateness still counts against the op.
void RunOpenLoop(Rig* rig, Client* client, uint64_t seed, int64_t window_ns,
                 PhaseResult* out) {
  LiveRuntime& rt = rig->rt();
  const std::vector<Arrival> schedule =
      PoissonSchedule(seed, kOpenRates, kWarmupNs + window_ns);
  client->ops().reserve(client->ops().size() + schedule.size());
  const int64_t t0 = rt.NowNs();
  const int64_t window_start = t0 + kWarmupNs;
  int64_t onesided = 0;
  bool in_window = false;
  size_t next = 0;
  while (next < schedule.size()) {
    const int64_t now = rt.NowNs();
    if (!in_window && now >= window_start) {
      in_window = true;
      out->backlog_start = client->in_flight();
      out->kernel_drops = KernelUdpDrops(rig->ports);
      rig->tap_armed.store(true, std::memory_order_relaxed);
      OpenWindow(out, window_start, window_ns);
    }
    if (in_window) {
      Mark(out, now);
    }
    while (next < schedule.size() && t0 + schedule[next].due_ns <= now) {
      const Arrival& a = schedule[next++];
      OpClass cls = a.cls == 0   ? kProbe
                    : a.cls == 2 ? kBulk
                                 : (onesided++ % 2 == 0 ? kRead : kWrite);
      const int64_t due = t0 + a.due_ns;
      client->Submit(cls, due, due >= window_start);
    }
    client->Poll();
  }
  while (out->mark_ns.size() < kSlices + 1u) {
    Mark(out, std::max(rt.NowNs(), out->window_end));
  }
  out->backlog_end = client->in_flight();
  const int64_t drain_deadline = out->window_end + kDrainNs;
  while (client->in_flight() > 0 && rt.NowNs() < drain_deadline) {
    client->Poll();
  }
  rig->tap_armed.store(false, std::memory_order_relaxed);
  client->FailOutstanding(rt.NowNs());
}

// Checks the Write half of the region after Stop(): every written slot
// holds the full payload of a Write that targeted it, and the read-only
// half is untouched.
void CheckRegion(Rig* rig, uint64_t seed, Report* report) {
  const auto& data = rig->srv->region(rig->region_id)->data;
  std::vector<uint8_t> pattern = PatternBytes(seed, kWriteBase);
  if (std::memcmp(data.data(), pattern.data(), kWriteBase) != 0) {
    report->CheckFailed("read-only region slice was modified");
  }
  uint8_t zero[kSmallBytes] = {};
  for (int slot = 0; slot < kSlots; ++slot) {
    const uint8_t* p = data.data() + kWriteBase + slot * kSmallBytes;
    if (std::memcmp(p, zero, kSmallBytes) == 0) {
      continue;
    }
    uint64_t seq = 0;
    std::memcpy(&seq, p, 8);
    uint8_t want[kSmallBytes];
    MakeRequest(seed, seq, kWrite, want);
    if (seq % kSlots != static_cast<uint64_t>(slot) ||
        std::memcmp(p, want, kSmallBytes) != 0) {
      report->CheckFailed("write slot " + std::to_string(slot) +
                          " holds bytes no Write sent there");
      return;
    }
  }
}

void CheckCounters(const RigCounters& c, const char* which,
                   Report* report) {
  if (c.op_errors != 0 || c.crc_drops != 0 || c.corrupt_accepted != 0) {
    report->CheckFailed(std::string(which) + ": op_errors " +
                        std::to_string(c.op_errors) + ", crc_drops " +
                        std::to_string(c.crc_drops) + ", corrupt_accepted " +
                        std::to_string(c.corrupt_accepted));
  }
}

// Per-op stage spans of a traced rig, built from client records, server
// records and the NIC taps. Boundaries are clamped to be monotone, so an
// op's stages partition its latency exactly.
struct StageSamples {
  std::map<std::string, std::vector<double>> us;  // stage -> samples
  std::vector<double> probe_total_us;
  std::map<std::string, std::vector<double>> probe_stage_us;
  int64_t complete = 0, incomplete = 0;
};

uint64_t TapKey(uint64_t op_id, uint8_t type, uint8_t src) {
  return (op_id << 4) | (static_cast<uint64_t>(type) << 1) | src;
}

StageSamples BuildStages(Rig* rig, const std::vector<OpRec>& ops,
                         const std::vector<SrvRec>& srv, bool open_loop,
                         const std::string& trace_path) {
  // First TX per (op, type, src) of the fragment at offset 0.
  std::unordered_map<uint64_t, int64_t> first_tx;
  for (int h = 0; h < 2; ++h) {
    for (const TapRec& t : rig->taps[h].tx) {
      if (t.offset != 0) {
        continue;
      }
      uint64_t k = TapKey(t.op_id, t.type, t.src);
      auto [it, inserted] = first_tx.emplace(k, t.ts);
      if (!inserted) {
        it->second = std::min(it->second, t.ts);
      }
    }
  }
  // Message complete at the receiver: the latest first arrival over the
  // message's fragment offsets (duplicates ignored).
  std::unordered_map<uint64_t, int64_t> complete_rx;
  for (int h = 0; h < 2; ++h) {
    std::vector<TapRec> rx = rig->taps[h].rx;
    std::sort(rx.begin(), rx.end(), [](const TapRec& a, const TapRec& b) {
      if (a.op_id != b.op_id) return a.op_id < b.op_id;
      if (a.src != b.src) return a.src < b.src;
      if (a.type != b.type) return a.type < b.type;
      if (a.offset != b.offset) return a.offset < b.offset;
      return a.ts < b.ts;
    });
    for (size_t i = 0; i < rx.size(); ++i) {
      if (i > 0 && rx[i].op_id == rx[i - 1].op_id &&
          rx[i].src == rx[i - 1].src && rx[i].type == rx[i - 1].type &&
          rx[i].offset == rx[i - 1].offset) {
        continue;  // duplicate of a fragment already seen
      }
      uint64_t k = TapKey(rx[i].op_id, rx[i].type, rx[i].src);
      auto [it, inserted] = complete_rx.emplace(k, rx[i].ts);
      if (!inserted) {
        it->second = std::max(it->second, rx[i].ts);
      }
    }
  }
  std::unordered_map<uint64_t, const SrvRec*> by_seq;
  for (const SrvRec& s : srv) {
    by_seq[s.seq] = &s;
  }
  auto lookup = [](const std::unordered_map<uint64_t, int64_t>& m,
                   uint64_t k) -> int64_t {
    auto it = m.find(k);
    return it == m.end() ? -1 : it->second;
  };
  const auto kData = static_cast<uint8_t>(PonyPacketType::kData);
  const auto kReq = static_cast<uint8_t>(PonyPacketType::kOpRequest);
  const auto kResp = static_cast<uint8_t>(PonyPacketType::kOpResponse);

  StageSamples out;
  snap::TraceRecorder recorder;
  size_t written = 0;
  for (uint64_t seq = 0; seq < ops.size(); ++seq) {
    const OpRec& r = ops[seq];
    if (!r.window || !r.ok) {
      continue;
    }
    // (stage name, raw boundary at the stage's end)
    std::vector<std::pair<const char*, int64_t>> stages;
    stages.emplace_back("gen.wait", r.sub0);
    stages.emplace_back("pony.client.submit", r.sub1);
    if (r.cls == kProbe || r.cls == kBulk) {
      auto sit = by_seq.find(seq);
      if (sit == by_seq.end()) {
        ++out.incomplete;
        continue;
      }
      const SrvRec& s = *sit->second;
      stages.emplace_back("pony.engine.tx",
                          lookup(first_tx, TapKey(r.op_id, kData, 0)));
      stages.emplace_back("net.nic.tx_to_rx",
                          lookup(complete_rx, TapKey(r.op_id, kData, 0)));
      stages.emplace_back("pony.engine.rx", s.stamp);
      stages.emplace_back("pony.engine.notify", s.poll);
      stages.emplace_back("gen.responder", s.sub1);
      stages.emplace_back("pony.engine.tx",
                          lookup(first_tx, TapKey(s.reply_op, kData, 1)));
      stages.emplace_back("net.nic.tx_to_rx",
                          lookup(complete_rx, TapKey(s.reply_op, kData, 1)));
    } else {
      stages.emplace_back("pony.engine.tx",
                          lookup(first_tx, TapKey(r.op_id, kReq, 0)));
      stages.emplace_back("net.nic.tx_to_rx",
                          lookup(complete_rx, TapKey(r.op_id, kReq, 0)));
      stages.emplace_back("pony.engine.remote",
                          lookup(first_tx, TapKey(r.op_id, kResp, 1)));
      stages.emplace_back("net.nic.tx_to_rx",
                          lookup(complete_rx, TapKey(r.op_id, kResp, 1)));
    }
    stages.emplace_back("pony.engine.rx", r.stamp);
    stages.emplace_back("pony.engine.notify", r.done);
    bool missing = false;
    for (const auto& st : stages) {
      missing |= st.second < 0;
    }
    if (missing) {
      ++out.incomplete;
      continue;
    }
    ++out.complete;
    int64_t root_start = open_loop ? r.due : r.sub0;
    std::vector<Span> spans;
    spans.push_back(Span{"op", -1, root_start, r.done});
    int64_t cursor = root_start;
    for (const auto& [name, raw] : stages) {
      int64_t end = std::clamp(raw, cursor, r.done);
      spans.push_back(Span{name, 0, cursor, end});
      cursor = end;
    }
    std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 1; i < spans.size(); ++i) {
      double us = static_cast<double>(self[i]) / 1e3;
      out.us[spans[i].name].push_back(us);
      if (r.cls == kProbe) {
        out.probe_stage_us[spans[i].name + "#" + std::to_string(i)]
            .push_back(us);
      }
    }
    if (r.cls == kProbe) {
      out.probe_total_us.push_back(
          static_cast<double>(r.done - root_start) / 1e3);
    }
    if (written < kTraceFileOps) {
      ++written;
      std::string args = snap::TraceArgInt("seq", static_cast<int64_t>(seq));
      for (size_t i = 0; i < spans.size(); ++i) {
        recorder.Complete(spans[i].start, spans[i].end - spans[i].start,
                          1 + r.cls, spans[i].name, "op", args);
      }
    }
  }
  if (!trace_path.empty()) {
    recorder.WriteJson(trace_path);
  }
  return out;
}

void StartResponder(const Shape& shape, Responder* responder,
                    Client* client) {
  if (shape.open_loop) {
    responder->StartThread();
  } else {
    client->ServeInline(responder);
  }
}

// One measured rig: set up, warmed up, run for a window, stopped, checked.
// Members are declared so the rig outlives the client and responder.
struct Measured {
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Responder> responder;
  std::unique_ptr<Client> client;
  Latencies lat;
  PhaseResult phase;
  RigCounters counters;
};

Measured Measure(const Shape& shape, const RunArgs& args, bool traced,
                 int64_t window_ns, Report* report) {
  Measured m;
  m.rig = BuildRig(shape, args.seed, traced);
  m.responder = std::make_unique<Responder>(m.rig.get(), traced, args.seed);
  m.client = std::make_unique<Client>(m.rig.get(), args.seed);
  StartResponder(shape, m.responder.get(), m.client.get());
  m.client->ops().reserve(static_cast<size_t>(
      static_cast<double>(window_ns + kWarmupNs) / 1e9 * 200000));
  if (!FirstOp(m.rig.get(), m.client.get())) {
    report->CheckFailed("first op failed");
  }
  SetAllocCounting(traced);
  if (shape.open_loop) {
    RunOpenLoop(m.rig.get(), m.client.get(), args.seed, window_ns, &m.phase);
  } else {
    RunClosedLoop(m.rig.get(), m.client.get(), args.seed, window_ns,
                  &m.phase);
  }
  SetAllocCounting(false);
  const int64_t drops_end = KernelUdpDrops(m.rig->ports);
  m.phase.kernel_drops = m.phase.kernel_drops < 0 || drops_end < 0
                             ? -1
                             : drops_end - m.phase.kernel_drops;
  m.responder->Stop();
  m.rig->rt().Stop();
  m.rig->stopped_ns = m.rig->rt().NowNs();
  m.counters = ReadCounters(m.rig.get());
  CheckCounters(m.counters, traced ? "traced rig" : "rig", report);
  CheckRegion(m.rig.get(), args.seed, report);
  if (m.client->mismatches > 0) {
    report->CheckFailed(std::to_string(m.client->mismatches) +
                        " results returned wrong bytes");
  }
  if (m.responder->errors() > 0) {
    report->CheckFailed(std::to_string(m.responder->errors()) +
                        " responder-side errors");
  }
  m.lat = Summarize(m.client->ops(), shape.open_loop,
                    MissNs(shape.open_loop), INT64_MIN, INT64_MAX);
  return m;
}

double Pct(std::vector<double> v, double p) {
  return TailPercentile(v, p).value;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) { return Pct(std::move(v), 50); }

// Latencies, rates and CPU are taken per slice of the window and reported
// as the median over slices, so a burst of machine noise moves one slice,
// not the result. 1 MB ops are too few per slice and are pooled.
void ReportEndToEnd(const Measured& m, bool open_loop, Report* report) {
  const PhaseResult& ph = m.phase;
  std::vector<double> rtt50, rtt99, one50, one99, rate, goodput, cpu;
  for (size_t i = 0; i + 1 < ph.mark_ns.size(); ++i) {
    Latencies l = Summarize(m.client->ops(), open_loop, MissNs(open_loop),
                            ph.mark_ns[i], ph.mark_ns[i + 1]);
    const double secs =
        static_cast<double>(ph.mark_ns[i + 1] - ph.mark_ns[i]) / 1e9;
    rtt50.push_back(Pct(l.rtt_us, 50));
    rtt99.push_back(Pct(l.rtt_us, 99));
    one50.push_back(Pct(l.onesided_us, 50));
    one99.push_back(Pct(l.onesided_us, 99));
    rate.push_back(static_cast<double>(l.ok_ops) / secs);
    goodput.push_back(l.payload_bytes * 8 / secs / 1e9);
    cpu.push_back((ph.mark_cpu[i + 1] - ph.mark_cpu[i]) / secs);
  }
  const Latencies& lat = m.lat;
  report->Set("rtt_p50_us", Median(rtt50));
  report->Set("rtt_p99_us", Median(rtt99));
  report->Set("onesided_p50_us", Median(one50));
  report->Set("onesided_p99_us", Median(one99));
  report->Set("bulk_p50_ms", Pct(lat.bulk_ms, 50));
  report->Set("bulk_p99_ms", Pct(lat.bulk_ms, 99));
  report->Set("rpc_per_s", Median(rate));
  report->Set("goodput_gbps", Median(goodput));
  report->Set("cpu_cores", Median(cpu));
  report->Set("peak_rss_mb", ph.rss_mb);
  std::vector<double> rtt = lat.rtt_us, bulk = lat.bulk_ms;
  Percentile r = TailPercentile(rtt, 99), b = TailPercentile(bulk, 99);
  report->Note(std::to_string(rate.size()) + " slices; window rtt samples " +
               std::to_string(r.samples) + ", bulk samples " +
               std::to_string(b.samples) + " (bulk tail is p" +
               std::to_string(b.percentile) + ")");
  report->Set("gen.lateness_p99_us", Pct(lat.lateness_us, 99));
  report->Set("gen.backlog_growth",
              static_cast<double>(ph.backlog_end - ph.backlog_start));
  report->attempted = lat.account.attempted;
  report->failed = lat.account.failed;
}

void ReportPerLayer(const Measured& m, const StageSamples& st,
                    double plain_rtt_p50, Report* report) {
  auto stage = [&](const char* name, double p) {
    auto it = st.us.find(name);
    return it == st.us.end() ? 0.0 : Pct(it->second, p);
  };
  const Client& cl = *m.client;
  std::vector<double> submit_ns;
  int64_t ops_done = 0;
  for (const OpRec& r : cl.ops()) {
    ops_done += r.ok ? 1 : 0;
    if (r.window && r.ok) {
      submit_ns.push_back(static_cast<double>(r.sub1 - r.sub0));
    }
  }
  const double done = static_cast<double>(ops_done);
  const RigCounters& c = m.counters;
  const double rig_ns =
      static_cast<double>(m.rig->stopped_ns - m.rig->started_ns);
  const double drops = static_cast<double>(m.phase.kernel_drops);
  report->Set("pony.client.submit_ns_p50", Pct(submit_ns, 50));
  report->Set("pony.client.refused_frac",
              Ratio(static_cast<double>(cl.refused),
                    static_cast<double>(cl.submits)));
  report->Set("pony.client.empty_poll_frac",
              Ratio(static_cast<double>(cl.empty_polls),
                    static_cast<double>(cl.polls)));
  report->Set("pony.engine.tx_us_p50", stage("pony.engine.tx", 50));
  report->Set("pony.engine.tx_us_p99", stage("pony.engine.tx", 99));
  report->Set("pony.engine.rx_us_p50", stage("pony.engine.rx", 50));
  report->Set("pony.engine.rx_us_p99", stage("pony.engine.rx", 99));
  report->Set("pony.engine.notify_us_p50", stage("pony.engine.notify", 50));
  report->Set("pony.engine.notify_us_p99", stage("pony.engine.notify", 99));
  report->Set("pony.engine.remote_us_p50", stage("pony.engine.remote", 50));
  report->Set("net.nic.tx_to_rx_us_p50", stage("net.nic.tx_to_rx", 50));
  report->Set("net.nic.tx_to_rx_us_p99", stage("net.nic.tx_to_rx", 99));
  report->Set("gen.responder_us_p50", stage("gen.responder", 50));
  report->Set("pony.engine.pkts_per_op",
              Ratio(static_cast<double>(c.engine_tx), done));
  report->Set("pony.flow.retransmits", static_cast<double>(c.retransmits));
  report->Set("pony.flow.retx_per_kpkt",
              Ratio(1000.0 * static_cast<double>(c.retransmits),
                    static_cast<double>(c.data_sent)));
  report->Set("pony.flow.spurious_retx_per_kpkt",
              Ratio(1000.0 * static_cast<double>(c.spurious),
                    static_cast<double>(c.data_sent)));
  report->Set("net.nic.ring_drops", static_cast<double>(c.ring_drops));
  report->Set("live.fabric.datagrams_per_pass",
              Ratio(static_cast<double>(c.fabric_delivered),
                    static_cast<double>(c.loops)));
  report->Set("live.fabric.fabric_drops",
              static_cast<double>(c.fabric_dropped));
  report->Set("live.fabric.kernel_drops", drops);
  report->Set("live.fabric.sock_drops_per_kpkt",
              Ratio(1000.0 * drops, static_cast<double>(c.fabric_delivered)));
  report->Set("live.executor.timer_fires_per_pkt",
              Ratio(static_cast<double>(c.timer_fires),
                    static_cast<double>(c.nic_tx)));
  report->Set("live.executor.busy_frac",
              Ratio(static_cast<double>(c.busy_ns), 2 * rig_ns));
  report->Set("live.executor.work_per_pass",
              Ratio(static_cast<double>(c.work),
                    static_cast<double>(c.loops)));
  report->Set("live.executor.wakes_per_op",
              Ratio(static_cast<double>(c.wakes), done));
  report->Set("live.executor.parks_per_op",
              Ratio(static_cast<double>(c.worker_parks), done));
  report->Set("live.scheduler.park_frac",
              Ratio(static_cast<double>(c.worker_park_ns),
                    static_cast<double>(c.workers) * rig_ns));
  report->Set("live.scheduler.migrations", static_cast<double>(c.migrations));
  report->Set("packet.allocs_per_op",
              Ratio(static_cast<double>(m.phase.allocs_close -
                                        m.phase.allocs_open),
                    static_cast<double>(m.lat.ok_ops)));
  report->Set("trace.overhead_frac",
              Ratio(Pct(m.lat.rtt_us, 50), plain_rtt_p50) - 1);
  // Accounting check: the per-stage median self times of the probe RPCs
  // should add up to their median latency.
  double stage_sum = 0;
  for (const auto& [name, v] : st.probe_stage_us) {
    stage_sum += Pct(v, 50);
  }
  const double frac = Ratio(stage_sum, Pct(st.probe_total_us, 50));
  report->Set("trace.stage_sum_frac", frac);
  report->Note("traced ops with every stage: " + std::to_string(st.complete) +
               ", without: " + std::to_string(st.incomplete) +
               "; tap records lost to full buffers: " +
               std::to_string(m.rig->taps[0].overflow +
                              m.rig->taps[1].overflow));
  report->Note("probe stage medians sum to " + std::to_string(frac) +
               " of the probe median latency (tolerance " +
               std::to_string(1 - kStageSumTolerance) + ".." +
               std::to_string(1 + kStageSumTolerance) + "): " +
               (std::abs(frac - 1) <= kStageSumTolerance ? "PASS"
                                                         : "OUTSIDE"));
}

}  // namespace

void RunLive(const RunArgs& args, Report* report) {
  const Shape shape = ShapeFor(args.workload);
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);

  // Set-up time: runtime construction to the first completed op, taken
  // several times; the first sample is the process's cold start.
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    const uint64_t seed = args.seed + 1000 + static_cast<uint64_t>(i);
    int64_t t0 = snap::MonotonicTimeNs();
    auto rig = BuildRig(shape, seed, false);
    Responder responder(rig.get(), false, seed);
    Client client(rig.get(), seed);
    StartResponder(shape, &responder, &client);
    bool ok = FirstOp(rig.get(), &client);
    setups.push_back(static_cast<double>(snap::MonotonicTimeNs() - t0) /
                     1e9);
    if (!ok) {
      report->CheckFailed("set-up probe op failed");
    }
    responder.Stop();
    rig->rt().Stop();
  }
  std::string samples = "setup_s samples, cold first:";
  for (double v : setups) {
    samples += ' ';
    samples += std::to_string(v);
  }
  report->Note(samples);
  report->Set("setup_s", Median(setups));

  // End-to-end numbers come from an untraced rig. A traced run measures
  // half its window untraced (for the overhead) and half traced.
  const int64_t plain_window = args.trace ? window_ns / 2 : window_ns;
  double plain_rtt_p50 = 0;
  {
    Measured plain = Measure(shape, args, false, plain_window, report);
    ReportEndToEnd(plain, shape.open_loop, report);
    plain_rtt_p50 = report->Get("rtt_p50_us");
  }
  if (args.trace) {
    Measured traced =
        Measure(shape, args, true, std::min(window_ns / 2, kMaxTracedNs),
                report);
    std::string path;
    if (!args.trace_dir.empty()) {
      path = args.trace_dir + "/" + args.workload + "-seed" +
             std::to_string(args.seed) + ".json";
      report->Note("span trace written to " + path);
    }
    StageSamples st = BuildStages(traced.rig.get(), traced.client->ops(),
                                  traced.responder->recs(), shape.open_loop,
                                  path);
    ReportPerLayer(traced, st, plain_rtt_p50, report);
  }
}

}  // namespace snapbench
