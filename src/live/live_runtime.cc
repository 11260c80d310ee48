#include "src/live/live_runtime.h"

#include <algorithm>

#include "src/util/logging.h"

namespace snap {

std::unique_ptr<PonyClient> LiveHost::CreateClient(
    const std::string& app_name) {
  SNAP_CHECK(!executor_->running()) << "CreateClient is setup-phase only";
  uint64_t client_id = GlobalClientId(host_id_, next_client_id_++);
  auto client = std::make_unique<PonyClient>(app_name, client_id,
                                             engine_.get(), app_params_);
  engine_->AttachClient(client.get());
  return client;
}

LiveRuntime::LiveRuntime(const Options& options)
    : options_(options), epoch_ns_(MonotonicTimeNs()) {
  PacketEgress* egress = nullptr;
  if (options_.fabric == FabricKind::kLoopback) {
    SNAP_CHECK(options_.local_hosts.empty())
        << "loopback fabric is single-process; local_hosts needs UDP";
    loopback_ = std::make_unique<LoopbackFabric>(options_.num_hosts,
                                                 options_.loopback);
    egress = loopback_.get();
  } else {
    UdpFabric::Options udp = options_.udp;
    udp.local_hosts = options_.local_hosts;
    udp_ = std::make_unique<UdpFabric>(options_.num_hosts, udp);
    egress = udp_.get();
  }
  auto is_local = [this](int h) {
    if (options_.local_hosts.empty()) {
      return true;
    }
    for (int local : options_.local_hosts) {
      if (local == h) {
        return true;
      }
    }
    return false;
  };
  for (int h = 0; h < options_.num_hosts; ++h) {
    if (!is_local(h)) {
      hosts_.push_back(nullptr);
      continue;
    }
    auto host = std::unique_ptr<LiveHost>(new LiveHost());
    host->host_id_ = h;
    host->app_params_ = options_.app;
    LiveExecutor::Options exec = options_.executor;
    exec.name = "live-h" + std::to_string(h);
    host->executor_ = std::make_unique<LiveExecutor>(
        options_.seed + static_cast<uint64_t>(h), epoch_ns_, exec);
    host->nic_ = std::make_unique<Nic>(host->executor_.get(), egress, h,
                                       options_.nic);
    // Engine id is explicitly host_id + 1 (not a directory counter) so
    // every process of a cross-process run derives the same address for
    // host h without coordination.
    host->engine_ = std::make_unique<PonyEngine>(
        "pony-h" + std::to_string(h), host->executor_.get(),
        host->nic_.get(), h + 1, options_.pony, options_.timely,
        &directory_);
    host->executor_->AddEngine(host->engine_.get());
    hosts_.push_back(std::move(host));
  }
  scheduler_ = std::make_unique<LiveScheduler>(epoch_ns_, options_.scheduler);
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;  // remote host: its process schedules it
    }
    sched_hosts_.push_back(host->host_id_);
    scheduler_->AddExecutor(host->executor_.get());
  }
}

LiveRuntime::~LiveRuntime() { Stop(); }

Status LiveRuntime::Init() {
  if (udp_ != nullptr) {
    Status bound = udp_->Init();
    if (!bound.ok()) {
      return bound;
    }
  }
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    int h = host->host_id_;
    Nic* nic = host->nic_.get();
    LiveExecutor* exec = host->executor_.get();
    if (loopback_ != nullptr) {
      loopback_->AddHost(h, nic, exec);
      LoopbackFabric* fabric = loopback_.get();
      exec->SetPollHook([fabric, h] { return fabric->DrainTo(h); });
    } else {
      udp_->AddHost(h, nic, exec);
      UdpFabric* fabric = udp_.get();
      exec->SetPollHook([fabric, h] { return fabric->DrainTo(h); });
      exec->SetPassEndHook([fabric, h] { fabric->Flush(h); });
    }
  }
  // Remote hosts resolve through the directory like local ones: register
  // their rendezvous-advertised wire ranges under the deterministic
  // engine id (host + 1). engine == nullptr marks them reachable only
  // over the fabric — exactly what flow-version negotiation needs.
  for (int h = 0; h < num_hosts(); ++h) {
    if (hosts_[h] != nullptr || udp_ == nullptr) {
      continue;
    }
    PonyDirectory::Entry entry;
    entry.wire_min = udp_->peer_wire_min(h);
    entry.wire_max = udp_->peer_wire_max(h);
    entry.engine = nullptr;
    directory_.Register(PonyAddress{h, static_cast<uint32_t>(h + 1)}, entry);
  }
  return OkStatus();
}

void LiveRuntime::EnableQos(const qos::TenantRegistry* tenants) {
  SNAP_CHECK(!started_) << "EnableQos is setup-phase only";
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    host->engine_->EnableQos(tenants);
    host->nic_->EnableQosTx(tenants);
  }
}

void LiveRuntime::EnableSeriesSampling(SimDuration bucket_width,
                                       int max_buckets) {
  SNAP_CHECK(!started_) << "EnableSeriesSampling is setup-phase only";
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    host->executor_->telemetry().EnableSeriesSampling(bucket_width,
                                                      max_buckets);
  }
}

void LiveRuntime::EnableTracing() {
  SNAP_CHECK(!started_) << "EnableTracing is setup-phase only";
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    host->tracer_ = std::make_unique<TraceRecorder>();
    host->executor_->set_tracer(host->tracer_.get());
  }
  scheduler_->EnableTracing();
}

void LiveRuntime::Start() {
  SNAP_CHECK(!started_) << "runtime already started";
  started_ = true;
  scheduler_->Start();
}

void LiveRuntime::Stop() {
  scheduler_->Stop();
  if (!started_ || stopped_) {
    return;  // publish once, on the started -> stopped transition; the
             // QoS registry may not outlive the first Stop()
  }
  stopped_ = true;
  // Threads are joined: publish each host's final engine/executor stats
  // into its registry (same shape sim scenarios export), so MergeTelemetry
  // sees the run.
  for (auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    Telemetry& t = host->executor_->telemetry();
    const std::string base = "live/h" + std::to_string(host->host_id_);
    const PonyEngine::Stats& es = host->engine_->stats();
    t.SetCounter(base + "/engine_tx_packets", es.tx_packets);
    t.SetCounter(base + "/engine_rx_packets", es.rx_packets);
    t.SetCounter(base + "/messages_delivered", es.messages_delivered);
    t.SetCounter(base + "/goodput_bytes", es.message_bytes_delivered);
    t.SetCounter(base + "/completions", es.completions);
    t.SetCounter(base + "/op_errors", es.op_errors);
    t.SetCounter(base + "/crc_drops", es.crc_drops);
    LiveExecutor::Stats xs = host->executor_->GetStats();
    t.SetCounter(base + "/loop_iterations", xs.loop_iterations);
    t.SetCounter(base + "/work_items", xs.work_items);
    t.SetCounter(base + "/timer_fires", xs.timer_fires);
    t.SetCounter(base + "/wakes", xs.wakes);
    t.SetCounter(base + "/busy_ns", xs.busy_ns);
    host->engine_->ExportQosStats(&t, base + "/qos");
  }
  // Scheduler counters land on the first local host's registry
  // (MergeTelemetry folds every registry, so the merged view carries
  // them once).
  LiveHost* first_local = nullptr;
  for (auto& host : hosts_) {
    if (host != nullptr) {
      first_local = host.get();
      break;
    }
  }
  Telemetry& t0 = first_local->executor_->telemetry();
  t0.SetCounter("live/sched/workers", scheduler_->num_workers());
  t0.SetCounter("live/sched/migrations", scheduler_->migrations());
  for (int w = 0; w < scheduler_->num_workers(); ++w) {
    LiveScheduler::WorkerStats ws = scheduler_->GetWorkerStats(w);
    const std::string base = "live/sched/w" + std::to_string(w);
    t0.SetCounter(base + "/passes", ws.passes);
    t0.SetCounter(base + "/work_items", ws.work_items);
    t0.SetCounter(base + "/busy_ns", ws.busy_ns);
    t0.SetCounter(base + "/park_ns", ws.park_ns);
    t0.SetCounter(base + "/parks", ws.parks);
    t0.SetCounter(base + "/migrations_in", ws.migrations_in);
    for (size_t e = 0; e < ws.passes_by_exec.size(); ++e) {
      if (ws.passes_by_exec[e] > 0) {
        t0.SetCounter(
            base + "/passes_h" + std::to_string(sched_hosts_[e]),
            ws.passes_by_exec[e]);
      }
    }
  }
}

void LiveRuntime::MergeTelemetry(Telemetry* out) const {
  for (const auto& host : hosts_) {
    if (host == nullptr) {
      continue;
    }
    out->MergeFrom(host->executor_->telemetry());
  }
}

std::unique_ptr<TraceRecorder> LiveRuntime::MergedTrace() const {
  auto merged = std::make_unique<TraceRecorder>();
  struct Ref {
    SimTime ts;
    int host;
    size_t index;
  };
  // Sources: per-host tracers at their host index, then scheduler worker
  // tracers on pseudo-host tracks past the real hosts (worker w at index
  // num_hosts + w), so park/wake/migrate instants stay single-writer and
  // per-track ordered in the merge.
  std::vector<const TraceRecorder*> sources;
  for (int h = 0; h < num_hosts(); ++h) {
    sources.push_back(hosts_[h] == nullptr ? nullptr
                                           : hosts_[h]->tracer_.get());
  }
  for (const TraceRecorder* tracer : scheduler_->WorkerTracers()) {
    sources.push_back(tracer);
  }
  std::vector<Ref> refs;
  for (int s = 0; s < static_cast<int>(sources.size()); ++s) {
    if (sources[s] == nullptr) {
      continue;
    }
    const auto& events = sources[s]->events();
    for (size_t i = 0; i < events.size(); ++i) {
      refs.push_back(Ref{events[i].ts, s, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.host != b.host) return a.host < b.host;
    return a.index < b.index;
  });
  for (const Ref& r : refs) {
    TraceEvent event = sources[r.host]->events()[r.index];
    event.tid += r.host * kHostTrackStride;
    merged->AppendRaw(std::move(event));
  }
  return merged;
}

LiveRuntime::FabricStats LiveRuntime::GetFabricStats() const {
  FabricStats s;
  if (loopback_ != nullptr) {
    LoopbackFabric::Stats f = loopback_->GetStats();
    s.delivered = f.delivered;
    s.dropped = f.dropped_ring_full + f.dropped_bad_address;
  } else if (udp_ != nullptr) {
    UdpFabric::Stats f = udp_->GetStats();
    s.delivered = f.delivered;
    s.dropped = f.dropped_send + f.dropped_decode + f.dropped_bad_address;
    s.send_calls = f.send_calls;
  }
  return s;
}

}  // namespace snap
