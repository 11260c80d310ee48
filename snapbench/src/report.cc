#include "snapbench/src/report.h"

#include <cmath>
#include <cstdio>

#include "src/util/logging.h"

namespace snapbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"rtt_p50_us", "us"},      {"rtt_p99_us", "us"},
      {"onesided_p50_us", "us"}, {"onesided_p99_us", "us"},
      {"bulk_p50_ms", "ms"},     {"bulk_p99_ms", "ms"},
      {"rpc_per_s", "1/s"},      {"goodput_gbps", "Gbps"},
      {"cpu_cores", "cores"},    {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"pony.client.submit_ns_p50", "ns"},
      {"pony.client.refused_frac", "frac"},
      {"pony.client.empty_poll_frac", "frac"},
      {"pony.engine.tx_us_p50", "us"},
      {"pony.engine.tx_us_p99", "us"},
      {"pony.engine.rx_us_p50", "us"},
      {"pony.engine.rx_us_p99", "us"},
      {"pony.engine.notify_us_p50", "us"},
      {"pony.engine.notify_us_p99", "us"},
      {"pony.engine.remote_us_p50", "us"},
      {"pony.engine.pkts_per_op", "count"},
      {"pony.flow.retransmits", "count"},
      {"pony.flow.retx_per_kpkt", "count"},
      {"pony.flow.spurious_retx_per_kpkt", "count"},
      {"net.nic.tx_to_rx_us_p50", "us"},
      {"net.nic.tx_to_rx_us_p99", "us"},
      {"net.nic.ring_drops", "count"},
      {"live.fabric.datagrams_per_pass", "count"},
      {"live.fabric.fabric_drops", "count"},
      {"live.fabric.kernel_drops", "count"},
      {"live.fabric.sock_drops_per_kpkt", "count"},
      {"live.executor.timer_fires_per_pkt", "count"},
      {"live.executor.busy_frac", "frac"},
      {"live.executor.work_per_pass", "count"},
      {"live.executor.wakes_per_op", "count"},
      {"live.executor.parks_per_op", "count"},
      {"live.scheduler.park_frac", "frac"},
      {"live.scheduler.migrations", "count"},
      {"packet.allocs_per_op", "count"},
      {"sim.allocs_per_event", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.events_per_pkt", "count"},
      {"sim.epochs_per_sim_ms", "count"},
      {"sim.time_ratio", "ratio"},
      {"net.shard.cross_shard_frac", "frac"},
      {"sim.shard.busy_frac", "frac"},
      {"sim.shard.barrier_frac", "frac"},
      {"sim.shard.exchange_frac", "frac"},
      {"gen.lateness_p99_us", "us"},
      {"gen.backlog_growth", "count"},
      {"gen.responder_us_p50", "us"},
      {"trace.overhead_frac", "frac"},
      {"trace.stage_sum_frac", "frac"},
  };
  return kSpecs;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::CheckFailed(const std::string& what) {
  problems_.push_back(what);
}

namespace {

void PrintTable(const char* title, const std::vector<MetricSpec>& specs,
                const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    if (it != values.end()) {
      std::printf("  %-36s %16.6g %s\n", m.name, it->second, m.unit);
    }
  }
}

}  // namespace

void Report::Print(bool traced) const {
  PrintTable("end-to-end:", EndToEndMetrics(), values_);
  PrintTable("per-layer:", PerLayerMetrics(), values_);
  std::vector<std::string> problems = problems_;
  for (const auto& [name, value] : values_) {
    if (!std::isfinite(value)) {
      problems.push_back(name + " is not a finite number");
    }
  }
  for (const std::string& n : notes_) {
    std::printf("note: %s\n", n.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool ok = problems.empty();
  std::printf("attempted %lld, failed %lld, correct %s\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), ok ? "yes" : "NO");
  const auto& specs = traced ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ok ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!traced) {
      SNAP_CHECK(Has(specs[i].name)) << "workload left out " << specs[i].name;
    }
    const double value = Get(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name,
                std::isfinite(value) ? value : 0.0, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace snapbench
