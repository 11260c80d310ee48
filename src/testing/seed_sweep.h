// Seed-sweep harness: runs a deterministic two-host Pony Express echo
// workload under a grid of chaos profiles x RNG seeds, checking every
// invariant (src/testing/invariants.h) and — optionally — that a same-seed
// replay produces a bit-identical packet trace.
//
// The scenario per run: host A opens N streams to host B and sends M
// self-verifying messages per stream; B echoes every message back on the
// same stream; both directions traverse a ChaosLink. The run drains to
// quiesce and then CheckFinal() audits delivery, ordering, credit and
// packet conservation.
#ifndef SRC_TESTING_SEED_SWEEP_H_
#define SRC_TESTING_SEED_SWEEP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/testing/chaos.h"
#include "src/testing/invariants.h"
#include "src/util/time_types.h"

namespace snap {

struct SeedSweepOptions {
  int num_seeds = 32;
  uint64_t first_seed = 1;
  // Chaos profiles to sweep; empty means SeedSweepRunner::DefaultProfiles().
  std::vector<ChaosProfile> profiles;

  int num_streams = 2;
  int messages_per_stream = 8;
  int64_t message_bytes = 1200;
  SimDuration send_interval = 20 * kUsec;
  SimDuration echo_poll_interval = 20 * kUsec;
  SimDuration sample_period = 100 * kUsec;
  // Sim-time cap per run; a run that cannot complete by then fails the
  // completeness invariant.
  SimDuration run_limit = 2 * kSec;
  // Run every (seed, profile) cell twice and require identical traces.
  bool check_replay = true;
  // Attach a TraceRecorder to every run's Simulator. Tracing is pure
  // observation, so sweeping with this on and off must yield identical
  // trace digests (covered by determinism_test). Sharded runs attach one
  // recorder per shard (ShardedSim::EnableTracing) and fold them into one
  // deterministic trace (SweepRunResult::merged_trace_json).
  bool enable_trace = false;

  // Number of simulation shards. 1 (the default) runs the exact legacy
  // single-Simulator path; > 1 runs host A on shard 0 and host B on shard
  // 1 % shards over a ShardedFabricGroup with conservative epoch sync.
  // Trace digests are bit-identical to the serial engine for any shard
  // count (the parallel-vs-serial determinism gate).
  int shards = 1;
  // Worker threads for the sharded path; <= 1 executes shards round-robin
  // on the calling thread with bit-identical results.
  int shard_threads = 0;
  // Sharded runs: explicit shard for each of the two hosts (A, B); empty
  // keeps the default {0, 1 % shards}. Digests must not depend on this
  // (the placement axis of the parity gate; placement_test sweeps it).
  std::vector<int> shard_of_host;
  // Arms the sharded engine's deterministic profiler surfaces
  // (ShardedSim::EnableProfiling + ShardedFabricGroup::EnableProfiling)
  // and barrier-driven series sampling. Pure observation: the simulated
  // outcome must be identical with this on or off; with tracing enabled
  // the profiled trace additionally carries kProfilerTrack counters, so
  // profiled digests are compared against profiled digests only
  // (determinism_test gates both directions). Ignored in serial runs.
  bool enable_profiling = false;
  // Fabric-level hashed random drop (Fabric::set_random_drop_probability),
  // applied identically in serial and sharded runs — the drop decision is
  // a per-packet hash, not an RNG draw, so digests stay comparable across
  // engines with loss enabled.
  double fabric_drop_probability = 0;

  // QoS aggressor-tenant mode: the echo client becomes a weight-3
  // "victim" tenant, a second client on host A floods a second engine on
  // host B as a weight-1 "aggressor" tenant, DRR/WFQ scheduling is enabled
  // on every engine and on host A's NIC, and the per-tenant invariants
  // (packet/credit conservation, no-starvation) audit the run. Default
  // off: no extra objects are created and trace digests are unchanged.
  bool qos_aggressor = false;
  int aggressor_messages = 64;
  int64_t aggressor_message_bytes = 4096;
  SimDuration aggressor_send_interval = 5 * kUsec;
};

struct SweepRunResult {
  uint64_t seed = 0;
  std::string profile;
  bool ok = false;          // no invariant violations
  bool completed = false;   // every message and echo arrived in time
  bool replay_identical = true;
  std::vector<Violation> violations;
  uint64_t trace_digest = 0;
  SimTime finish_time = 0;
  int64_t delivered_messages = 0;
  int64_t chaos_dropped = 0;
  int64_t chaos_duplicated = 0;
  int64_t chaos_corrupted = 0;
  int64_t chaos_reordered = 0;
  int64_t crc_drops = 0;
  int64_t retransmits = 0;
  int64_t spurious_retransmits = 0;
  int64_t messages_held_for_order = 0;
  // Final telemetry snapshot: the per-Simulator registry in serial runs,
  // the deterministic merge of every shard's registry in sharded runs.
  // Identical for identical workloads regardless of shard count.
  std::map<std::string, int64_t> telemetry;
  // Sharded runs only (0 otherwise): epoch/exchange accounting.
  int64_t epochs = 0;
  int64_t exchange_handoffs = 0;
  int64_t exchange_cross_shard = 0;
  // enable_trace runs only: the full flight-recorder JSON — the serial
  // recorder's, or the deterministic cross-shard merge
  // (ShardedSim::MergedTrace) in sharded runs. Byte-identical across
  // reruns of the same (seed, profile, shards, placement).
  std::string merged_trace_json;
};

class SeedSweepRunner {
 public:
  explicit SeedSweepRunner(SeedSweepOptions options);

  // The five standard profiles: bursty loss, bounded reordering,
  // duplication, corruption, and everything combined.
  static std::vector<ChaosProfile> DefaultProfiles();

  // Chaos profile for qos_aggressor sweeps: light bursty loss, mild
  // reordering and jitter — enough churn to stress DRR/WFQ bookkeeping
  // under retransmission without making runs take forever to quiesce.
  static ChaosProfile AggressorTenantProfile();

  // One deterministic echo scenario under (seed, profile).
  SweepRunResult RunOne(uint64_t seed, const ChaosProfile& profile);

  // The full grid (num_seeds x profiles); with check_replay every cell runs
  // twice and replay_identical reports whether the traces matched.
  std::vector<SweepRunResult> RunAll();

  // Per-profile aggregate table (for test logs / bench output).
  static std::string SummaryTable(const std::vector<SweepRunResult>& results);

  const SeedSweepOptions& options() const { return options_; }

 private:
  SeedSweepOptions options_;
};

}  // namespace snap

#endif  // SRC_TESTING_SEED_SWEEP_H_
