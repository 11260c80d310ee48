// Engine groups and the three engine scheduling modes (Section 2.4,
// Figure 3):
//
//  - Dedicating cores: engines pinned to reserved hyperthreads, spin
//    polling; fair-shared round-robin when CPU constrained.
//  - Spreading engines: one MicroQuanta thread per engine that blocks on
//    interrupt notification when idle and wakes to any available core.
//  - Compacting engines: work collapsed onto as few cores as possible; a
//    rebalancer polls engine queueing delays (Shenango-style) and scales
//    out / compacts within a latency SLO.
//
// Each mode is a set of SimTasks over the shared CPU model, so all the
// paper's scheduling effects (C-state wakeups, MicroQuanta vs CFS,
// antagonist interference) apply uniformly.
#ifndef SRC_SNAP_ENGINE_GROUP_H_
#define SRC_SNAP_ENGINE_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/model_params.h"
#include "src/snap/engine.h"
#include "src/stats/histogram.h"

namespace snap {

enum class SchedulingMode {
  kDedicatedCores,
  kSpreadingEngines,
  kCompactingEngines,
};

// Canonical names shared by the sim-side EngineGroup and the live
// scheduler (src/live/live_scheduler.h) — CLI flags, telemetry labels
// and BENCH json all use these strings.
inline const char* SchedulingModeName(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kDedicatedCores:
      return "dedicated";
    case SchedulingMode::kSpreadingEngines:
      return "spreading";
    case SchedulingMode::kCompactingEngines:
      return "compacting";
  }
  return "unknown";
}

// Returns true and sets *mode on a recognized name ("dedicated",
// "spreading", "compacting").
inline bool SchedulingModeFromString(const std::string& name,
                                     SchedulingMode* mode) {
  if (name == "dedicated") {
    *mode = SchedulingMode::kDedicatedCores;
  } else if (name == "spreading") {
    *mode = SchedulingMode::kSpreadingEngines;
  } else if (name == "compacting") {
    *mode = SchedulingMode::kCompactingEngines;
  } else {
    return false;
  }
  return true;
}

// The compacting rebalancer's decision rule (Section 2.4), shared by the
// sim-side CompactingGroup (E = Engine*) and the live LiveScheduler
// (E = executor index). Each Decide() call is one rebalancer round over
// `placement`, where placement[w] lists the engines on worker w, oldest
// arrival first. A round makes at most one move and applies it to
// `placement`:
//
//  - Scale out: if the worst queueing delay exceeds the SLO and that
//    engine shares its worker, move it to the emptiest other worker
//    (lowest index on a tie) when that worker has fewer engines. Equal
//    delays resolve to the first engine in placement order.
//  - Compact: after kCalmRounds consecutive rounds whose summed delay is
//    under SLO/4, move the newest engine on the highest-numbered
//    non-empty secondary back to worker 0.
template <typename E>
class CompactingPolicy {
 public:
  static constexpr int kCalmRounds = 4;

  struct Move {
    enum Kind { kScaleOut, kCompact };
    Kind kind;
    E engine;
    int from;
    int to;
    // The delay that triggered the move: the engine's own for a scale-out,
    // the round's summed delay for a compaction.
    int64_t delay_ns;
  };

  explicit CompactingPolicy(int64_t slo_ns) : slo_ns_(slo_ns) {}

  // `delay_ns(engine)` returns the engine's current queueing delay.
  template <typename DelayFn>
  std::optional<Move> Decide(std::vector<std::vector<E>>& placement,
                             DelayFn&& delay_ns) {
    int worst_worker = -1;
    size_t worst_slot = 0;
    int64_t worst_delay = 0;
    int64_t total_delay = 0;
    for (size_t w = 0; w < placement.size(); ++w) {
      for (size_t i = 0; i < placement[w].size(); ++i) {
        const int64_t d = delay_ns(placement[w][i]);
        total_delay += d;
        if (d > worst_delay) {
          worst_delay = d;
          worst_worker = static_cast<int>(w);
          worst_slot = i;
        }
      }
    }
    if (worst_worker >= 0 && worst_delay > slo_ns_) {
      calm_rounds_ = 0;
      const size_t from_size = placement[worst_worker].size();
      int to = -1;
      for (int w = 0; w < static_cast<int>(placement.size()); ++w) {
        if (w != worst_worker &&
            (to < 0 || placement[w].size() < placement[to].size())) {
          to = w;
        }
      }
      // Shed only off a shared worker, onto one with fewer engines.
      if (from_size < 2 || to < 0 || placement[to].size() >= from_size) {
        return std::nullopt;
      }
      return Apply(placement, Move::kScaleOut, worst_worker, worst_slot, to,
                   worst_delay);
    }
    if (total_delay >= slo_ns_ / 4) {
      calm_rounds_ = 0;
      return std::nullopt;
    }
    if (++calm_rounds_ < kCalmRounds) {
      return std::nullopt;
    }
    calm_rounds_ = 0;
    for (int w = static_cast<int>(placement.size()) - 1; w >= 1; --w) {
      if (!placement[w].empty()) {
        return Apply(placement, Move::kCompact, w, placement[w].size() - 1,
                     0, total_delay);
      }
    }
    return std::nullopt;
  }

 private:
  static Move Apply(std::vector<std::vector<E>>& placement,
                    typename Move::Kind kind, int from, size_t slot, int to,
                    int64_t delay_ns) {
    std::vector<E>& src = placement[from];
    Move move{kind, src[slot], from, to, delay_ns};
    src.erase(src.begin() + static_cast<std::ptrdiff_t>(slot));
    placement[to].push_back(move.engine);
    return move;
  }

  int64_t slo_ns_;
  int calm_rounds_ = 0;
};

// Abstract engine group: owns the host SimTasks for its engines.
class EngineGroup {
 public:
  struct Options {
    SchedulingMode mode = SchedulingMode::kDedicatedCores;
    // Dedicated mode: cores to reserve (one engine task per core).
    std::vector<int> dedicated_cores;
    // Spreading/compacting: MicroQuanta bandwidth per task.
    SimDuration mq_runtime = 950 * kUsec;
    SimDuration mq_period = 1 * kMsec;
    // Figure 6(d) ablation: host spreading engines on CFS threads (at the
    // given weight, e.g. nice -20) instead of the MicroQuanta class.
    bool spreading_use_cfs = false;
    double spreading_cfs_weight = 4.0;
    // Compacting mode tuning.
    SimDuration compacting_slo = 40 * kUsec;
    SimDuration rebalance_interval = 10 * kUsec;
    int max_workers = 4;
    SimDuration idle_block_after = 500 * kUsec;
  };

  virtual ~EngineGroup() = default;

  // Adds an engine to the group (must be called before or during the run;
  // engines cannot move between groups except via upgrade).
  virtual void AddEngine(Engine* engine) = 0;
  // Removes an engine (upgrade migration). The engine stops being polled.
  virtual void RemoveEngine(Engine* engine) = 0;

  virtual const std::string& name() const = 0;

  // Total CPU consumed by this group's tasks.
  virtual int64_t CpuNs() const = 0;

  // Factory.
  static std::unique_ptr<EngineGroup> Create(std::string name,
                                             Substrate* sim,
                                             CpuScheduler* sched,
                                             const Options& options);
};

}  // namespace snap

#endif  // SRC_SNAP_ENGINE_GROUP_H_
