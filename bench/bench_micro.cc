// Microbenchmarks (google-benchmark) of the hot-path primitives: SPSC
// ring (single-threaded and a two-thread ping-pong), engine mailbox,
// CRC32C, wire encode/decode, histogram recording, and the discrete-event
// core. These are wall-clock benchmarks of the library code itself, not
// simulated time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <optional>
#include <thread>

#include "src/packet/crc32.h"
#include "src/packet/wire.h"
#include "src/queue/mailbox.h"
#include "src/queue/spsc_ring.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"

namespace snap {
namespace {

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    ring.TryPush(v++);
    benchmark::DoNotOptimize(ring.TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBatch16(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  for (auto _ : state) {
    for (uint64_t i = 0; i < 16; ++i) {
      ring.TryPush(i);
    }
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(ring.TryPop());
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SpscRingBatch16);

void BM_SpscRingPingPong(benchmark::State& state) {
  // Two threads, one element in flight: the live app <-> engine shape
  // (submit on one ring, spin for the completion on the other). Each
  // iteration is one round trip, so the cost is the cache-line handoffs
  // of the slots and indices, and any shared line the hot path reads.
  SpscRing<uint64_t> ping(1024);
  SpscRing<uint64_t> pong(1024);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (std::optional<uint64_t> v = ping.TryPop()) {
        while (!pong.TryPush(*v)) {
        }
      }
    }
  });
  uint64_t v = 0;
  for (auto _ : state) {
    ping.TryPush(v++);
    std::optional<uint64_t> r;
    while (!(r = pong.TryPop())) {
    }
    benchmark::DoNotOptimize(r);
  }
  stop.store(true, std::memory_order_relaxed);
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPingPong)->UseRealTime();

void BM_MailboxPostRun(benchmark::State& state) {
  EngineMailbox mailbox;
  int sink = 0;
  for (auto _ : state) {
    mailbox.Post([&sink] { ++sink; });
    mailbox.RunPending();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MailboxPostRun);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1984)->Arg(4936);

void BM_WireEncodeDecode(benchmark::State& state) {
  PonyHeader header;
  header.version = 2;
  header.flow_id = 0x1234567890ull;
  header.seq = 42;
  header.tx_timestamp = 1234567;
  std::vector<uint8_t> buffer;
  for (auto _ : state) {
    (void)EncodePonyHeader(header, &buffer);
    auto decoded = DecodePonyHeader(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeDecode);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  int64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) & 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  Histogram histogram;
  for (int64_t i = 0; i < 100000; ++i) {
    histogram.Record(i * 37 % 1000000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.P99());
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_SimulatorEventChurn(benchmark::State& state) {
  // Cost of scheduling + dispatching one event through the global queue.
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  // Steady-state schedule+fire with a populated queue (the simulation hot
  // loop shape: each fired event schedules a successor).
  Simulator sim(1);
  int64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    sim.Schedule(1 + i, [] {});
  }
  sim.RunFor(600);
  for (auto _ : state) {
    sim.Schedule(100, [&fired] { ++fired; });
    sim.RunFor(100);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Schedule-then-cancel, the RTO-timer pattern: most timers never fire.
  Simulator sim(1);
  for (auto _ : state) {
    EventHandle h = sim.Schedule(1000 * kUsec, [] {});
    h.Cancel();
    sim.RunFor(1);  // let the queue reap
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_TimerWheelCascade(benchmark::State& state) {
  // Far-horizon timers that cascade through far wheel -> near wheel
  // before firing: the worst case for the wheel.
  const SimDuration horizon = 2 * kMsec;  // far-wheel range, forces cascade
  Simulator sim(1);
  for (auto _ : state) {
    state.PauseTiming();
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(horizon + i * 64, [&fired] { ++fired; });
    }
    state.ResumeTiming();
    sim.RunFor(horizon + 1000 * 64 + 1);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TimerWheelCascade);

}  // namespace
}  // namespace snap

BENCHMARK_MAIN();
