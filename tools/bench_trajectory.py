#!/usr/bin/env python3
"""Perf-trajectory runner: executes a benchmark binary and appends the
results to BENCH_<name>.json so every PR leaves a recorded datapoint.

Usage:
    tools/bench_trajectory.py [--bench sim_speed|qos_isolation]
                              [--build-dir build] [--out BENCH_<name>.json]
                              [--smoke] [--baseline-check]

Runs <build-dir>/bench/bench_<name> (building is the caller's job),
stamps the result with the git revision and date, and appends it to the
history file's "runs" list. The newest run is also mirrored at the top
level under "latest" for easy reading.

--baseline-check gates per bench:
  sim_speed      rack workload must show >= 3x events/sec against the
                 recorded "pre_pr_baseline" (the pre-timer-wheel tree,
                 measured on the full workload). Under --smoke, where
                 absolute events/sec is not comparable to that baseline,
                 the rack must instead stay at <= 0.6 allocs/event, a
                 property of the code rather than of the runner (the
                 timer wheel measures ~0.52; the deleted binary-heap
                 queue measured ~1.55). The rack_scaling leg
                 additionally requires delivered work to be identical
                 across shard counts (parity_ok) and the critical-path
                 speedup at the highest shard count on the largest
                 rack to reach 8x (4x under
                 --smoke, where the rack is small). The critical-path
                 ratio is a deterministic property of the simulation, so
                 this gate is runner-independent, unlike wall-clock
                 events/sec. Wall-clock thread scaling is recorded per
                 point (num_threads, speedup_wall) but only soft-gated:
                 when the runner has fewer cores than the widest shard
                 count, a warning is printed instead of a failure. The
                 engine-profiler overhead on the largest scaling point
                 (median of paired plain/profiled trials) is recorded
                 and soft-reported against its <= 5% acceptance bar.
  qos_isolation  the weight-3 victim must retain >= 0.9 of its offered
                 goodput under the 4x aggressor (isolation_ratio), and
                 the qos-off run must still show the collapse the
                 subsystem exists to fix (collapse_ratio <= 0.7).
  live_echo      every case that ran must have completed all its RPCs
                 with zero transport errors (the runner-independent
                 property of a wall-clock benchmark); at least the two
                 loopback cases must have run, and the blocking-notify
                 case's client must have spent its idle time sleeping
                 (poll passes bounded by a small multiple of the RPC
                 count). On runners with >= 4 hardware cores — where the
                 two engine workers and two app threads genuinely run in
                 parallel — loopback_throughput is additionally
                 hard-gated (>= 1500 rpc/s, p99 <= 50 ms); core-starved
                 runners print a warning instead, since wall-clock
                 numbers there measure the scheduler's time slicing, not
                 the transport.

Only the standard library is used.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_bench(build_dir, name, smoke):
    bench = os.path.join(build_dir, "bench", f"bench_{name}")
    if not os.path.exists(bench):
        sys.exit(f"error: {bench} not found (build the repo first: "
                 f"cmake --build {build_dir} --target bench_{name})")
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tmp:
        tmp_path = tmp.name
    try:
        cmd = [bench, "--json", tmp_path] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True)
        with open(tmp_path) as f:
            return json.load(f)
    finally:
        os.unlink(tmp_path)


def load_history(path):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"runs": []}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="sim_speed",
                        choices=["sim_speed", "qos_isolation", "live_echo"])
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--out", default=None,
                        help="history file (default BENCH_<bench>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced CI workload")
    parser.add_argument("--baseline-check", action="store_true",
                        help="fail unless this bench's gate holds (see "
                             "module docstring)")
    args = parser.parse_args()
    if args.out is None:
        args.out = os.path.join(REPO_ROOT, f"BENCH_{args.bench}.json")

    result = run_bench(args.build_dir, args.bench, args.smoke)
    entry = {
        "git_revision": git_revision(),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "smoke": result.get("smoke", args.smoke),
        "benchmarks": result["benchmarks"],
    }
    for key in ("isolation_ratio", "collapse_ratio", "link_gbps",
                "victim_offered_gbps", "aggressor_offered_gbps",
                "hw_cores"):
        if key in result:
            entry[key] = result[key]

    history = load_history(args.out)
    history.setdefault("runs", []).append(entry)
    history["latest"] = entry
    with open(args.out, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print(f"appended run {entry['git_revision']} to {args.out} "
          f"({len(history['runs'])} runs recorded)")

    if args.bench == "live_echo":
        ran = {name: b for name, b in entry["benchmarks"].items()
               if b.get("ran")}
        skipped = [name for name, b in entry["benchmarks"].items()
                   if not b.get("ran")]
        bad = [name for name, b in ran.items()
               if not b.get("completed") or b.get("errors", 0) != 0]
        for name, b in ran.items():
            print(f"{name}: {b.get('rpcs_per_sec', 0):,.0f} rpc/s, "
                  f"{b.get('goodput_mbps', 0):.1f} Mbps, "
                  f"p50 {b.get('p50_rtt_us', 0):.1f}us / "
                  f"p99 {b.get('p99_rtt_us', 0):.1f}us, "
                  f"{'clean' if name not in bad else 'INCOMPLETE'}")
        for name in skipped:
            print(f"{name}: skipped "
                  f"({entry['benchmarks'][name].get('skip_reason', '?')})")
        if args.baseline_check:
            if bad:
                sys.exit(f"baseline check FAILED: incomplete or errored "
                         f"cases: {', '.join(sorted(bad))}")
            loopback = [n for n in ran if n.startswith("loopback_")]
            if len(loopback) < 2:
                sys.exit("baseline check FAILED: loopback cases did not "
                         "run")
            blocking = ran.get("loopback_blocking")
            if blocking is not None:
                # Blocking notify means the app thread sleeps when idle:
                # a doorbell-driven client needs a handful of poll passes
                # per RPC (wakeup, drain, window refill), not the
                # millions a spin-poll loop burns.
                passes = blocking.get("client_poll_passes", 0)
                budget = 30 * blocking.get("iterations", 0) + 1000
                if passes > budget:
                    sys.exit(f"baseline check FAILED: blocking-notify "
                             f"client busy-polled ({passes} poll passes "
                             f"> budget {budget})")
                if blocking.get("client_waits", 0) <= 0:
                    sys.exit("baseline check FAILED: blocking-notify "
                             "client never slept on the doorbell")
            hw_cores = entry.get("hw_cores", 0)
            tput = ran.get("loopback_throughput", {})
            rpcs = tput.get("rpcs_per_sec", 0)
            p99 = tput.get("p99_rtt_us", 0)
            if hw_cores >= 4:
                if rpcs < 1500:
                    sys.exit(f"baseline check FAILED: loopback_throughput "
                             f"{rpcs:,.0f} rpc/s < 1500 on a "
                             f"{hw_cores}-core runner")
                if p99 > 50000:
                    sys.exit(f"baseline check FAILED: loopback_throughput "
                             f"p99 {p99:,.0f}us > 50ms on a "
                             f"{hw_cores}-core runner")
            else:
                print(f"warning: runner has {hw_cores} core(s); live "
                      f"wall-clock bars not gated (loopback_throughput "
                      f"{rpcs:,.0f} rpc/s, p99 {p99:,.0f}us)")
        return

    if args.bench == "qos_isolation":
        isolation = entry.get("isolation_ratio", 0.0)
        collapse = entry.get("collapse_ratio", 1.0)
        print(f"qos isolation ratio: {isolation:.3f} (target >= 0.9), "
              f"collapse ratio without qos: {collapse:.3f} "
              f"(target <= 0.7)")
        if args.baseline_check:
            if isolation < 0.9:
                sys.exit(f"baseline check FAILED: isolation ratio "
                         f"{isolation:.3f} < 0.9")
            if collapse > 0.7:
                sys.exit(f"baseline check FAILED: qos-off victim did not "
                         f"collapse ({collapse:.3f} > 0.7)")
        return

    scaling = entry["benchmarks"].get("rack_scaling")
    if scaling is not None:
        parity = scaling.get("parity_ok", False)
        cp_speedup = scaling.get("speedup_critical_path_max_rack", 0.0)
        cp_floor = 4.0 if entry.get("smoke") else 8.0
        hw_cores = scaling.get("hw_cores", 0)
        points = scaling.get("points", [])
        max_shards = max((p.get("shards", 0) for p in points), default=0)
        best_wall = max((p.get("speedup_wall", 0.0) for p in points),
                        default=0.0)
        print(f"rack scaling: parity {'OK' if parity else 'FAILED'}, "
              f"critical-path speedup at max rack/shards "
              f"{cp_speedup:.2f}x (floor {cp_floor}x), "
              f"best wall-clock speedup {best_wall:.2f}x on "
              f"{hw_cores} core(s)")
        if hw_cores and max_shards and hw_cores < max_shards:
            # Soft gate only: cp-speedup is the runner-independent
            # signal; wall-clock cannot scale past the core count.
            print(f"warning: runner has {hw_cores} core(s) but the sweep "
                  f"reaches {max_shards} shards -- wall-clock speedups "
                  f"are core-starved and not gated")
        profiler = scaling.get("profiler")
        if profiler is not None:
            # Soft-reported: the overhead is measured as a median of
            # paired wall-clock trials, but on a noisy shared runner even
            # that can swing by several percent, so the <= 5% acceptance
            # bar is tracked here rather than hard-gated.
            overhead = profiler.get("overhead_pct", 0.0)
            print(f"profiler overhead at {profiler.get('hosts', '?')} "
                  f"hosts / {profiler.get('shards', '?')} shards: "
                  f"{overhead:+.2f}% events/sec "
                  f"(target <= 5%; median of paired trials)")
        if args.baseline_check:
            if not parity:
                sys.exit("baseline check FAILED: delivered work changed "
                         "with shard count (rack_scaling parity)")
            if cp_speedup < cp_floor:
                sys.exit(f"baseline check FAILED: critical-path speedup "
                         f"{cp_speedup:.2f}x below {cp_floor}x")

    rack = entry["benchmarks"].get("rack_fig6b", {}).get("timer_wheel", {})
    if entry.get("smoke"):
        # The recorded pre-PR baseline was measured on the full workload,
        # where fixed warmup/setup costs amortize; the smoke workload is an
        # order of magnitude shorter and not comparable in absolute
        # events/sec. Gate smoke runs on allocs/event instead: it does not
        # depend on the runner, and it catches a hot path that starts
        # allocating per event, while the 3x absolute claim stays a
        # full-run check.
        allocs = rack.get("allocs_per_event", float("inf"))
        print(f"rack allocs/event (smoke): {allocs:.3f} (smoke ceiling "
              f"<= 0.6; run without --smoke for the 3x pre-PR gate)")
        if args.baseline_check and allocs > 0.6:
            sys.exit("baseline check FAILED: smoke rack allocs/event "
                     "above 0.6")
        return
    wheel = rack.get("events_per_sec", 0.0)
    baseline = history.get("pre_pr_baseline", {}).get("events_per_sec")
    if baseline:
        ratio = wheel / baseline
        print(f"rack events/sec: {wheel:,.0f} vs recorded pre-PR baseline "
              f"{baseline:,.0f} -> {ratio:.2f}x (target >= 3x)")
        if args.baseline_check and ratio < 3.0:
            sys.exit("baseline check FAILED: speedup below 3x")


if __name__ == "__main__":
    main()
