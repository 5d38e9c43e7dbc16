"""vercore benchmark: lockstep, corpus and trace round trip, with a traced
per-layer breakdown.

    python3 perfbench/run.py --workload crc_hash --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
process, one thread, closed loop: each iteration builds its inputs (untimed),
then runs them and checks every operation.  `--trace 0` prints the
end-to-end metrics of BENCHMARK.json; `--trace 1` runs each iteration
untraced and then traced, and prints the per-layer metrics.  The last line of
stdout is the result as JSON; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("crc_hash", "corpus", "trace_roundtrip")


def import_vercore():
    """Import vercore from this checkout's src/ and nowhere else."""
    if not (SRC / "vercore" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vercore sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vercore
    if Path(vercore.__file__).resolve().parent != SRC / "vercore":
        sys.exit(f"perfbench: imported vercore from {vercore.__file__}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Pass:
    """Timed iterations k = first, first + 1, ... of one workload."""

    def __init__(self) -> None:
        self.build_seconds: list[float] = []
        self.iter_seconds: list[float] = []
        self.iter_cycles: list[int] = []
        self.op_seconds: list[float] = []
        self.iter_op_p50: list[float] = []  # median operation time per iteration
        self.cycles = 0
        self.retired = 0
        self.decode_hits = 0
        self.decode_misses = 0

    def run(self, workload, checker, first: int, *, seconds: float = 0.0,
            count: int = 0) -> "Pass":
        """Run `count` iterations, or as many as start within `seconds`.

        Repeated calls add to the same totals; each starts from an empty
        decode cache."""
        from workloads import cached_decode as decode
        decode.cache_clear()  # every pass starts with the same cache state
        before = decode.cache_info()
        clock = time.perf_counter
        deadline = clock() + seconds
        k = first
        while (k - first < count) if count else (clock() < deadline or k == first):
            gc.collect()
            start = clock()
            programs = workload.build(k)
            self.build_seconds.append(clock() - start)
            start = clock()
            ops = workload.run(programs)
            self.iter_seconds.append(clock() - start)
            self.iter_cycles.append(sum(op.cycles for op in ops))
            self.iter_op_p50.append(statistics.median(op.seconds for op in ops))
            for op in ops:
                checker.record(op)
                self.op_seconds.append(op.seconds)
                self.cycles += op.cycles
                self.retired += op.retired
            k += 1
        after = decode.cache_info()
        self.decode_hits += after.hits - before.hits
        self.decode_misses += after.misses - before.misses
        return self

    @property
    def iterations(self) -> int:
        return len(self.iter_seconds)

    # The host alternates between fast and slow phases lasting seconds, and
    # which share of a run falls in each varies from run to run.  A median
    # taken over the whole run jumps between the two phases' speeds as that
    # share crosses one half, so the run-level figures below average over
    # iterations instead: each iteration lies within one phase.

    def cycles_per_s(self) -> float:
        """Simulated cycles per timed host second over the whole pass."""
        return sum(self.iter_cycles) / sum(self.iter_seconds)

    def op_p50_s(self) -> float:
        """Median operation time within each iteration, averaged over the pass."""
        return statistics.fmean(self.iter_op_p50)


def end_to_end(workload, checker, seconds: float, info: dict) -> dict:
    warmup = Pass().run(workload, checker, 0, count=1)  # fixes the references
    timed = Pass().run(workload, checker, 1, seconds=seconds)
    # Set-up is sampled once per iteration, so that its median, like the
    # others, spans the whole run instead of one moment of it.
    setup_s = statistics.median(warmup.build_seconds + timed.build_seconds)
    tail = workload.tail_percentile
    info.update(iterations=timed.iterations, samples=len(timed.op_seconds),
                tail_percentile=tail)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "sim_cycles_per_s": (timed.cycles_per_s(), "cycles/s"),
        "prog_p50_ms": (timed.op_p50_s() * 1e3, "ms"),
        "prog_tail_ms": (percentile(timed.op_seconds, tail) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(workload, checker, seconds: float,
              info: dict) -> tuple[dict, bool]:
    from tracer import Tracer
    from workloads import cached_decode as decode, cpi_stack

    Pass().run(workload, checker, 0, count=1)  # warm-up; fixes the references
    ticks = {"all": 0, "idle": 0}

    def count_tick(unit, issue=None, consumer_ready=False):
        ticks["all"] += 1
        ticks["idle"] += issue is None and not unit.busy and not unit.out_valid

    # Each iteration runs untraced and then traced on the same inputs, so
    # both sides of the overhead see the same phases of host speed.
    tracer = Tracer({"mul.tick": count_tick})
    plain, traced = Pass(), Pass()
    workload.counters.clear()
    deadline = time.perf_counter() + seconds
    k = 1
    while k == 1 or time.perf_counter() < deadline:
        plain.run(workload, checker, k, count=1)
        with tracer:
            traced.run(workload, checker, k, count=1)
        k += 1
    n = traced.iterations
    info.update(iterations=n, decode_cache_size=decode.cache_info().maxsize)

    stack_ops, stack = cpi_stack(workload.build(0))
    for op in stack_ops:
        checker.record(op)

    layers = tracer.layers
    guard = [f"{name}.calls {layers[name].calls} != {what} {count}"
             for name, what, count in
             (("pipeline.step_cycle", "cycles", traced.cycles),
              ("golden.step", "retired", traced.retired))
             if layers[name].calls != count]
    guard.extend(f"{name} was never called" for name in workload.layers
                 if layers[name].calls == 0)
    for line in guard:
        print(f"perfbench: coverage guard: {line}", file=sys.stderr)
    info["coverage_guard"] = guard or "pass"

    metrics = {}
    for name, stats in layers.items():
        metrics[f"{name}.calls"] = (stats.calls / n, "count")
        metrics[f"{name}.self_s"] = (stats.self_s / n, "s")
        metrics[f"{name}.us_per_call"] = (
            stats.total_s / stats.calls * 1e6 if stats.calls else 0.0, "us")
    lookups = traced.decode_hits + traced.decode_misses
    both = plain.iterations + n  # both passes add to the workload's counters
    metrics.update({
        "mul.tick.idle_frac": (ticks["idle"] / ticks["all"]
                               if ticks["all"] else 0.0, "ratio"),
        "isa.decode.hit_ratio": (traced.decode_hits / lookups
                                 if lookups else 0.0, "ratio"),
        "tracetools.vcd_write.bytes": (
            workload.counters["tracetools.vcd_write.bytes"] / both, "B"),
        "tracetools.vcd_to_csv.rows": (
            workload.counters["tracetools.vcd_to_csv.rows"] / both, "count"),
        "prog.per_iter": (len(traced.op_seconds) / n, "count"),
        "pipeline.cycles": (stack["cycles"], "count"),
        "pipeline.retired": (stack["retired"], "count"),
        "pipeline.cpi": (stack["cycles"] / stack["retired"]
                         if stack["retired"] else 0.0, "cycles/instr"),
        "trace.overhead_frac": (sum(traced.iter_seconds)
                                / sum(plain.iter_seconds) - 1, "ratio"),
    })
    for cause in ("flush", "mul", "load_use", "fill", "other"):
        metrics[f"pipeline.stall.{cause}"] = (stack[cause], "count")
    return metrics, not guard


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-cycle smoke-test version of each workload")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_vercore()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
    }
    checker = workloads.Checker()
    workload = workloads.make(args.workload, args.seed, args.size == "tiny",
                              ROOT)
    try:
        if args.trace:
            metrics, correct = per_layer(workload, checker, args.seconds, info)
        else:
            metrics, correct = end_to_end(workload, checker, args.seconds,
                                          info), True
    finally:
        workload.close()

    if args.trace:
        metrics["fail_frac"] = (checker.failed / checker.attempted, "ratio")
    names = [m["name"] for m in declared]
    if set(names) != set(metrics) or any(metrics[m["name"]][1] != m["unit"]
                                         for m in declared):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match "
                 f"BENCHMARK.json {sorted(names)}")
    print("# perfbench " + json.dumps(info))
    print(json.dumps({
        "correct": correct and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
