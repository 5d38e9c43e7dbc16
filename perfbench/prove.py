"""Check that the benchmark is steady, as BENCHMARK.json's acceptance does.

    python3 perfbench/prove.py

Runs two sets, one after the other, of ten seeds (1 to 10) per workload at
BENCHMARK.json's `run_seconds`, then one `--trace 1` run per workload on
seed 1, and writes everything to perfbench/baseline.json.  For each set and
end-to-end metric it prints the median and the spread: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median.  It then prints how much worse the second median is
than the first.  The exit code is 1 when an operation failed, a spread other
than `setup_s`'s exceeds its bound, or a second median is worse than the
first by more than the bound.  Runs are sequential.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    info = json.loads(lines[-2].removeprefix("# perfbench "))
    result = json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s "
          f"correct={result['correct']} failed={result['failed']}",
          file=sys.stderr)
    return {"seed": seed, "wall_s": wall, "info": info, **result}


def summarize(runs: list[dict], metric: dict) -> dict:
    values = [r["metrics"][metric["name"]]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [{w: [run_once(w, seed, seconds, 0) for seed in SEEDS]
             for w in workloads} for _ in range(SETS)]
    ok = all(r["correct"] and r["failed"] == 0
             for s in sets for runs in s.values() for r in runs)

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in workloads:
        summary = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summarize(s[w], metric) for s in sets]
            first, last = per_set[0]["median"], per_set[-1]["median"]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (last - first) / first
            steady = worse <= bound and (name == "setup_s" or all(
                p["spread"] <= bound for p in per_set))
            ok = ok and steady
            summary[name] = {"bound": bound, "sets": per_set,
                             "second_worse_by": worse, "within_bound": steady}
            spreads = " ".join(f"{p['spread']:.4f}" for p in per_set)
            print(f"{w:16s} {name:18s} median={first:<12.6g} spreads={spreads} "
                  f"second_worse_by={worse:+.4f} bound={bound} "
                  f"{'ok' if steady else 'FAIL'}")
        traced = run_once(w, SEEDS[0], seconds, 1)
        ok = ok and traced["correct"] and traced["failed"] == 0
        report["workloads"][w] = {"summary": summary,
                                  "sets": [s[w] for s in sets],
                                  "traced": traced}
    (ROOT / "perfbench" / "baseline.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
