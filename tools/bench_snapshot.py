"""Run perfbench on every workload into one BENCH_<n>.json, or compare two such files.

    python3 tools/bench_snapshot.py run BENCH_2.json [--seed 1] [--seconds 10]
    python3 tools/bench_snapshot.py compare BENCH_1.json BENCH_2.json

`run` starts perfbench/run.py once per workload end to end (--trace 0)
and once traced (--trace 1).  For each run it keeps both stdout lines,
the run record and the result, the run's own wall-clock seconds
(`wall_s`: setup, operations and the checks outside the timing), and for an
end-to-end run the raw `wall_clock` figures of
perfbench/.work/run-<workload>-seed<seed>-trace0.json (unscaled, next to the
reference-scaled metrics).  The file also names the commit and the command.
perfbench's environment() imports scipy, so `run` needs scipy as well as
numpy; without it, it stops and says so.

`compare` prints every metric of both files, end-to-end and per layer, and
flags an end-to-end metric more than 10% worse in the second file (by the
direction BENCHMARK.json gives it); it exits 1 if any is flagged.  It then
prints each run's `wall_s` ("-" where a file has none), which it never flags:
it is what a benchmark run costs, not a metric of the package.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("closed_table", "operator_route", "mc_oracle")
WORSE = 0.10


def run(out: Path, seed: int, seconds: float) -> int:
    if importlib.util.find_spec("scipy") is None:
        print("error: perfbench/run.py's environment() imports scipy, which is not installed",
              file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            entry = {"workload": workload, "trace": trace, "command": " ".join(cmd[1:]),
                     "wall_s": round(wall, 2), "record": record, "result": result}
            if trace == 0:
                work = ROOT / "perfbench" / ".work" / f"run-{workload}-seed{seed}-trace0.json"
                entry["wall_clock"] = json.loads(work.read_text(encoding="utf-8"))["wall_clock"]
            runs.append(entry)
            print(workload, trace, json.dumps(result["metrics"]), flush=True)
    out.write_text(json.dumps({"commit": commit, "seed": seed, "seconds": seconds, "runs": runs},
                              indent=1) + "\n", encoding="utf-8")
    return 0


def _runs(path: Path) -> list:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def _metrics(runs: list) -> dict:
    return {(r["workload"], r["trace"], name): m["value"]
            for r in runs for name, m in r["result"]["metrics"].items()}


def compare(old: Path, new: Path) -> int:
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    runs_a, runs_b = _runs(old), _runs(new)
    a, b = _metrics(runs_a), _metrics(runs_b)
    flagged = 0
    for key in sorted(a.keys() & b.keys()):
        workload, trace, name = key
        change = b[key] / a[key] - 1 if a[key] else 0.0
        worse = trace == 0 and (change if better[name] == "lower" else -change) > WORSE
        flagged += worse
        print(f"{workload:15s} {name:45s} {a[key]:12.4g} {b[key]:12.4g} {change:+8.1%}"
              + ("  WORSE" if worse else ""))
    walls = [{(r["workload"], r["trace"]): r.get("wall_s", "-") for r in runs}
             for runs in (runs_a, runs_b)]
    for key in sorted(walls[0].keys() | walls[1].keys()):
        workload, trace = key
        print(f"{workload:15s} {f'wall_s (trace {trace}, not flagged)':45s} "
              f"{walls[0].get(key, '-'):>12} {walls[1].get(key, '-'):>12}")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--seconds", type=float, default=10.0)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("old", type=Path)
    p_cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args.out, args.seed, args.seconds)
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
