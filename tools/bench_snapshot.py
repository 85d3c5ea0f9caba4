"""Run perfbench on every workload into one BENCH_<n>.json, or compare two such files.

    python3 tools/bench_snapshot.py run BENCH_2.json [--seed 1] [--seconds 10]
    python3 tools/bench_snapshot.py compare BENCH_1.json BENCH_2.json

`run` starts perfbench/run.py once per workload end to end (--trace 0)
and once traced (--trace 1).  For each run it keeps both stdout lines,
the run record and the result, the run's own wall-clock seconds
(`wall_s`: setup, operations and the checks outside the timing), and for an
end-to-end run the raw `wall_clock` figures of
perfbench/.work/run-<workload>-seed<seed>-trace0.json (unscaled, next to the
reference-scaled metrics).  It then times the package from the outside
(`commands`): five fresh subprocesses each of `import rosenblatt` and the
`table`, `verify --method vt` and `oracle` commands at their defaults, with
the median and range of their wall times, and one run of the tier-1 suite
(`tier1`, with its exit status and summary line).  The file also names the
commit and the command.  perfbench's environment() imports scipy, so `run`
needs scipy as well as numpy; without it, it stops and says so.

`compare` prints every metric of both files, end-to-end and per layer, and
flags an end-to-end metric more than 10% worse in the second file (by the
direction BENCHMARK.json gives it); it exits 1 if any is flagged.  It then
prints each run's `wall_s` ("-" where a file has none), which it never flags:
it is what a benchmark run costs, not a metric of the package.  Last come the
command medians and the tier-1 time; one more than 10% slower is flagged with
the note that one snapshot per commit cannot separate a 10% move from noise,
and does not set the exit status.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("closed_table", "operator_route", "mc_oracle")
WORSE = 0.10
# fresh-subprocess timings of the package itself: (name, argv after the interpreter)
COMMANDS = (
    ("import rosenblatt", ["-c", "import rosenblatt"]),
    ("rosenblatt table", ["-m", "rosenblatt.cli", "table"]),
    ("rosenblatt verify --method vt", ["-m", "rosenblatt.cli", "verify", "--method", "vt"]),
    ("rosenblatt oracle", ["-m", "rosenblatt.cli", "oracle"]),
)
REPEATS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
NOISE = "one snapshot per commit cannot separate a 10% move from noise"


def _src_env() -> dict:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _timed(argv: list) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_src_env(), capture_output=True,
                          text=True)
    return time.perf_counter() - start, proc


def time_commands() -> tuple[list, dict]:
    """The COMMANDS' wall times, REPEATS fresh processes each, and one tier-1 run."""
    commands = []
    for name, argv in COMMANDS:
        walls = []
        for _ in range(REPEATS):
            wall, proc = _timed(argv)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-500:]}")
            walls.append(round(wall, 3))
        commands.append({"name": name, "argv": argv, "walls_s": walls,
                         "median_s": statistics.median(walls), "min_s": min(walls),
                         "max_s": max(walls)})
        print(name, walls, flush=True)
    wall, proc = _timed(TIER1)
    lines = proc.stdout.strip().splitlines()
    tier1 = {"argv": TIER1, "wall_s": round(wall, 2), "returncode": proc.returncode,
             "summary": lines[-1] if lines else ""}
    print("tier-1", tier1["wall_s"], tier1["summary"], flush=True)
    return commands, tier1


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
    commands, tier1 = time_commands()
    out.write_text(json.dumps({"commit": commit, "seed": seed, "seconds": seconds, "runs": runs,
                               "commands": commands, "tier1": tier1}, indent=1) + "\n",
                   encoding="utf-8")
    return 0


def _runs(path: Path) -> list:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def _command_times(path: Path) -> dict:
    """Median wall time per command, and the tier-1 time, of a file ({} for older files)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    times = {f"{c['name']} (median s)": c["median_s"] for c in data.get("commands", [])}
    if "tier1" in data:
        times["tier-1 suite (s, one run)"] = data["tier1"]["wall_s"]
    return times


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
    times_a, times_b = _command_times(old), _command_times(new)
    for name in [*times_a, *(n for n in times_b if n not in times_a)]:
        a_s, b_s = times_a.get(name), times_b.get(name)
        if a_s is None or b_s is None:
            print(f"{'command':15s} {name:45s} {a_s or '-':>12} {b_s or '-':>12}")
            continue
        change = b_s / a_s - 1
        print(f"{'command':15s} {name:45s} {a_s:12.4g} {b_s:12.4g} {change:+8.1%}"
              + (f"  SLOWER ({NOISE})" if change > WORSE else ""))
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
