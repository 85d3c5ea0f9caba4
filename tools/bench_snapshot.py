"""Run perfbench on every workload into one BENCH_<n>.json, pair a change with its parent, or
compare two such files.

    python3 tools/bench_snapshot.py run BENCH_2.json [--seed 1]
    python3 tools/bench_snapshot.py pairs PARENT [--seed 1] [--n 10] [--workload closed_table ...]
                                       [--out BENCH_2.json]
    python3 tools/bench_snapshot.py compare BENCH_1.json BENCH_2.json

`run` starts perfbench/run.py once per workload end to end (--trace 0)
and once traced (--trace 1), each for BENCHMARK.json's run_seconds.  For
each run it keeps both stdout lines, the run record and the result, the
run's own wall-clock seconds (`wall_s`: setup, operations and the checks
outside the timing), and for an end-to-end run the raw `wall_clock` figures of
perfbench/.work/run-<workload>-seed<seed>-trace0.json (unscaled, next to the
reference-scaled metrics).  It then times the package from the outside
(`commands`): five fresh subprocesses each of `import rosenblatt` and the
`table`, `verify --method vt` and `oracle` commands at their defaults, with
the median and range of their wall times, and one run of the tier-1 suite
(`tier1`, with its exit status and summary line).  The file also names the
commit, with "-dirty" where the tree has uncommitted edits, and the
command.  A `pairs` section that the file already holds is
kept, so `pairs --out` may come before or after `run`.  perfbench's
environment() imports scipy, so `run` needs scipy as well as numpy; without
it, it stops and says so.

`pairs` measures the working tree against the commit PARENT, whose files
it unpacks from `git archive` into a temporary directory and removes
afterwards.  It first compiles both trees' bytecode (src/ and
perfbench/), so that no fresh process recompiles a module where
PYTHONDONTWRITEBYTECODE is set.  Each of --n pairs runs, on each side,
every chosen workload once end to end, for BENCHMARK.json's run_seconds,
and every command of COMMANDS once; the side that runs first alternates
from pair to pair.  For each end-to-end metric and command wall time it
gives both sides' median and quartiles, the median relative change and
the number of pairs the change won, with a verdict: "better" or "worse"
when at least 9 in 10 pairs go that way and the medians differ by more
than the parent's interquartile range, "no clear change" otherwise.  It
prints them, and with --out writes them as the file's `pairs` section
(added to the file when it exists).  It uses the local repository only.

`compare` prints every metric of both files, end-to-end and per layer, and
flags an end-to-end metric more than 10% worse in the second file (by the
direction BENCHMARK.json gives it); it exits 1 if any is flagged.  It then
prints each run's `wall_s` ("-" where a file has none), which it never flags:
it is what a benchmark run costs, not a metric of the package.  Last come the
command medians and the tier-1 time; one more than 10% slower is flagged with
the note that one snapshot per commit cannot separate a 10% move from noise,
and does not set the exit status.  Where the second file has a `pairs`
section, each end-to-end metric and command it covers carries the pair
verdict beside the single-run figures; it changes neither flag nor exit
status.  A file with no `runs`, such as one that `pairs --out` started,
cannot be compared: `compare` says which and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
PAIR_SHARE = 0.9  # share of the pairs a verdict of "better" or "worse" needs


def _src_env(root: Path = ROOT) -> dict:
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _timed(argv: list, root: Path = ROOT) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=_src_env(root),
                          capture_output=True, text=True)
    return time.perf_counter() - start, proc


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def _commit(root: Path) -> str:
    """The commit root's tree is at, "-dirty" appended where tracked files are edited."""
    return _git(root, "describe", "--always", "--dirty", "--abbrev=40")


def _benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def _end_to_end(root: Path = ROOT) -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> "lower" or "higher"."""
    return {m["name"]: m["better"] for m in _benchmark(root)["end_to_end"]}


def _perfbench(tree: Path, workload: str, seed: int, seconds: float,
               trace: int) -> tuple[float, list, dict, dict]:
    """One run of tree's perfbench/run.py: its wall seconds, argv, run record and result."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    wall, proc = _timed(argv, tree)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return wall, argv, record, result


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


def _without_scipy() -> bool:
    """Whether scipy, which perfbench/run.py's environment() imports, is missing; says so if so."""
    if importlib.util.find_spec("scipy") is None:
        print("error: perfbench/run.py's environment() imports scipy, which is not installed",
              file=sys.stderr)
        return True
    return False


def run(out: Path, seed: int, root: Path = ROOT) -> int:
    if _without_scipy():
        return 2
    commit, seconds = _commit(root), _benchmark(root)["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            wall, argv, record, result = _perfbench(root, workload, seed, seconds, trace)
            entry = {"workload": workload, "trace": trace, "command": " ".join(argv),
                     "wall_s": round(wall, 2), "record": record, "result": result}
            if trace == 0:
                work = root / "perfbench" / ".work" / f"run-{workload}-seed{seed}-trace0.json"
                entry["wall_clock"] = json.loads(work.read_text(encoding="utf-8"))["wall_clock"]
            runs.append(entry)
            print(workload, trace, json.dumps(result["metrics"]), flush=True)
    commands, tier1 = time_commands()
    data = {"commit": commit, "seed": seed, "seconds": seconds, "runs": runs,
            "commands": commands, "tier1": tier1}
    if out.exists() and "pairs" in (old := json.loads(out.read_text(encoding="utf-8"))):
        data["pairs"] = old["pairs"]
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


def _runs(path: Path) -> list | None:
    """A file's runs, or None, said on stderr, where it has none (a `pairs`-only file)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if "runs" not in data:
        print(f"error: {path} has no runs to compare; write them into it with `run {path}`",
              file=sys.stderr)
    return data.get("runs")


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


def _compile(tree: Path) -> None:
    """Write the bytecode of a tree's package and benchmark, which fresh processes then load."""
    dirs = [str(tree / d) for d in ("src", "perfbench") if (tree / d).is_dir()]
    if dirs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], check=True,
                       capture_output=True)


def _measure(tree: Path, item: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of a perfbench workload, or one fresh process of a COMMANDS entry,
    in tree: metric name -> value."""
    if item in WORKLOADS:
        metrics = _perfbench(tree, item, seed, seconds, 0)[3]["metrics"]
        return {name: m["value"] for name, m in metrics.items()}
    wall, proc = _timed(dict(COMMANDS)[item], tree)
    if proc.returncode != 0:
        raise RuntimeError(f"{item} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    return {"wall_s": wall}


@contextlib.contextmanager
def _export(root: Path, commit: str):
    """commit's files, unpacked from git archive into a temporary directory removed after;
    the repository itself is only read."""
    archive = subprocess.run(["git", "archive", commit], cwd=root, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tree = Path(tmp) / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        yield tree


def _quartiles(values: list) -> list:
    """[q1, median, q3] of values (the value three times for one)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _verdict(parent: list, change: list, better: str) -> dict:
    """Both sides' quartiles, the median change, the pairs won and lost, and the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    qp, qc = _quartiles(parent), _quartiles(change)
    gain, spread, need = sign * (qc[1] - qp[1]), qp[2] - qp[0], math.ceil(PAIR_SHARE * len(parent))
    verdict = ("better" if won >= need and gain > spread else
               "worse" if lost >= need and -gain > spread else "no clear change")
    return {"better": better, "parent": parent, "change": change, "parent_quartiles": qp,
            "change_quartiles": qc, "median_change": qc[1] / qp[1] - 1 if qp[1] else 0.0,
            "won": won, "lost": lost, "verdict": verdict}


def pairs(parent: str, seed: int, n: int, workloads: list, out: Path | None,
          root: Path = ROOT) -> dict:
    """The `pairs` section of the working tree of root against its commit parent."""
    better, seconds = _end_to_end(root), _benchmark(root)["run_seconds"]
    items = [*workloads, *(name for name, _ in COMMANDS)]
    samples = {side: {item: [] for item in items} for side in ("parent", "change")}
    section = {"parent": _git(root, "rev-parse", parent),
               "change": _commit(root),
               "seed": seed, "n": n, "seconds": seconds, "workloads": list(workloads)}
    with _export(root, parent) as tree:
        sides = {"parent": tree, "change": root}
        for side_tree in sides.values():
            _compile(side_tree)
        for i in range(n):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                for item in items:
                    samples[side][item].append(_measure(sides[side], item, seed, seconds))
            print(f"pair {i + 1}/{n} done", flush=True)
    section["metrics"] = results = []
    for item in items:
        for name in samples["parent"][item][0]:  # a workload's end-to-end metrics, or wall_s
            entry = _verdict([s[name] for s in samples["parent"][item]],
                             [s[name] for s in samples["change"][item]], better.get(name, "lower"))
            results.append({"item": item, "metric": name, **entry})
            qp, qc = entry["parent_quartiles"], entry["change_quartiles"]
            print(f"{item:30s} {name:12s} parent {qp[1]:10.4g} [{qp[0]:.4g}, {qp[2]:.4g}] "
                  f"change {qc[1]:10.4g} [{qc[0]:.4g}, {qc[2]:.4g}] "
                  f"{entry['median_change']:+7.1%} won {entry['won']}/{n}: {entry['verdict']}")
    if out is not None:
        data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        data["pairs"] = section
        out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return section


def _pair_notes(path: Path) -> dict:
    """(item, metric) -> the pair verdict as compare prints it, from a file's `pairs` section."""
    section = json.loads(path.read_text(encoding="utf-8")).get("pairs", {})
    return {(m["item"], m["metric"]): f"  pairs: won {m['won']}/{section['n']}, median "
            f"{m['median_change']:+.1%}: {m['verdict']}" for m in section.get("metrics", [])}


def compare(old: Path, new: Path) -> int:
    better = _end_to_end()
    notes = _pair_notes(new)
    runs_a, runs_b = _runs(old), _runs(new)
    if runs_a is None or runs_b is None:
        return 2
    a, b = _metrics(runs_a), _metrics(runs_b)
    flagged = 0
    for key in sorted(a.keys() & b.keys()):
        workload, trace, name = key
        change = b[key] / a[key] - 1 if a[key] else 0.0
        worse = trace == 0 and (change if better[name] == "lower" else -change) > WORSE
        flagged += worse
        print(f"{workload:15s} {name:45s} {a[key]:12.4g} {b[key]:12.4g} {change:+8.1%}"
              + ("  WORSE" if worse else "") + (notes.get(key[::2], "") if trace == 0 else ""))
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
              + (f"  SLOWER ({NOISE})" if change > WORSE else "")
              + notes.get((name.removesuffix(" (median s)"), "wall_s"), ""))
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--seed", type=int, default=1)
    p_pairs = sub.add_parser("pairs")
    p_pairs.add_argument("parent")
    p_pairs.add_argument("--seed", type=int, default=1)
    p_pairs.add_argument("--n", type=int, default=10)
    p_pairs.add_argument("--workload", action="append", choices=WORKLOADS)
    p_pairs.add_argument("--out", type=Path)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("old", type=Path)
    p_cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args.out, args.seed)
    if args.cmd == "pairs":
        if _without_scipy():
            return 2
        pairs(args.parent, args.seed, args.n, args.workload or list(WORKLOADS), args.out)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
