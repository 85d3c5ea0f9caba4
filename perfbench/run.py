"""Benchmark of the rosenblatt package: closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload closed_table --seed 1 --seconds 10 --trace 0

Run from the repository root.  One caller in one process issues each
operation when the previous one returns.  With --trace 0 the last stdout
line is the JSON result with the end-to-end metrics of BENCHMARK.json,
times scaled by a reference kernel timed around each operation (see
README.md); with --trace 1 a fixed, seed-determined set of operations is
run untraced and traced, and the result carries the per-layer metrics.
The line before it records the seed, an input digest and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import inspect
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing outside the checkout

import bench_inputs as bi  # noqa: E402
import bench_stats as bs  # noqa: E402
import bench_trace as bt  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

REF_ITERATIONS = 3000
REF_NOMINAL_S = 2.0e-3       # reference kernel time that timings are scaled to
REF_HALF_WINDOW = 2          # each latency is scaled by the kernel time of 5 neighbouring ops
SETUP_REPEATS = 5            # fresh interpreters per run for setup_s
IMPORTTIME_REPEATS = 3
P90_BEYOND = 10              # samples that must lie above op_p90_ms
WALL_CAP_S = 120.0           # the measuring loop never runs longer than this
SCHEDULE_SIZE = {"closed_table": 4000, "operator_route": 60, "mc_oracle": 4000}
TRACE_SIZE = {"closed_table": 24, "operator_route": 1, "mc_oracle": 32}
SCALING_OPS = 4
IMPORT_MODULES = (
    "rosenblatt", "rosenblatt.specfun", "rosenblatt.thomae", "rosenblatt.cumulants",
    "rosenblatt.quadrature", "rosenblatt.oracle", "rosenblatt.veillette_taqqu",
    "rosenblatt.cli", "scipy.signal", "scipy.special", "numpy",
)
SHARE_GROUPS = {
    "share.closed_path_pct": ("thomae.eval_3f2_optimized", "specfun.pfq_at_1"),
    "share.operator_path_pct": (
        "veillette_taqqu.c_k_via_operator", "veillette_taqqu.g_eval",
        "veillette_taqqu.e_table_build", "veillette_taqqu.series_dot",
        "specfun.hyp_2f1", "quadrature.tanh_sinh",
    ),
    "share.oracle_pct": ("oracle.mc_ck", "oracle.mc_region"),
}


_SETUP_CHILD = """\
import math, time
REF_ITERATIONS = {iterations}
{kernel}
def timed():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
before = [timed() for _ in range(3)]
import rosenblatt
after = [timed() for _ in range(3)]
print(sum(before) + sum(after), min(before), min(after))
"""


def environment() -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().split()[:3]
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [float(v) for v in load],
        "note": "no CPU pinning and no cache dropping were done",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters running `import rosenblatt`, bytecode present.

    The package's bytecode is compiled into the checkout first, as an
    installed package would have it.  Each child also times the reference
    kernel three times right before and three times right after the
    import; its wall time less those kernel runs is scaled like the
    operation latencies, by the mean of the fastest run on each side.
    Returns (scaled, unscaled) seconds, one per interpreter.
    """
    compileall.compile_dir(str(SRC / "rosenblatt"), quiet=1)
    code = _SETUP_CHILD.format(iterations=REF_ITERATIONS,
                               kernel=inspect.getsource(reference_kernel))
    env = _child_env()
    scaled, raw = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        kernel_total, before, after = (float(v) for v in proc.stdout.split())
        raw.append(wall - kernel_total)
        scaled.append(raw[-1] * REF_NOMINAL_S / (0.5 * (before + after)))
    return scaled, raw


def import_times(repeats: int) -> dict[str, float]:
    """Median cumulative import ms per module, from `python -X importtime`.

    A module that is no longer imported reads 0.
    """
    compileall.compile_dir(str(SRC / "rosenblatt"), quiet=1)
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rosenblatt.cli"],
            env=_child_env(), check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in samples:
                samples[name].append(int(parts[1]) / 1000.0)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def reference_kernel() -> int:
    """Fixed interpreter-bound work (tuples, sorting, a dict, lgamma), about 2 ms."""
    seen = {}
    for i in range(REF_ITERATIONS):
        key = tuple(sorted((i % 7, i % 11, i % 13)))
        seen[key] = seen.get(key, 0.0) + math.lgamma(1.5 + i % 17)
    return len(seen)


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def run_ops(wl, blocks, tally, *, budget_s=None, min_ops=0, tracer=None, cpu=None, refs=None):
    """Issue ops one after another; time each call, check it outside the timing.

    Stops when the blocks run out, or at the end of the block in which
    `budget_s` seconds of operation time and `min_ops` operations are
    reached, or after WALL_CAP_S.
    With `refs`, the reference kernel runs right before and right after
    each operation and the mean of the two times is appended to it.
    Returns (latencies in s, total operation time in s).
    """
    import bench_workloads as bw

    latencies = []
    busy = 0.0
    t_start = time.perf_counter()
    for op, last_in_block in ((op, i == len(b) - 1) for b in blocks for i, op in enumerate(b)):
        if refs is not None:
            ref_before = _time_reference()
        ctx = tracer.operation(wl.span(op)) if tracer is not None else nullcontext()
        exc = out = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = wl.run(op)
        except Exception as e:  # one failed operation; the loop goes on
            exc = e
        dt = time.perf_counter() - t0
        if refs is not None:
            refs.append(0.5 * (ref_before + _time_reference()))
        if cpu is not None:
            cpu.append(time.process_time() - c0)
        latencies.append(dt)
        busy += dt
        ok = False
        if exc is None:
            try:
                ok = bool(wl.check(op, out))
            except Exception as e:  # a check that cannot be evaluated fails the op
                exc = e
        tally.record(ok, None if ok else {
            "op": op,
            "error": repr(exc) if exc is not None else "check failed",
            "known_defect": bw.known_defect(wl.name, op, exc),
        })
        if (last_in_block and budget_s is not None and busy >= budget_s
                and len(latencies) >= min_ops):
            break
        if time.perf_counter() - t_start >= WALL_CAP_S:
            break
    return latencies, busy


def end_to_end(wl, blocks, seconds, tally) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup(SETUP_REPEATS)
    warmup_error = None
    try:  # warm-up outside the measurement, on an input the run never reaches
        wl.run(blocks[-1][-1])
    except Exception as exc:  # not counted: the measured operations report their own failures
        warmup_error = repr(exc)
    wl.reset()
    min_ops = bs.min_samples(90, P90_BEYOND)
    refs: list[float] = []
    lat, busy = run_ops(wl, blocks, tally, budget_s=seconds, min_ops=min_ops, refs=refs)
    norm = [t * REF_NOMINAL_S / r for t, r in zip(lat, bs.centered_mean(refs, REF_HALF_WINDOW))]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally.succeeded / sum(norm),
        "op_p50_ms": statistics.median(norm) * 1e3,
        "op_p90_ms": bs.percentile(norm, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "ops_per_s": tally.succeeded / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": bs.percentile(lat, 90) * 1e3,
        "reference_kernel_ms": statistics.median(refs) * 1e3,
        "setup_s": statistics.median(setup_raw),
    }
    info = {"ops": len(lat), "op_seconds": busy, "setup_samples_s": setup,
            "warmup_error": warmup_error,
            "samples_beyond_p90": bs.samples_beyond(norm, 90), "wall_clock": raw,
            "latencies_s": lat, "refs_s": refs}
    return metrics, info


def traced(wl, blocks, tally, seed) -> tuple[dict, dict]:
    import bench_workloads as bw

    imports = import_times(IMPORTTIME_REPEATS)
    # Each group of operations runs untraced, then traced, from cold caches,
    # so drifts of machine speed fall on both sides of the overhead ratio.
    tracer = bt.Tracer()
    cpu: list[float] = []
    plain_s = traced_s = 0.0
    traced_failed = 0
    ops = [op for b in blocks for op in b]
    for _, group in itertools.groupby(enumerate(ops), key=lambda t: wl.group_key(*t)):
        group = [[op for _, op in group]]
        wl.reset()
        plain_s += run_ops(wl, group, tally)[1]
        wl.reset()
        wl.instrument(tracer)
        fails_before = tally.failed
        try:
            traced_s += run_ops(wl, group, tally, tracer=tracer, cpu=cpu)[1]
        finally:
            tracer.restore()
        traced_failed += tally.failed - fails_before
    summary = tracer.summary()
    tracer.write(WORKDIR / f"spans-{wl.name}-seed{seed}.npz")

    def s(name, field):
        return summary.get(name, {}).get(field, 0.0)

    m = {}
    for name, field in (
        ("cli.main", "self_ms"),
        ("cumulants.kappa", "calls"), ("cumulants.kappa", "self_ms"),
        ("thomae.eval_3f2_optimized", "calls"), ("thomae.eval_3f2_optimized", "self_ms"),
        ("specfun.pfq_at_1", "calls"), ("specfun.pfq_at_1", "ms"),
        ("specfun.hyp_2f1", "calls"), ("specfun.hyp_2f1", "ms"),
        ("veillette_taqqu.e_table_build", "calls"), ("veillette_taqqu.e_table_build", "ms"),
        ("veillette_taqqu.series_dot", "calls"), ("veillette_taqqu.series_dot", "ms"),
        ("veillette_taqqu.g_eval", "calls"), ("veillette_taqqu.g_eval", "self_ms"),
        ("quadrature.tanh_sinh", "calls"), ("quadrature.tanh_sinh", "self_ms"),
        ("oracle.mc_ck", "ms"), ("oracle.mc_region", "ms"),
    ):
        m[f"{name}.{field}"] = s(name, field)
    m["specfun.pfq_at_1.terms"] = tracer.counters["specfun.pfq_at_1.terms"]
    m["quadrature.tanh_sinh.nodes"] = tracer.counters["quadrature.tanh_sinh.nodes"]
    m["veillette_taqqu.c_k_via_operator.failed"] = (
        traced_failed if wl.name == "operator_route" else 0)

    oracle_s = (s("oracle.mc_ck", "ms") + s("oracle.mc_region", "ms")) / 1e3
    n_oracle = sum(s(n, "calls") for n in ("oracle.mc_ck", "oracle.mc_region"))
    m["oracle.samples_per_s"] = n_oracle * bi.MC_SAMPLES / oracle_s if oracle_s else 0.0
    m["oracle.cpu_per_wall"] = sum(cpu) / traced_s if n_oracle else 0.0
    m["oracle.scaling_eff"] = scaling_efficiency(ops[:SCALING_OPS]) if n_oracle else 0.0

    for mod, ms in imports.items():
        m[f"setup.import.{mod}_ms"] = ms
    m["trace.ops"] = len(ops)
    m["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    op_ms = traced_s * 1e3
    for metric, names in SHARE_GROUPS.items():
        m[metric] = 100.0 * sum(s(n, "self_ms") for n in names) / op_ms
    info = {"ops": len(ops), "untraced_op_seconds": plain_s, "traced_op_seconds": traced_s,
            "spans": len(tracer.name_id), "workers": bw.nproc()}
    return m, info


def scaling_efficiency(ops) -> float:
    """Samples/s at workers=nproc over nproc times samples/s at workers=1."""
    import bench_workloads as bw

    n = bw.nproc()
    elapsed = {1: 0.0, n: 0.0}
    for op in ops:
        for workers in (1, n):
            t0 = time.perf_counter()
            bw.mc_run(op, workers=workers)
            elapsed[workers] += time.perf_counter() - t0
    return elapsed[1] / (n * elapsed[n])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rosenblatt" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    env = environment()

    import bench_workloads as bw  # imports the package from SRC

    if args.workload not in bi.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bi.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    wl = bw.build(args.workload, str(WORKDIR))
    size = (TRACE_SIZE if args.trace else SCHEDULE_SIZE)[args.workload]
    blocks = bi.schedule(args.workload, args.seed, size)
    tally = bs.Tally()

    published_ok = bool(wl.per_run_check())
    if args.trace:
        values, info = traced(wl, blocks, tally, args.seed)
        declared = spec["per_layer"]
    else:
        values, info = end_to_end(wl, blocks, args.seconds, tally)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        names = {m["name"] for m in declared}
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    unexpected = [f for f in tally.failures if not f["known_defect"]]
    correct = published_ok and not unexpected

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_digest": bi.digest(blocks), "environment": env, **info,
        "published_values_ok": published_ok, "failures": tally.failures[:20],
    }
    (WORKDIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr) + "\n", encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps({k: v for k, v in record.items() if k not in ("latencies_s", "refs_s")},
                     default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
