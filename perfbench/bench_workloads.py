"""The three workloads: the timed call of each operation and its check.

Checks run outside the timed interval.  Tolerances are those of
`rosenblatt verify` (region sums 1e-8 / 1e-7, operator route 1e-5 / 1e-4);
Monte-Carlo estimates must lie within MC_SIGMA_GATE standard errors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from rosenblatt import cli
from rosenblatt import cumulants as cu
from rosenblatt import oracle as orc
from rosenblatt import specfun as sf
from rosenblatt import thomae as th
from rosenblatt import veillette_taqqu as vt

import bench_inputs as bi

MC_SIGMA_GATE = 5.0
REGION_SUM_TOL = {4: 1e-8, 5: 1e-7}
OPERATOR_TOL = {3: 1e-5, 4: 1e-5, 5: 1e-4}

# The 33 values the paper prints, at four significant figures, on the
# CLI default grid d = 0, 0.05, ..., 0.5.
PUBLISHED_GRID = tuple(round(0.05 * i, 2) for i in range(11))
PUBLISHED = {
    3: (2.828, 2.815, 2.770, 2.684, 2.548, 2.348, 2.067, 1.686, 1.183, 0.5603, 0.0),
    4: (12.00, 11.92, 11.66, 11.15, 10.35, 9.192, 7.632, 5.665, 3.392, 1.173, 0.0),
    5: (67.88, 67.33, 65.46, 61.92, 56.37, 48.51, 38.32, 26.24, 13.68, 3.563, 0.0),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _closed_c(k: int, d: float) -> float:
    if k == 3:
        return cu.c3_closed(d)
    if k == 4:
        return cu.c4_closed(d).value
    return cu.c5_closed(d).value


def _c_factor(k: int, d: float) -> float:
    return cu.kappa_from_c(k, d, 1.0)


def _matches_4_significant(value: float, reference: float) -> bool:
    if reference == 0.0:
        return value == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(reference))) - 3)
    return abs(value - reference) <= half_unit * 1.02


@dataclass
class Workload:
    name: str
    run: Callable            # inputs -> output; the timed call
    check: Callable          # (inputs, output) -> bool
    span: Callable           # inputs -> top-level span name of the operation
    instrument: Callable     # Tracer -> None: wrap the layers this path reaches
    reset: Callable = lambda: None   # drop in-process caches before a replay
    group_key: Callable = lambda j, op: j   # ops that share caches share a key
    per_run_check: Callable = lambda: True


# ---------------------------------------------------------------------------
# closed_table
# ---------------------------------------------------------------------------

class ClosedTable:
    def __init__(self, workdir: str) -> None:
        self.out = os.path.join(workdir, "table.csv")

    def run(self, grid):
        return cli.main(["table", "--d-grid", ",".join(repr(d) for d in grid),
                         "--orders", "3,4,5", "--out", self.out])

    def check(self, grid, code) -> bool:
        if code != 0:
            return False
        with open(self.out, encoding="utf-8") as fh:
            rows = cli.read_reports_csv(fh)
        expected = [(k, d) for k in (3, 4, 5) for d in sorted(grid)]
        if [(r.order, r.d) for r in rows] != expected:
            return False
        for r in rows:
            if not 0.0 < r.d < 0.5:
                continue
            c = r.value / _c_factor(r.order, r.d)
            if r.order == 3:
                ok = abs(c - cu.c3_closed(r.d)) <= 1e-10 * abs(c)
            elif r.order == 4:
                total = 8.0 * sum(cu.c4_region(i, r.d) for i in (1, 2, 3))
                ok = abs(total - c) <= REGION_SUM_TOL[4]
            else:
                total = 10.0 * sum(cu.c5_region(i, r.d) for i in range(1, 13))
                ok = abs(total - c) <= REGION_SUM_TOL[5]
            if not ok:
                return False
        return True

    def published(self) -> bool:
        """The 33 printed values, through the CLI on its default grid."""
        if cli.main(["table", "--orders", "3,4,5", "--out", self.out]) != 0:
            return False
        with open(self.out, encoding="utf-8") as fh:
            rows = cli.read_reports_csv(fh)
        got = {(r.order, r.d): r.value for r in rows}
        return len(got) == 33 and all(
            _matches_4_significant(got.get((k, d), math.nan), ref)
            for k, refs in PUBLISHED.items() for d, ref in zip(PUBLISHED_GRID, refs)
        )


def _instrument_closed(tr) -> None:
    tr.wrap(cu, "kappa", "cumulants.kappa")
    tr.wrap(cu, "eval_3f2_optimized", "thomae.eval_3f2_optimized")
    _wrap_common(tr)


# ---------------------------------------------------------------------------
# operator_route
# ---------------------------------------------------------------------------

def operator_run(op):
    k, d = op
    return vt.c_k_via_operator(1, k - 1, d)


def operator_check(op, value) -> bool:
    k, d = op
    return abs(value - _closed_c(k, d)) <= OPERATOR_TOL[k]


def _instrument_operator(tr) -> None:
    for g in ("g1", "g2", "g3", "g4_closed"):
        tr.wrap(vt, g, "veillette_taqqu.g_eval")
    tr.wrap(vt, "_build_e_table", "veillette_taqqu.e_table_build")
    tr.wrap(vt, "_series_dot", "veillette_taqqu.series_dot")
    _wrap_common(tr)


# ---------------------------------------------------------------------------
# mc_oracle
# ---------------------------------------------------------------------------

_REGIONS = {s.name: s for s in orc.region_catalog()}
if tuple(_REGIONS) != bi.MC_REGIONS:
    raise RuntimeError("region catalogue differs from the benchmark's list")


def mc_run(op, workers: int | None = None):
    kind, target, d, seed = op
    workers = nproc() if workers is None else workers
    if kind == "ck":
        return orc.mc_ck(int(target), d, bi.MC_SAMPLES, seed, workers=workers)
    return orc.mc_region(_REGIONS[target], d, bi.MC_SAMPLES, seed, workers=workers)


def mc_span(op) -> str:
    return "oracle.mc_ck" if op[0] == "ck" else "oracle.mc_region"


def mc_truth(kind: str, target: str, d: float) -> float:
    if kind == "ck":
        return _closed_c(int(target), d)
    if target == "c3":
        return cu.c3_closed(d) / 6.0
    i = int(target.split("-")[1])
    return cu.c4_region(i, d) if target.startswith("c4") else cu.c5_region(i, d)


def mc_check(op, est) -> bool:
    kind, target, d, seed = op
    ok_meta = est.n_samples == bi.MC_SAMPLES and est.seed == seed and est.std_error > 0
    return ok_meta and abs(est.mean - mc_truth(kind, target, d)) <= MC_SIGMA_GATE * est.std_error


# ---------------------------------------------------------------------------
# shared wrapping and the workload table
# ---------------------------------------------------------------------------

def _wrap_common(tr) -> None:
    """Layers reachable from more than one path, wrapped where each caller looks them up."""

    def add_terms(result):
        tr.counters["specfun.pfq_at_1.terms"] += result.n_terms

    for module in (cu, th):
        tr.wrap(module, "pfq_at_1", "specfun.pfq_at_1", on_result=add_terms)
    tr.wrap(vt, "hyp_2f1", "specfun.hyp_2f1")

    def count_nodes(args, kwargs):
        f = args[0]

        def counted(x, left, right):
            tr.counters["quadrature.tanh_sinh.nodes"] += len(x)
            return f(x, left, right)

        return (counted, *args[1:]), kwargs

    tr.wrap(vt, "tanh_sinh", "quadrature.tanh_sinh", on_args=count_nodes)


def build(name: str, workdir: str) -> Workload:
    if name == "closed_table":
        ct = ClosedTable(workdir)
        return Workload(name, ct.run, ct.check, lambda op: "cli.main", _instrument_closed,
                        per_run_check=ct.published)
    if name == "operator_route":
        return Workload(name, operator_run, operator_check,
                        lambda op: "veillette_taqqu.c_k_via_operator", _instrument_operator,
                        reset=vt._family_table.cache_clear, group_key=lambda j, op: op[1])
    if name == "mc_oracle":
        return Workload(name, mc_run, mc_check, mc_span, _wrap_common)
    raise ValueError(f"unknown workload {name!r}")


def known_defect(workload: str, op, exc: BaseException | None) -> bool:
    """The documented failure at the removable pole d = 1/3 (ROADMAP item 3).

    Only the PoleError that c_5 raises there counts; a wrong value at the
    same point is an ordinary failure.
    """
    return (workload == "operator_route" and op == (5, bi.THIRD)
            and isinstance(exc, sf.PoleError))
