"""Seeded inputs for the benchmark workloads.

The program under test sees only what these functions return.  Every
d-sequence is stratified: each block of draws takes one point from each
of `block` equal strata, in shuffled order, so runs with different seeds
cover the d-range the same way and differ in the points, not in the mix.
No module of the package under test is imported here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("closed_table", "operator_route", "mc_oracle")

# closed_table: one `rosenblatt table` invocation per operation
TABLE_POINTS = 11

# operator_route: the interior of the CLI default grid (it holds the
# integer-gap point 0.25) and the exact removable-pole point 1/3, among
# uniform draws.  Draws stop at 0.48: above about 0.495 the operator route
# misses the 1e-5 / 1e-4 gates (measured: |diff| = 2.8e-4 for k=5 at
# d=0.499), which is a separate accuracy limit, not the defect at 1/3.
DEFAULT_GRID_INTERIOR = tuple(round(0.05 * i, 2) for i in range(1, 10))
THIRD = 1.0 / 3.0
OPERATOR_D_MAX = 0.48
OPERATOR_ORDERS = (3, 4, 5)
OPERATOR_STRATA = 24   # fine strata: the cost of a k=5 row rises steeply with d

# mc_oracle: alternate c_k estimates and region estimates over the whole
# catalogue.  An order-k estimator has finite variance only for
# d < (k-1)/(2k) (the k-fold coincidence singularity); beyond it the
# standard error is no error bar and sigma gates fail on correct code.
MC_D_MIN = 0.05
MC_D_MARGIN = 0.05
MC_ORDERS = (3, 4, 5)
MC_REGIONS = ("c3", "c4-1", "c4-2", "c4-3") + tuple(f"c5-{i}" for i in range(1, 13))
MC_SAMPLES = 1 << 21

STRATA = 8             # default strata per block of draws

_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM[workload],)))


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float,
               block: int = STRATA) -> list[float]:
    """n draws in [lo, hi), one per stratum within each block of `block` draws."""
    out: list[float] = []
    while len(out) < n:
        strata = rng.permutation(block)
        u = rng.random(block)
        out.extend(lo + (hi - lo) * (strata + u) / block)
    return [float(v) for v in out[:n]]


def mc_d_max(k: int) -> float:
    return (k - 1) / (2 * k) - MC_D_MARGIN


def region_order(name: str) -> int:
    return int(name[1])


def closed_table_ops(seed: int, n: int) -> list[tuple[float, ...]]:
    """n d-grids of TABLE_POINTS values, one per stratum of [0, 0.5].

    Values carry ten decimals so that the CSV's 12-significant-digit d
    column reads back exactly.
    """
    rng = _rng(seed, "closed_table")
    ops = []
    for _ in range(n):
        u = rng.random(TABLE_POINTS)
        ops.append(tuple(round(0.5 * (i + float(u[i])) / TABLE_POINTS, 10)
                         for i in range(TABLE_POINTS)))
    return ops


def operator_route_ops(seed: int, n_blocks: int) -> list[list[tuple[int, float]]]:
    """Blocks of (k, d) rows, each the fixed points plus OPERATOR_STRATA
    stratified draws, in seeded order.

    k cycles through 3, 4, 5 at each d, as `verify --method vt` does.  A run
    stops only between blocks and every block has the same make-up, so the
    mix does not depend on how many blocks a run gets through.
    """
    rng = _rng(seed, "operator_route")
    blocks = []
    for _ in range(n_blocks):
        ds = [THIRD, *DEFAULT_GRID_INTERIOR,
              *stratified(rng, OPERATOR_STRATA, 0.0, OPERATOR_D_MAX, block=OPERATOR_STRATA)]
        blocks.append([(k, ds[i]) for i in rng.permutation(len(ds)) for k in OPERATOR_ORDERS])
    return blocks


def mc_oracle_ops(seed: int, n: int) -> list[tuple[str, str, float, int]]:
    """(kind, target, d, mc_seed): even operations estimate c_k, odd ones a region.

    kind is "ck" (target "3".."5") or "region" (target a catalogue name);
    d is stratified over [MC_D_MIN, mc_d_max(k)) for the target's order k.
    """
    rng = _rng(seed, "mc_oracle")
    n_ck = (n + 1) // 2
    n_region = n // 2
    unit_ck = stratified(rng, n_ck, 0.0, 1.0)
    unit_region = stratified(rng, n_region, 0.0, 1.0)
    mc_seeds = rng.integers(0, 2**31, size=n)
    ops = []
    for j in range(n):
        if j % 2 == 0:
            k = MC_ORDERS[(j // 2) % len(MC_ORDERS)]
            kind, target, u = "ck", str(k), unit_ck[j // 2]
        else:
            target = MC_REGIONS[(j // 2) % len(MC_REGIONS)]
            kind, k, u = "region", region_order(target), unit_region[j // 2]
        d = MC_D_MIN + (mc_d_max(k) - MC_D_MIN) * u
        ops.append((kind, target, d, int(mc_seeds[j])))
    return ops


def schedule(workload: str, seed: int, size: int) -> list[list]:
    """Blocks of operation inputs for one run; a run stops only between blocks.

    size counts operations for closed_table and mc_oracle (one per block),
    and blocks of 102 rows for operator_route.
    """
    if workload == "closed_table":
        return [[op] for op in closed_table_ops(seed, size)]
    if workload == "operator_route":
        return operator_route_ops(seed, size)
    if workload == "mc_oracle":
        return [[op] for op in mc_oracle_ops(seed, size)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list) -> str:
    """Short SHA-256 of the inputs, with floats written at full precision."""
    text = json.dumps(ops, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
