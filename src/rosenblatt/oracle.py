"""Ground-truth numerics for the cumulant factors.

Plain Monte-Carlo estimation of the cyclic singular integral over the
unit hypercube and of each ordered-simplex region integral.  The
integrands are integrable for d < 0.5, but their squares are not
everywhere: where all k points coincide the squared order-k integrand
behaves like r^(-2dk) in k-1 transverse dimensions, so an order-k
estimator has finite variance only for d < (k-1)/(2k).  Beyond that the
standard error is not an error bar; the estimators warn there.
Importance sampling is deliberately omitted so the oracle stays
auditable.

Each sample takes one power of a product, not one power per factor: the
k distances |x_i - x_j|, each clamped below at 2^-53, are multiplied and
the product is raised to -d once.  A product of g clamped distances is at
least 2^(-53 g), a normal double only for g <= 19, so larger k takes one
power per group of at most 19 factors.  The region sampler orders each
sample's k uniforms descending with a compare-exchange network
(np.maximum/np.minimum over the columns), which moves values exactly as
np.sort does.

Samples come in chunks of 2^20 rows of k uniforms, and each chunk in
blocks of 2^14 rows.  The unit of work is a contiguous run of a chunk's
blocks: each chunk is cut into min(workers, blocks) runs, and the runs
of all chunks share one thread pool.  A run reaches its first row of the
chunk's stream with Philox.advance and fills one reused (2^14, k)
buffer block by block, so a worker holds that buffer (640 kB at k = 5)
and the integrand's block-length scratch, never a chunk-length array.

Reproducibility contract: streams come from the Philox 4x64 counter-based
generator, seeded per chunk through SeedSequence(seed, spawn_key=(chunk,)),
and the (sum, sum of squares) of every block is reduced in block order:
a balanced binary tree within a chunk, then chunk by chunk.  Estimates
are bit-identical for a given (seed, n) regardless of worker count.
Versions that summed whole chunks drew the same samples; their means
are the same when n is a multiple of 2^20 and otherwise differ by at
most about 2 ulps, from the summation order alone.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 20
# Rows per block: a block's k columns and the integrand's scratch stay in
# cache, where chunk-length columns would stream through memory on every
# ufunc.  A multiple of 4, so every block starts on a Philox counter step.
_BLOCK = 1 << 14
_EPS_CLAMP = 2.0**-53  # guards the measure-zero coincidence |x_i - x_j| = 0


@dataclass(frozen=True)
class RegionSpec:
    """One ordered-simplex region: factors (y_i - y_j)^(-d) with i < j on
    the simplex 1 > y_1 > ... > y_k > 0, occurring `multiplicity` times."""

    name: str
    k: int
    factor_pairs: tuple[tuple[int, int], ...]
    multiplicity: int

    def __post_init__(self):
        if len(self.factor_pairs) != self.k:
            raise ValueError("factor count must equal the dimension k")
        for i, j in self.factor_pairs:
            if not (1 <= i < j <= self.k):
                raise ValueError(f"factor pair ({i},{j}) must satisfy 1 <= i < j <= k")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _check_domain(k: int, d: float, n: int) -> None:
    if not (0.0 <= d < 0.5):
        raise ValueError(f"Monte-Carlo oracle requires 0 <= d < 0.5, got d={d}")
    if n < 1:
        raise ValueError("n must be positive")
    if d >= (k - 1) / (2 * k):
        warnings.warn(
            f"the order-{k} integrand has infinite variance for d >= {k - 1}/{2 * k} "
            f"(d={d}); the standard error is not an error bar there",
            stacklevel=3,
        )


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
    )


def _rng_at(seed: int, chunk: int, row: int, k: int) -> np.random.Generator:
    """The chunk's generator, moved to row `row` of its (m, k) uniform array.

    Philox gives four 64-bit draws per counter step and `random` takes one
    per double, so row * k must be a multiple of 4.
    """
    steps, rest = divmod(row * k, 4)
    if rest:
        raise ValueError(f"row {row} of a {k}-column stream is not on a Philox counter step")
    rng = _chunk_rng(seed, chunk)
    rng.bit_generator.advance(steps)
    return rng


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def _run_blocks(integrand, k: int, n: int, seed: int,
                workers: int | None) -> tuple[float, float]:
    """(sum, sum of squares) of integrand over n rows of k uniforms.

    Each chunk's blocks are cut into min(workers, blocks) contiguous runs.
    The block sums of a chunk are added as a balanced binary tree, in
    block order, and the chunk sums in chunk order, so the result is the
    same for any worker count.  np.sum adds a 2^20-row array by the same
    tree above 2^14 rows, so a full chunk sums as it did when whole.
    """
    workers = _default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be positive")
    runs = []  # (chunk, rows in chunk, first block, stop block)
    sums = []  # per chunk, the (sum, sum of squares) of each block
    for chunk in range((n + _CHUNK - 1) // _CHUNK):
        m = min(_CHUNK, n - chunk * _CHUNK)
        blocks = (m + _BLOCK - 1) // _BLOCK
        parts = min(workers, blocks)
        cuts = [blocks * p // parts for p in range(parts + 1)]
        runs += [(chunk, m, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        sums.append(np.empty((blocks, 2)))

    def run(args):
        chunk, m, lo, hi = args
        rng = _rng_at(seed, chunk, lo * _BLOCK, k)
        buf = np.empty((_BLOCK, k))
        for block in range(lo, hi):
            x = buf[:min(_BLOCK, m - block * _BLOCK)]
            rng.random(out=x)
            vals = integrand(x)
            sums[chunk][block] = vals.sum(), np.square(vals, out=vals).sum()

    if workers == 1 or len(runs) == 1:
        for r in runs:
            run(r)
    else:
        # imported here: with logging, it is several ms of `import rosenblatt`
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(runs))) as pool:
            list(pool.map(run, runs))
    total = np.zeros(2)
    for part in sums:
        while len(part) > 1:
            part = np.concatenate([part[:-1:2] + part[1::2], part[len(part) & ~1:]])
        total += part[0]
    return float(total[0]), float(total[1])


def _finish(total: float, total_sq: float, n: int, seed: int) -> MCEstimate:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / max(n - 1, 1))
    return MCEstimate(mean, se, n, seed)


def _sorting_network(k: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort on k wires.

    Applied in order, each putting the larger value on wire i, they sort
    every row descending (for k = 3, 4, 5: 3, 5 and 9 comparators).
    """
    pairs = []
    p = 1
    while p < k:
        q = p
        while q >= 1:
            for j in range(q % p, k - q, 2 * q):
                for i in range(min(q, k - j - q)):
                    if (i + j) // (2 * p) == (i + j + q) // (2 * p):
                        pairs.append((i + j, i + j + q))
            q //= 2
        p *= 2
    return pairs


def _sorted_columns(x: np.ndarray) -> list[np.ndarray]:
    """The columns of x, each row sorted descending, as k contiguous arrays.

    The network only moves values, so column i is bitwise column i of
    np.sort(x, axis=1)[:, ::-1].
    """
    cols = [x[:, i].copy() for i in range(x.shape[1])]
    spare = np.empty(x.shape[0])
    for i, j in _sorting_network(x.shape[1]):
        np.minimum(cols[i], cols[j], out=spare)
        np.maximum(cols[i], cols[j], out=cols[i])
        cols[j], spare = spare, cols[j]
    return cols


# Factors per power: g clamped distances multiply to at least 2^(-53 g), a
# normal double for g <= 19 and subnormal or zero beyond.
_POWER_GROUP = 19


def _distance_power(pairs: list[tuple[np.ndarray, np.ndarray]], d: float) -> np.ndarray:
    """prod over pairs (a, b) of max(|a - b|, _EPS_CLAMP)^(-d), elementwise."""
    m = pairs[0][0].shape[0]
    dist = np.empty(m)

    def clamped(a, b, out):
        np.subtract(a, b, out=out)
        np.abs(out, out=out)
        return np.maximum(out, _EPS_CLAMP, out=out)

    result = None
    for g in range(0, len(pairs), _POWER_GROUP):
        prod = clamped(*pairs[g], np.empty(m))
        for a, b in pairs[g + 1:g + _POWER_GROUP]:
            prod *= clamped(a, b, dist)
        np.power(prod, -d, out=prod)
        result = prod if result is None else np.multiply(result, prod, out=result)
    return result


def _cyclic_integrand(x: np.ndarray, d: float) -> np.ndarray:
    """The c_k integrand prod_i |x_i - x_{i+1}|^(-d) (indices mod k) at the
    rows of the (m, k) uniform array x."""
    k = x.shape[1]
    return _distance_power([(x[:, i - 1], x[:, i]) for i in range(k)], d)


def _region_integrand(x: np.ndarray, factor_pairs, d: float) -> np.ndarray:
    """The region integrand over k!, prod (y_i - y_j)^(-d), at the rows of the
    (m, k) uniform array x sorted descending into y_1 > ... > y_k."""
    y = _sorted_columns(x)
    out = _distance_power([(y[i - 1], y[j - 1]) for i, j in factor_pairs], d)
    out *= 1.0 / math.factorial(x.shape[1])
    return out


def mc_ck(k: int, d: float, n: int, seed: int, workers: int | None = None) -> MCEstimate:
    """Plain Monte-Carlo estimate of the cyclic integral c_k over [0,1]^k.

    `workers` threads share the sampling; None means one per CPU this
    process may run on (os.sched_getaffinity).  With one worker, or when n
    fits in one block of 2^14 rows, it runs in the caller's thread, with no
    pool.  The estimate is the same for every worker count.
    """
    if k < 2:
        raise ValueError("order k must be >= 2")
    _check_domain(k, d, n)
    sums = _run_blocks(lambda x: _cyclic_integrand(x, d), k, n, seed, workers)
    return _finish(*sums, n, seed)


def mc_region(spec: RegionSpec, d: float, n: int, seed: int,
              workers: int | None = None) -> MCEstimate:
    """Monte-Carlo estimate of one ordered-simplex region integral.

    k uniforms put in descending order by a compare-exchange network sample
    the simplex; the estimator averages the integrand, one power of the
    product of clamped differences (per group of at most 19 factors), over
    the ordered samples and divides by k! (the simplex volume) last.
    `workers` is as in mc_ck.
    """
    _check_domain(spec.k, d, n)
    sums = _run_blocks(lambda x: _region_integrand(x, spec.factor_pairs, d),
                       spec.k, n, seed, workers)
    return _finish(*sums, n, seed)


def region_catalog() -> tuple[RegionSpec, ...]:
    """The canonical region of order 3, the three of order 4, and the twelve
    of order 5, with multiplicities 6, 8 and 10.

    Transcription note: every difference factor carries the common
    exponent -d; each variable index appears in exactly two pairs (the
    regions are reorderings of the cyclic product).
    """
    c5_pairs = [
        ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)),
        ((1, 2), (2, 3), (1, 4), (4, 5), (3, 5)),
        ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5)),
        ((1, 2), (2, 4), (3, 4), (3, 5), (1, 5)),
        ((1, 2), (3, 4), (1, 4), (2, 5), (3, 5)),
        ((1, 3), (3, 4), (2, 4), (2, 5), (1, 5)),
        ((1, 3), (2, 4), (1, 4), (2, 5), (3, 5)),
        ((2, 3), (3, 4), (1, 4), (1, 5), (2, 5)),
        ((1, 2), (1, 3), (3, 4), (2, 5), (4, 5)),
        ((1, 3), (2, 3), (1, 4), (2, 5), (4, 5)),
        ((2, 3), (1, 4), (2, 4), (1, 5), (3, 5)),
        ((1, 3), (2, 3), (2, 4), (1, 5), (4, 5)),
    ]
    catalog = [RegionSpec("c3", 3, ((1, 2), (2, 3), (1, 3)), 6)]
    c4_pairs = [
        ((1, 2), (2, 3), (3, 4), (1, 4)),
        ((1, 2), (1, 3), (2, 4), (3, 4)),
        ((1, 3), (2, 3), (1, 4), (2, 4)),
    ]
    for i, pairs in enumerate(c4_pairs, start=1):
        catalog.append(RegionSpec(f"c4-{i}", 4, pairs, 8))
    for i, pairs in enumerate(c5_pairs, start=1):
        catalog.append(RegionSpec(f"c5-{i}", 5, pairs, 10))
    return tuple(catalog)
