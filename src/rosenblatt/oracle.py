"""Ground-truth numerics for the cumulant factors.

Plain Monte-Carlo estimation of the cyclic singular integral over the
unit hypercube and of each ordered-simplex region integral, plus nested
adaptive quadrature for the order-3 factor.  The integrands are integrable
for d < 0.5, but their squares are not everywhere: where all k points
coincide the squared order-k integrand behaves like r^(-2dk) in k-1
transverse dimensions, so an order-k estimator has finite variance only
for d < (k-1)/(2k).  Beyond that the standard error is not an error bar;
the estimators warn there.  Importance sampling is deliberately omitted
so the oracle stays auditable.

Each sample takes one power of a product, not one power per factor: the
k distances |x_i - x_j|, each clamped below at 2^-53, are multiplied and
the product is raised to -d once.  A product of g clamped distances is at
least 2^(-53 g), a normal double only for g <= 19, so larger k takes one
power per group of at most 19 factors.  The region sampler orders each
sample's k uniforms descending with a compare-exchange network
(np.maximum/np.minimum over the columns), which moves values exactly as
np.sort does.  Both integrands work through a chunk in row blocks that
stay in cache.

Reproducibility contract: streams come from the Philox 4x64 counter-based
generator, seeded per chunk through SeedSequence(seed, spawn_key=(chunk,)),
and chunk results are reduced in fixed index order.  Estimates are
bit-identical for a given (seed, n) regardless of worker count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from .quadrature import tanh_sinh

_CHUNK = 1 << 20
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


def _run_chunks(sampler, n: int, seed: int, workers: int | None) -> tuple[float, float]:
    """Accumulate (sum, sum of squares) over chunks, reduced in index order."""
    sizes = [(i, min(_CHUNK, n - i * _CHUNK)) for i in range((n + _CHUNK - 1) // _CHUNK)]

    def one(args):
        idx, m = args
        vals = sampler(_chunk_rng(seed, idx), m)
        total = float(vals.sum())
        return total, float(np.square(vals, out=vals).sum())

    if workers is None or workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, sizes))
    else:
        results = [one(s) for s in sizes]
    total = 0.0
    total_sq = 0.0
    for s, s2 in results:  # fixed order: bit-identical for any worker count
        total += s
        total_sq += s2
    return total, total_sq


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


# Rows per integrand pass: a block's k columns and the network's scratch
# stay in cache, where whole-chunk columns would stream through memory on
# every ufunc.
_BLOCK = 1 << 14


def _by_blocks(integrand, x: np.ndarray, *args) -> np.ndarray:
    """integrand(x, *args), evaluated on row blocks of x."""
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _BLOCK):
        out[start:start + _BLOCK] = integrand(x[start:start + _BLOCK], *args)
    return out


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
    """Plain Monte-Carlo estimate of the cyclic integral c_k over [0,1]^k."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    _check_domain(k, d, n)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        return _by_blocks(_cyclic_integrand, rng.random((m, k)), d)

    return _finish(*_run_chunks(sampler, n, seed, workers), n, seed)


def mc_region(spec: RegionSpec, d: float, n: int, seed: int,
              workers: int | None = None) -> MCEstimate:
    """Monte-Carlo estimate of one ordered-simplex region integral.

    k uniforms put in descending order by a compare-exchange network sample
    the simplex; the estimator averages the integrand, one power of the
    product of clamped differences (per group of at most 19 factors), over
    the ordered samples and divides by k! (the simplex volume) last.
    """
    _check_domain(spec.k, d, n)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        return _by_blocks(_region_integrand, rng.random((m, spec.k)), spec.factor_pairs, d)

    return _finish(*_run_chunks(sampler, n, seed, workers), n, seed)


def quad_c3(d: float, abs_tol: float = 1e-9) -> float:
    """c_3 by nested adaptive quadrature of the ordered triple integral.

    The scalings y_2 = y_1 u, y_3 = y_1 u v absorb the coincidence
    singularities into the endpoints:

        c_3 = 6/(3-3d) * int u^(1-d) (1-u)^(-d) int (1-v)^(-d) (1-uv)^(-d) dv du.

    Both levels refine double-exponential rules until the tolerance is
    met; the inner integrand receives 1-u through the outer node's exact
    endpoint distance, so the doubly-singular corner u, v -> 1 is stable.
    """
    if not (0.0 <= d < 0.5):
        raise ValueError("quad_c3 requires 0 <= d < 0.5")

    def inner(eps: float, u: float) -> float:
        if eps == 0.0:
            return 1.0 / (1.0 - 2.0 * d)  # int (1-v)^(-2d) dv
        val, _ = tanh_sinh(
            lambda v, lv, rv: rv ** (-d) * (eps + u * rv) ** (-d),
            0.0, 1.0, abs_tol=abs_tol / 50.0,
        )
        return val

    def outer(u, lu, ru):
        return np.array([
            ui ** (1.0 - d) * ri ** (-d) * inner(ri, ui) for ui, ri in zip(u, ru)
        ])

    val, err = tanh_sinh(outer, 0.0, 1.0, abs_tol=abs_tol / 3.0)
    return 6.0 / (3.0 - 3.0 * d) * val


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
