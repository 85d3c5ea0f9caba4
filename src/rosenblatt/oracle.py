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
        return float(vals.sum()), float(np.square(vals).sum())

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


def mc_ck(k: int, d: float, n: int, seed: int, workers: int | None = None) -> MCEstimate:
    """Plain Monte-Carlo estimate of the cyclic integral c_k over [0,1]^k."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    _check_domain(k, d, n)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        x = rng.random((m, k))
        out = np.maximum(np.abs(x[:, 0] - x[:, k - 1]), _EPS_CLAMP) ** (-d)
        for i in range(k - 1):
            out *= np.maximum(np.abs(x[:, i] - x[:, i + 1]), _EPS_CLAMP) ** (-d)
        return out

    return _finish(*_run_chunks(sampler, n, seed, workers), n, seed)


def mc_region(spec: RegionSpec, d: float, n: int, seed: int,
              workers: int | None = None) -> MCEstimate:
    """Monte-Carlo estimate of one ordered-simplex region integral.

    k uniforms sorted descending sample the simplex; the estimator averages
    the integrand over sorted samples and divides by k! (the simplex volume).
    """
    _check_domain(spec.k, d, n)
    kfact = math.factorial(spec.k)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        y = np.sort(rng.random((m, spec.k)), axis=1)[:, ::-1]
        out = np.full(m, 1.0 / kfact)
        for i, j in spec.factor_pairs:
            out *= np.maximum(y[:, i - 1] - y[:, j - 1], _EPS_CLAMP) ** (-d)
        return out

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
