"""Closed forms for the Rosenblatt cumulants of orders 2 through 5.

The k-th cumulant is kappa_k = 2^(k-1) (k-1)! sigma(d)^k c_k, where c_k
is the cyclic singular integral over the unit hypercube and
sigma(d) = sqrt((1/2)(1-2d)(1-d)).  c_3 is a pure ratio of Gamma
functions; c_4 and c_5 decompose over ordered-simplex regions whose
closed forms mix Gamma ratios with 3F2/4F3 values at unit argument.

Region conventions: c_4 = 8 (c_4(1)+c_4(2)+c_4(3)) over three regions,
c_5 = 10 * sum of twelve regions.  Regions 9 and 10 of order five share
the closed forms of regions 2 and 5 (they reduce to the same expression
from different starting integrals), and regions 6 and 12 carry
Gamma(2d-1) factors that pole at both endpoints, so they are only
defined on the open interval.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .specfun import (
    _EPS,
    HypParams,
    ParameterDomainError,
    PoleError,
    SeriesResult,
    gamma,
    gamma_ratio,
    pfq_at_1,
    pfq_at_1_batch,
)
from .thomae import eval_3f2_optimized

METHOD_CLOSED = "closed-form"
METHOD_VT = "vt-operator"
METHOD_MC = "mc-oracle"


class DomainError(ParameterDomainError):
    """d outside [0, 0.5] (or an endpoint where a region form poles)."""


@dataclass(frozen=True)
class CumulantReport:
    """One computed cumulant: value, provenance, and error accounting."""

    order: int
    d: float
    value: float
    method: str
    error_estimate: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("cumulant order must be >= 2")
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


def _check_d(d: float, *, open_interval: bool = False) -> float:
    d = float(d)
    if open_interval:
        if not (0.0 < d < 0.5):
            raise DomainError(f"d={d} outside the open interval (0, 0.5)")
    elif not (0.0 <= d <= 0.5):
        raise DomainError(f"d={d} outside [0, 0.5]")
    return d


def sigma(d: float) -> float:
    """Normalizing constant sqrt((1/2)(1-2d)(1-d))."""
    d = _check_d(d)
    return math.sqrt(0.5 * (1.0 - 2.0 * d) * (1.0 - d))


def kappa_from_c(k: int, d: float, c_k: float) -> float:
    """kappa_k = 2^(k-1) (k-1)! sigma(d)^k c_k."""
    if k < 2:
        raise ValueError("cumulant order must be >= 2")
    d = _check_d(d)
    return 2.0 ** (k - 1) * math.factorial(k - 1) * sigma(d) ** k * c_k


def _f32(top, bottom) -> SeriesResult:
    return eval_3f2_optimized(HypParams(top, bottom))


# ---------------------------------------------------------------------------
# orders 2 and 3
# ---------------------------------------------------------------------------

def c2_closed(d: float) -> float:
    """c_2 = 1/((1-2d)(1-d)), the double integral of |x-u|^(-2d); kappa_2 = 1."""
    d = _check_d(d)
    if d == 0.5:
        raise DomainError("c_2 diverges at d = 0.5 (kappa_2 stays 1 via sigma -> 0)")
    return 1.0 / ((1.0 - 2.0 * d) * (1.0 - d))


def c3_closed(d: float) -> float:
    """c_3 = 6 Gamma(1-d)^2 Gamma(2-3d) / (Gamma(2-2d) Gamma(4-3d))."""
    d = _check_d(d)
    return (
        6.0 * gamma(1 - d) ** 2
        * gamma_ratio(2 - 3 * d, 2 - 2 * d)
        / gamma(4 - 3 * d)
    )


# ---------------------------------------------------------------------------
# order 4
# ---------------------------------------------------------------------------

def c4_region(i: int, d: float) -> float:
    """Closed form of ordered-simplex region i (1..3) of the order-4 integral."""
    d = _check_d(d)
    if i == 1:
        return gamma(1 - d) ** 3 * gamma(3 - 4 * d) / (gamma(3 - 3 * d) * gamma(5 - 4 * d))
    if i == 2:
        return gamma(1 - d) ** 4 * gamma(3 - 4 * d) / (
            2 * gamma(2 - 2 * d) ** 2 * gamma(5 - 4 * d)
        )
    if i == 3:
        f = _f32((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d))
        return gamma(3 - 4 * d) / (2 * (1 - d) ** 2 * gamma(5 - 4 * d)) * f.value
    raise ValueError("order-4 region index must be 1, 2 or 3")


def _c4_families(d: float):
    """The (top, bottom) parameters of the one 3F2 in c_4."""
    return (((2 - 2 * d, 1.0, d), (3 - 2 * d, 2 - d)),)


def _c4_assemble(d: float, values) -> SeriesResult:
    """c_4 from the value of its 3F2 family."""
    (f,) = values
    g1 = gamma(1 - d)
    g2 = gamma(2 - d)
    bracket = f.value + g1**2 * g2**2 / gamma(2 - 2 * d) ** 2 + 2 * g1 * g2**2 / gamma(3 - 3 * d)
    scale = 1.0 / ((1 - d) ** 3 * (3 - 4 * d))
    return SeriesResult(scale * bracket, scale * (f.error_estimate + 8 * _EPS * bracket), f.n_terms)


def c4_closed(d: float) -> SeriesResult:
    """c_4 as the three-term bracket over (1-d)^3 (3-4d); 8 times the region sum.

    Equivalently kappa_4 = 12(1-2d)^2/((1-d)(3-4d)) * bracket.
    """
    return c_closed(4, d)


# ---------------------------------------------------------------------------
# order 5
# ---------------------------------------------------------------------------

REGION3_VARIANTS = ("corrected", "printed")


def c5_region(i: int, d: float, *, region3_variant: str = "corrected") -> float:
    """Closed form of ordered-simplex region i (1..12) of the order-5 integral.

    Regions 6 and 12 require 0 < d < 0.5 (Gamma(2d-1) poles at both
    endpoints).  They keep their digits down to d ~ 1e-16: Gamma(2d-1)/Gamma(2d)
    is written 1/(2d-1), Gamma(2d-1)/Gamma(d) as
    Gamma(1+2d)/(2(2d-1)Gamma(1+d)), and 3F2(1, d, 2d-1; 2-d, 2d; 1) as
    1 + (2d-1)/(2(2-d)) 3F2(1, 2d, d+1; 3-d, 2d+1; 1), which takes the
    factor d/(2d) = 1/2 of every later term exactly.  Within 1e-13 of
    d = 0.5 their 1/(2d-1) terms cancel to noise, and they raise PoleError.

    Region 3's second term is printed with denominator Gamma(6-5d)^2 in
    the source; the Monte-Carlo oracle selects the "corrected" reading
    Gamma(6-5d)Gamma(4-4d), under which the term is exactly the region-2
    value.  The rejected reading stays available as region3_variant="printed".
    """
    if region3_variant not in REGION3_VARIANTS:
        raise ValueError(f"unknown region3_variant {region3_variant!r}")
    d = _check_d(d, open_interval=i in (6, 12))
    g1d = gamma(1 - d)
    g45 = gamma(4 - 5 * d)
    g65 = gamma(6 - 5 * d)
    g44 = gamma(4 - 4 * d)
    g33 = gamma(3 - 3 * d)
    g22 = gamma(2 - 2 * d)

    if i == 1:
        return g1d**4 * g45 / (g44 * g65)
    if i in (2, 9):
        f = _f32((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d))
        return g1d**2 / (1 - d) * g45 * g22 / (g65 * g44) * f.value
    if i == 3:
        f = _f32((d, 1 - d, 3 - 3 * d), (2 - d, 4 - 4 * d))
        first = g1d**3 / ((1 - d) * g22) * (g45 / g44) * (g33 / g65) * f.value
        if region3_variant == "corrected":
            return first - c5_region(2, d)
        f2 = _f32((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d))
        return first - g1d**2 / (1 - d) * g45 * g22 / (g65 * g65) * f2.value
    if i == 4:
        f = _f32((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d))
        return gamma(1 - d) / (2 * (1 - d) ** 2) * g33 * g45 / (g44 * g65) * f.value
    if i in (5, 10):
        f = pfq_at_1(HypParams((1.0, d, 2 - 2 * d, 3 - 3 * d), (2 - d, 3 - 2 * d, 4 - 4 * d)))
        return g1d / (2 * (1 - d) ** 2) * g33 * g45 / (g44 * g65) * f.value
    if i in (6, 12):
        if 1 - 2 * d < 1e-13:
            raise PoleError(f"Gamma(2d-1) of region {i} is not cancelled at d={d}")
        f = _f32((1.0, 2 * d, d + 1), (3 - d, 2 * d + 1))
        f1 = 1 + (2 * d - 1) / (2 * (2 - d)) * f.value
        front = g1d / (1 - d) / (2 * d - 1) * g33 * g45 / (g65 * g44) * f1
        back = (g1d**3 * g45 / (g44 * g65) * g22 * gamma_ratio(1 + 2 * d, 1 + d)
                / (2 * (2 * d - 1)))
        if i == 12:
            return back - front
        f3 = _f32((1.0, d, 3 - 3 * d), (2 - d, 4 - 3 * d))
        return front - back + g1d**2 / (3 * (1 - d) ** 2) * g45 / (g65 * g22) * f3.value
    if i == 7:
        f1 = _f32((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d))
        f2 = pfq_at_1(HypParams((1.0, d, 2 - 2 * d, 3 - 3 * d), (2 - d, 3 - 2 * d, 4 - 4 * d)))
        return (
            g1d**2 / (2 * (1 - d) ** 2) * g45 / (g65 * g22) * f1.value
            - g1d / (1 - d) ** 2 * (g33 / g44) * (g45 / g65) * f2.value
        )
    if i == 8:
        f = _f32((1.0, d, 3 - 3 * d), (3 - 2 * d, 4 - 3 * d))
        return g1d**2 / (3 * (1 - d)) * g45 / (g65 * gamma(3 - 2 * d)) * f.value
    if i == 11:
        f1 = _f32((1.0, d, 3 - 3 * d), (2 - d, 4 - 3 * d))
        f2 = _f32((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d))
        return (
            g1d**2 / (3 * (1 - d) ** 2) * g45 / (g65 * g22) * f1.value
            - g1d * g45 * g33 / (2 * (1 - d) ** 2 * g65 * g44) * f2.value
        )
    raise ValueError("order-5 region index must be in 1..12")


def _c5_families(d: float):
    """The (top, bottom) parameters of the five 3F2 in c_5."""
    return (
        ((d, 1 - d, 3 - 3 * d), (2 - d, 4 - 4 * d)),
        ((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d)),
        ((1.0, d, 3 - 3 * d), (3 - 2 * d, 4 - 3 * d)),
        ((1.0, d, 3 - 3 * d), (2 - d, 4 - 3 * d)),
        ((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d)),
    )


def _c5_assemble(d: float, values) -> SeriesResult:
    """c_5 from the values of its five 3F2 families."""
    g1d = gamma(1 - d)
    g22 = gamma(2 - 2 * d)
    g33 = gamma(3 - 3 * d)
    g44 = gamma(4 - 4 * d)
    one = 1.0 - d
    weights = (
        g1d**3 / (one * g22) * g33 / g44,
        g1d**2 * g22 / (one * g44),
        g1d**2 / (6 * one**2 * g22),
        2 * g1d**2 / (3 * one**2 * g22),
        g1d**2 / (2 * one**2 * g22),
    )
    terms = [(g1d**4 / g44, SeriesResult(1.0, 0.0, 0)), *zip(weights, values)]
    ratio = gamma_ratio(4 - 5 * d, 6 - 5 * d)
    value = 10.0 * ratio * sum(w * f.value for w, f in terms)
    err = 10.0 * abs(ratio) * (
        sum(abs(w) * f.error_estimate for w, f in terms) + 16 * _EPS * abs(value)
    )
    n = max(f.n_terms for _, f in terms)
    return SeriesResult(value, err, n)


def c5_closed(d: float) -> SeriesResult:
    """c_5 = 10 S, where S collects the six surviving terms of the region sum.

    The 4F3 contributions of regions 5, 7 and 10 cancel in the sum, as do
    the Gamma(2d-1) pieces of regions 6 and 12; what survives is a
    Gamma(4-5d)/Gamma(6-5d) factor times six 3F2-type terms.
    """
    return c_closed(5, d)


# c_k = assemble(d, values of families(d)) for the orders whose closed form has 3F2 terms
_SERIES_FORMS = {4: (_c4_families, _c4_assemble), 5: (_c5_families, _c5_assemble)}


# ---------------------------------------------------------------------------
# dispatch, characteristic function, tables
# ---------------------------------------------------------------------------

SUPPORTED_ORDERS = (2, 3, 4, 5)


def _check_order(k: int) -> None:
    if k not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported cumulant order {k} (supported: 2..5)")


def c_closed(k: int, d: float) -> SeriesResult:
    """The closed-form cumulant factor c_k(d) for k in 2..5, with its error estimate."""
    _check_order(k)
    if k == 2:
        c2 = c2_closed(d)
        return SeriesResult(c2, 4 * _EPS * c2, 0)
    if k == 3:
        c3 = c3_closed(d)
        return SeriesResult(c3, 8 * _EPS * c3, 0)
    d = _check_d(d)
    families, assemble = _SERIES_FORMS[k]
    return assemble(d, [_f32(*family) for family in families(d)])


def kappa(k: int, d: float) -> CumulantReport:
    """kappa_k(d) for k in 2..5; kappa_2 is identically 1.

    For k >= 3 the endpoints are exact: sigma vanishes at d = 0.5, and at
    d = 0 every c_k is 1, leaving 2^(k-1) (k-1)! 2^(-k/2).
    """
    d = _check_d(d)
    _check_order(k)
    if k == 2:
        return CumulantReport(2, d, 1.0, METHOD_CLOSED, 0.0)
    if d == 0.5:
        return CumulantReport(k, d, 0.0, METHOD_CLOSED, 0.0)
    if d == 0.0:
        exact = 2.0 ** (k - 1) * math.factorial(k - 1) * 0.5 ** (k / 2)
        return CumulantReport(k, d, exact, METHOD_CLOSED, 0.0)
    return _closed_report(k, d, c_closed(k, d))


def _closed_report(k: int, d: float, c: SeriesResult) -> CumulantReport:
    diagnostics = {"series_terms": c.n_terms} if k >= 4 else {}
    return CumulantReport(
        k, d, kappa_from_c(k, d, c.value), METHOD_CLOSED,
        kappa_from_c(k, d, c.error_estimate), diagnostics,
    )


@dataclass(frozen=True)
class CharacteristicFunctionValue:
    value: complex
    diverged: bool


def characteristic_function(theta: float, d: float, K: int = 5) -> CharacteristicFunctionValue:
    """Truncated characteristic function exp(sum_{k=2}^K (i theta)^k kappa_k / k!).

    Equivalent to the exponent (1/2) sum (2 i theta sigma)^k c_k / k written
    through the cumulants.  The power series converges only near the
    origin; the value is flagged (not rejected) when the last included
    term grows over its predecessor.
    """
    d = _check_d(d)
    if K > 5:
        raise ValueError("orders above 5 are not supported")
    if K < 2:
        raise ValueError("truncation order must be at least 2")
    total = 0.0j
    mags = []
    for k in range(2, K + 1):
        term = (1j * theta) ** k * kappa(k, d).value / math.factorial(k)
        total += term
        mags.append(abs(term))
    diverged = len(mags) >= 2 and mags[-1] > mags[-2] > 0.0
    if total.real > 709.0:  # exp would overflow; the series left its disc anyway
        return CharacteristicFunctionValue(complex(math.inf, 0.0), True)
    return CharacteristicFunctionValue(cmath.exp(total), diverged)


def cumulant_table(grid, orders) -> list[CumulantReport]:
    """Closed-form reports for every (order, d) pair, sorted by (order, d).

    Row by row these are kappa(k, d); the 3F2 values of every c_4 and c_5
    row at interior d are summed in one pfq_at_1_batch call.
    """
    rows = sorted((int(k), _check_d(d)) for k in orders for d in grid)
    for k, _ in rows:
        _check_order(k)
    series = [(k, d) for k, d in rows if k in _SERIES_FORMS and 0.0 < d < 0.5]
    families = [_SERIES_FORMS[k][0](d) for k, d in series]
    values = iter(pfq_at_1_batch([HypParams(*f) for row in families for f in row]))
    c = {(k, d): _SERIES_FORMS[k][1](d, [next(values) for _ in row])
         for (k, d), row in zip(series, families)}
    return [_closed_report(k, d, c[k, d]) if (k, d) in c else kappa(k, d) for k, d in rows]
