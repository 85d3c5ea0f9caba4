"""Scalar special functions underpinning the cumulant formulas.

Gamma machinery (log-domain with sign tracking, pole-safe ratios),
Gauss 2F1 including evaluation at the unit argument, a generalized
(q+1)Fq-at-unity evaluator, and the series engine that sums Gauss-type
series at and close to unit argument.

One engine, _series_dot, sums sum_j w_j x^j E_j with
w_j = prod (p)_j/(q)_j over (top, bottom) parameter pairs, j! being the
pair (a, 1): a (q+1)Fq at unit argument on a prefix of the unit table
E_j = 1, Gauss 2F1 near x = 1 on the whole unit table, and the operator
route's telescoping sums on its E tables.  Past the table the sum is one
Euler-Maclaurin integral of the Gamma-ratio expansion of w_j.  Terms at
unit argument decay only like j^-(1+s), s the convergence margin
sum(bottom) - sum(top), yet the integral costs about the same for any s > 0;
near x = 1 it stays accurate down to 1 - x ~ 1e-280, with no special case
where c - a - b is an integer.  Below unit argument one rule,
_pfq_below_1, sums every (q+1)Fq: term by term to machine precision up
to x = 0.85 (as p <= q at x = 1 is), the engine above.

The engine takes a leading axis of parameter sets, so pfq_at_1_batch sums
many (q+1)Fq at unit argument in one call; pfq_at_1 is the batch of one.
A cumulant table is one such call: cumulants.cumulant_table gathers the
3F2 of every c_4 and c_5 row first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class SpecialFunctionError(Exception):
    """Base class for numerical special-function failures."""


class PoleError(SpecialFunctionError):
    """A Gamma factor is evaluated at a non-positive integer with no cancelling pole."""


class DivergenceError(SpecialFunctionError):
    """The requested series diverges (non-positive convergence margin)."""


class NonConvergenceError(SpecialFunctionError):
    """A power series reached its term cap before its terms fell below an ulp of the sum."""


class ParameterDomainError(SpecialFunctionError):
    """Arguments outside the supported parameter domain."""


_INT_TOL = 1e-12


def _nonpos_int(x: float) -> bool:
    return x < 0.5 and abs(x - round(x)) <= _INT_TOL and round(x) <= 0


# ---------------------------------------------------------------------------
# Gamma machinery
# ---------------------------------------------------------------------------

def log_gamma(x: float) -> tuple[float, int]:
    """log|Gamma(x)| and the sign of Gamma(x).

    Gamma alternates sign on the negative axis: positive on (-2,-1),
    negative on (-1,0), and so on.
    """
    if _nonpos_int(x):
        raise PoleError(f"Gamma pole at x={x}")
    if x > 0:
        return math.lgamma(x), 1
    sign = -1 if math.floor(-x) % 2 == 0 else 1
    return math.lgamma(x), sign


def gamma(x: float) -> float:
    """Gamma(x) for non-pole x; prefer gamma_ratio for expressions with cancelling poles."""
    lg, sign = log_gamma(x)
    return sign * math.exp(lg)


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) with pole pairs cancelled through the recurrence shift.

    Both arguments are shifted up by Gamma(x) = Gamma(x+m)/(x...(x+m-1))
    until pole-free.  When both a and b sit at non-positive integers the
    zero factors cancel one-for-one, which realizes the equal-rate limit
    lim Gamma(a+eps)/Gamma(b+eps); this is exact for same-variable pairs
    such as Gamma(2d-1)/Gamma(2d).  A pole in a alone is an error; a pole
    in b alone gives 0.
    """
    m = 0
    lo = min(a, b)
    if lo < 1.0:
        m = int(math.ceil(1.0 - lo)) + 1
    num = [b + i for i in range(m)]  # factors multiplying Gamma(a+m)/Gamma(b+m)
    den = [a + i for i in range(m)]
    num_zero = [i for i, v in enumerate(num) if abs(v) < 1e-13]
    den_zero = [i for i, v in enumerate(den) if abs(v) < 1e-13]
    if num_zero and den_zero:
        num.pop(num_zero[0])
        den.pop(den_zero[0])
    elif den_zero:
        raise PoleError(f"Gamma({a}) pole is not cancelled by Gamma({b})")
    elif num_zero:
        return 0.0
    log = math.lgamma(a + m) - math.lgamma(b + m)
    sign = 1.0
    for v in num:
        log += math.log(abs(v))
        sign = -sign if v < 0 else sign
    for v in den:
        log -= math.log(abs(v))
        sign = -sign if v < 0 else sign
    return sign * math.exp(log)


class _GammaProduct:
    """prod Gamma(numerator) / prod Gamma(denominator) in log space.

    A numerator argument at a pole sets `pole`, a denominator argument at
    a pole sets `zero`; the remaining factors accumulate into `log` and
    `sign`.
    """

    def __init__(self, numerator, denominator) -> None:
        self.log = 0.0
        self.sign = 1
        self.pole = self.zero = False
        for x in numerator:
            if _nonpos_int(x):
                self.pole = True
            else:
                lg, s = log_gamma(x)
                self.log += lg
                self.sign *= s
        for x in denominator:
            if _nonpos_int(x):
                self.zero = True
            else:
                lg, s = log_gamma(x)
                self.log -= lg
                self.sign *= s

    def value(self) -> float:
        if self.pole:
            raise PoleError("uncancelled Gamma pole in prefactor")
        if self.zero:
            return 0.0
        return self.sign * math.exp(self.log)


# ---------------------------------------------------------------------------
# Hypergeometric parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypParams:
    """Numerator/denominator parameter lists of a generalized hypergeometric series."""

    top: tuple[float, ...]
    bottom: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(float(a) for a in self.top))
        object.__setattr__(self, "bottom", tuple(float(b) for b in self.bottom))

    @property
    def margin(self) -> float:
        """Convergence margin s = sum(bottom) - sum(top); terms at 1 decay like k^-(1+s)."""
        return sum(self.bottom) - sum(self.top)

    def terminating_order(self) -> int | None:
        """Smallest |a| over non-positive-integer top parameters, or None."""
        orders = [int(round(-a)) for a in self.top if _nonpos_int(a)]
        return min(orders) if orders else None

    def validate(self) -> None:
        """Reject bottom parameters at non-positive integers unless a top terminates first."""
        term = self.terminating_order()
        for b in self.bottom:
            if _nonpos_int(b) and (term is None or term >= int(round(-b)) + 1):
                raise PoleError(
                    f"bottom parameter {b} is a non-positive integer; series undefined"
                )


class SeriesResult(NamedTuple):
    value: float
    error_estimate: float
    n_terms: int


# ---------------------------------------------------------------------------
# pFq: power series, and (q+1)Fq at unit argument through the series engine
# ---------------------------------------------------------------------------

_MAX_TERMS = 1_000_000  # term cap of the power series at |x| < 1
_EPS = float(np.finfo(float).eps)


def pfq_at_1(params: HypParams) -> SeriesResult:
    """Generalized hypergeometric series at unit argument: pfq_at_1_batch of one set."""
    return pfq_at_1_batch([params])[0]


def pfq_at_1_batch(sets: list[HypParams]) -> list[SeriesResult]:
    """Generalized hypergeometric series at unit argument, one result per set.

    A terminating series is summed exactly and p <= q by its factorially
    convergent power series.  A (q+1)Fq series, whose terms decay like
    k^-(1+s) with s the convergence margin, is summed by the series
    engine at lam = 0: its j! joins the bottom parameters, tops pair with
    bottoms in order, and the sum runs over a prefix of the unit table
    with the Euler-Maclaurin tail past it.  The prefix length J is at least
    1024, a multiple of the engine's row and at most the whole table;
    within that it grows until g_7 t^-6, the first term the tail's
    Gamma-ratio expansion leaves out (about the seventh power of the
    largest parameter), is below an ulp at t = J.  The error estimate,
    relative to the value, is that term at J plus sqrt(J) ulps for the
    rounding of the J-term product chain.

    Every (q+1)Fq set with the same J goes through one engine call: sets
    with fewer pairs are padded with the pair (1, 1), which is exact (a
    factor 1 in every term ratio and 0 in every power sum).  A set that
    diverges or poles raises as it would alone.
    """
    out: list = [None] * len(sets)
    engine = []
    for i, params in enumerate(sets):
        params.validate()
        top, bottom = params.top, params.bottom
        if len(top) > len(bottom) + 1:
            raise DivergenceError("series with p > q+1 diverges at nonzero argument")
        if params.terminating_order() is not None or len(top) <= len(bottom):
            out[i] = _pfq_series(params, 1.0)  # terminating, or factorial decay
        elif (s := params.margin) <= 0:
            raise DivergenceError(f"convergence margin s={s:.6g} <= 0 at unit argument")
        else:
            engine.append(i)
    if not engine:
        return out
    width = max(len(sets[i].top) for i in engine)
    pairs = np.array([(*zip(sets[i].top, (*sets[i].bottom, 1.0)),
                       *((1.0, 1.0),) * (width - len(sets[i].top))) for i in engine])
    powers = np.arange(8.0)
    g7 = np.abs(_power_sums(pairs, powers) @ _OMITTED_ROW)
    J = np.minimum(_J_TABLE, np.maximum(1024, _ROW * np.ceil((g7 / _EPS) ** (1 / 6) / _ROW)))
    for n in np.unique(J).astype(int).tolist():
        rows = np.flatnonzero(J == n)
        values = _series_dot(_ETable(_UNIT.E[:n], (0.0,), (1.0,)), pairs[rows], 1.0, 0.0)
        for row, value in zip(rows.tolist(), values.tolist()):
            error = (math.sqrt(n) * _EPS + g7[row] / (n - 0.5) ** 6) * abs(value)
            out[engine[row]] = SeriesResult(value, float(error), n)
    return out


def _pfq_series(params: HypParams, x: float) -> SeriesResult:
    """Plain pFq power series for |x| < 1 (or factorially convergent p <= q).

    A series that terminates at order m (top parameter -m) sums exactly its
    m + 1 terms, so it never reaches a zero bottom divisor past term m, and
    reports error 0; any other stops after three terms in a row below one
    ulp of the partial sum.
    """
    params.validate()
    m = params.terminating_order()
    S = 1.0
    t = 1.0
    small = 0
    for k in range(_MAX_TERMS if m is None else m):
        r = x / (k + 1.0)
        for a in params.top:
            r *= a + k
        for b in params.bottom:
            r /= b + k
        t *= r
        S += t
        if m is None and abs(t) < _EPS * abs(S):
            small += 1
            if small >= 3:
                return SeriesResult(S, abs(t), k + 1)
        else:
            small = 0
    if m is not None:
        return SeriesResult(S, 0.0, m + 1)
    raise NonConvergenceError(f"pFq series did not converge within {_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# Series engine at and near unit argument: sum_j prod (p)_j/(q)_j x^j E_j
# ---------------------------------------------------------------------------

_J_TABLE = 1 << 14     # tabulated E_j range; tails are fitted beyond
_CUTOFF = 60.0         # series terms below e^-60 (relative to w_0 = 1) are dropped
_ROW = 128             # x^j = x^(R q) x^r with r < R; J is a multiple of R
_EDGE = 36.0           # the tail integral leaves ln t for Gauss-Laguerre at lam t = 36
_EDGE_PANELS = 12      # unit panels in ln t below that point
_DOUBLINGS = 10        # at least this many panels [2^i - 1, 2^(i+1) - 1] in ln(t/t0) first
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_LAG_NODES, _LAG_WEIGHTS = np.polynomial.laguerre.laggauss(16)
# ln Gamma(t+b) - ln Gamma(t+c) = (b-c) ln t + sum_{k=2..6} g_k t^(1-k) + O(t^-6)
# (DLMF 5.11.8) with g_k = (-1)^k (B_k(b) - B_k(c)) / (k(k-1)) for the Bernoulli
# polynomials B_k; row k-2 holds the weights of b^m - c^m, m = 0..6, in g_k
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0)  # B_0 .. B_7
_LNGAMMA_K = np.arange(2, 7)
_LNGAMMA_ROWS = np.array([[(-1) ** k * math.comb(k, m) * _BERNOULLI[k - m] / (k * (k - 1))
                           if m <= k else 0.0 for m in range(7)] for k in _LNGAMMA_K])
# g_7, the first term the expansion leaves out: the weights of b^m - c^m, m = 0..7
_OMITTED_ROW = np.array([-math.comb(7, m) * _BERNOULLI[7 - m] / 42 for m in range(8)])


@dataclass(frozen=True)
class _ETable:
    E: np.ndarray
    tail_exponents: tuple[float, ...]
    tail_coefs: tuple[float, ...]


# E_j = 1 exactly: _series_dot on it, or on a prefix of it, sums a (q+1)Fq
_UNIT = _ETable(np.ones(_J_TABLE), (0.0,), (1.0,))


def _like(values: np.ndarray, x):
    """A float for a scalar abscissa, the node array otherwise."""
    return float(values[0]) if np.ndim(x) == 0 else values


def _decay_rate(x, z):
    """lam = -ln(x) from whichever of x, 1-x is known accurately (inf at x = 0)."""
    with np.errstate(divide="ignore"):
        return np.where(z < 0.5, -np.log1p(-z), -np.log(x))


def _power_sums(pairs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """sum of p^m - q^m over each set's (p, q) pairs: one row per set, one column per m."""
    return (pairs[..., :1] ** powers - pairs[..., 1:] ** powers).sum(axis=-2)


@np.errstate(divide="ignore", under="ignore")
def _series_tail(table: _ETable, sets: np.ndarray, w_J: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_{j>=J} w_j e^(-lam j) E_j for each set and decay rate lam, J = len(table.E).

    Midpoint Euler-Maclaurin: the integral of f(t) = w(t) e^(-lam t) E(t)
    from t0 = J - 1/2, plus f'(t0)/24.  w(t) continues
    w_j = prod (p)_j/(q)_j over a set's (top, bottom) pairs (p, q) from the
    cumprod's w_J through the large-t expansion of
    ln Gamma(t+p) - ln Gamma(t+q) (DLMF 5.11.8, five Bernoulli terms)
    summed over the pairs, and E(t) is the table's fitted law, so every
    exponent shares one quadrature.  The integral is taken in
    u = ln(t/t0), where a power law is exponential: doubling
    Gauss-Legendre panels up to 12 units below the cut-off lam t = 36,
    unit panels across it, and Gauss-Laguerre in t beyond it.  Logarithms
    of t throughout keep t itself from overflowing when lam is near the
    smallest normal float; lam = 0 has no cut-off and the doubling panels
    reach u = 42/r, where the slowest law term t f(t) ~ e^(-r u) is below
    e^-42 (at least u = 1023).  With the Jacobian dt = t du, w(t) t falls
    like t^-s for the margin s = sum(q) - sum(p) - 1, which is rounded
    once from the parameters: formed as 1 + sum(p - q) it would carry an
    absolute error of an ulp of 1, a relative error of eps/s in a
    tail-dominated sum.

    sets is (N, pairs, 2) and w_J (N,); the result is (N, len(lam)).  Only
    the (set, node, panel) triples of nonzero width are integrated, each
    summed back to its (set, node) in panel order, as it would be alone.
    """
    J = len(table.E)
    t0 = J - 0.5
    ln_t0 = math.log(t0)
    exps = np.asarray(table.tail_exponents)
    coefs = np.asarray(table.tail_coefs)
    s = np.array([math.fsum((-1.0, *row))
                  for row in np.concatenate((sets[..., 1], -sets[..., 0]), axis=1).tolist()])
    expo = -1.0 - s  # w_j ~ j^expo
    g = _power_sums(sets, np.arange(7.0)) @ _LNGAMMA_ROWS.T
    ln_wJ = expo * math.log(J) + g @ float(J) ** (1 - _LNGAMMA_K)
    N, M = len(sets), len(lam)

    def terms(k, ln_t, power, shift):
        """w(t)/w_J t^(power + e) e^shift per law exponent e (leading axis); row r is set k[r]'s."""
        inv = np.exp(-ln_t)
        g_row = g[k].T[..., None]
        ratio = g_row[-1]
        for gk in g_row[-2::-1]:
            ratio = gk + inv * ratio
        ratio = power[k, None] * ln_t + inv * ratio - ln_wJ[k, None]
        return np.exp(np.multiply.outer(exps, ln_t) + (ratio + shift))

    def weigh(weights, by_exponent):
        """sum over the law's exponents (leading axis) with the given weights."""
        return (weights @ by_exponent.reshape(len(weights), -1)).reshape(by_exponent.shape[1:])

    ln_lam = np.log(lam)
    # panel edges in u per set and node: doublings clipped at u_edge - 12, then unit steps
    # to u_edge; past u = 42/r the slowest law term, t f(t) ~ e^(-r u), is below e^-42
    u_end = 42.0 / np.maximum(s - exps.max(), 0.0)  # inf where t f(t) does not decay
    u_max = np.max(u_end, where=u_end < np.inf, initial=0.0)
    doublings = max(_DOUBLINGS, math.ceil(math.log2(u_max + 1.0)))
    u_edge = np.minimum(math.log(_EDGE) - ln_lam - ln_t0, 2.0**doublings - 1.0 + _EDGE_PANELS)
    u_lo = (u_edge - _EDGE_PANELS)[:, None]
    edges = np.minimum(np.concatenate([
        np.minimum(2.0 ** np.arange(doublings + 1) - 1.0, np.maximum(u_lo, 0.0)),
        np.maximum(u_lo + np.arange(1, _EDGE_PANELS + 1), 0.0),
    ], axis=1), u_end[:, None, None])
    half = 0.5 * np.diff(edges, axis=2)
    k, i, p = np.nonzero(half > 0.0)
    half = half[k, i, p, None]
    ln_t = ln_t0 + edges[k, i, p, None] + half * (_GL_NODES + 1.0)
    lam_t = np.exp(ln_lam[i, None] + ln_t)
    law = weigh(coefs, terms(k, ln_t, -s, -lam_t))  # Jacobian t: t^expo t = t^-s
    panels = np.bincount(k * M + i, np.sum(law * half * _GL_WEIGHTS, axis=1), N * M)

    # beyond the panels: t = t_g + v/lam with lam t_g = max(36, lam t0), dt = dv/lam
    beyond = np.zeros(N * M)
    k_all, i_all = np.divmod(np.arange(N * M), M)
    live = lam[i_all] > 0.0
    if live.any():
        k, i = k_all[live], i_all[live]
        lam_tg = np.maximum(_EDGE, lam[i, None] * t0)
        ln_t = np.log(lam_tg + _LAG_NODES) - ln_lam[i, None]
        law = weigh(coefs, terms(k, ln_t, expo, -lam_tg - ln_lam[i, None]))
        beyond[live] = np.sum(law * _LAG_WEIGHTS, axis=1)  # not @: BLAS rounds by row count

    # Euler-Maclaurin correction f'(t0)/24, with f'/f = (ln w)' - lam + e/t
    at_t0 = terms(k_all, np.full((N * M, 1), ln_t0), expo, -lam[i_all, None] * t0)[..., 0]
    slope = (expo / t0 + g @ ((1 - _LNGAMMA_K) * t0 ** -_LNGAMMA_K))[k_all] - lam[i_all]
    df0 = weigh(coefs, at_t0) * slope + weigh(coefs * exps / t0, at_t0)
    return w_J[:, None] * (panels + beyond + df0 / 24.0).reshape(N, M)


def _pair_weights(sets: np.ndarray, n: int) -> np.ndarray:
    """w_j = prod (p)_j/(q)_j over each set's pairs for j = 0..n: one row per set."""
    j = np.arange(n, dtype=float)
    w = np.ones((len(sets), n + 1))
    ratio = w[:, 1:]
    step = np.empty_like(ratio)
    for p, q in sets.transpose(1, 2, 0)[..., None]:
        # (p+j)/(q+j) as 1 - (q-p)/(q+j): p + j rounds alike across a whole binade
        np.divide(q - p, np.add(q, j, out=step), out=step)
        ratio *= np.subtract(1.0, step, out=step)
    np.cumprod(ratio, axis=1, out=ratio)
    return w


@np.errstate(divide="ignore", under="ignore")
def _series_dot(table: _ETable, pairs, x, lam):
    """sum_j w_j x^j E_j, table plus tail, at each node.

    w_j = prod (p)_j/(q)_j over the (top, bottom) pairs (p, q); j! is the
    pair (a, 1), so ((b, c), (a, 1)) on the unit table (E_j = 1) is
    2F1(a, b; c; x), and pairs for every top and bottom parameter at
    lam = 0 sum a (q+1)Fq at unit argument.  pairs is one set of pairs, or
    an (N, pairs, 2) array of N sets that share the table, each set's row
    as that set sums alone: (N,) at a scalar x and lam, (N, M) at M nodes.  Terms past
    j = 60/lam are dropped, so the sum runs to the longest cut-off of the nodes.
    For 2F1(1, b; c; x), |w_j| <= 1 (c > b, and c > |b| when b < 0) and
    the dropped terms are below e^-60; for 2F1(a, b; c; x) they are about
    60^q e^-60 / q! of the sum, q = a + b - c - 1, 1e-12 near
    a + b - c = 14.  Swept against mpmath for a, b in [-5, 5], c in
    (-3, 8), 1 - x in [1e-12, 0.15]: see hyp_2f1.

    Writing j = R q + r and x^j = e^(-lam R q) e^(-lam r) turns it into one
    matrix product per set, sum_q e^(-lam R q) sum_r w_j E_j e^(-lam r),
    with no product chain along j.  Only nodes whose cut-off passes the
    table get the tail.  The powers come from lam = -ln x, which is exact
    near x = 1 where x itself has rounded; x only sets the shape of the
    result.
    """
    sets = np.asarray(pairs, dtype=float)
    batch = sets.ndim == 3
    sets = sets.reshape(-1, *sets.shape[-2:])
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    J = len(table.E)
    n_terms = np.minimum(np.ceil(_CUTOFF / lams) + 1.0, J).astype(np.intp)
    m = int(n_terms.max(initial=1))
    R = min(m, _ROW)
    Q = -(-m // R)
    w = _pair_weights(sets, Q * R)
    weights = w[:, :-1]
    weights *= table.E[:Q * R]
    weights = weights.reshape(-1, Q, R)
    rate = np.minimum(lams, 1e3)[:, None]  # x = 0: e^(-lam*0) stays 1, higher powers vanish
    inner = np.exp(-rate * np.arange(R)) @ weights.transpose(0, 2, 1)
    out = np.einsum("mq,nmq->nm", np.exp(-rate * (R * np.arange(Q))), inner)
    need = n_terms == J
    if need.any():
        out[:, need] += _series_tail(table, sets, w[:, J], lams[need])
    return (out if np.ndim(x) else out[:, 0]) if batch else _like(out[0], x)


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

def gauss_2f1_at_1(a: float, b: float, c: float) -> float:
    """2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)) for c-a-b > 0."""
    if a == 0.0 or b == 0.0:
        return 1.0
    if c - a - b <= 0:
        raise DivergenceError(f"2F1 at unit argument requires c-a-b > 0, got {c - a - b:.6g}")
    return gamma_ratio(c, c - a) * gamma_ratio(c - a - b, c - b)


def hyp_2f1(a: float, b: float, c: float, x: float, one_minus_x: float | None = None) -> float:
    """Gauss 2F1(a,b;c;x) for |x| < 1, or x = 1 when c-a-b > 0.

    x = 1 is Gauss's sum; every other x goes through _pfq_below_1, the
    rule every (q+1)Fq below unit argument shares: terminating cases and
    x <= 0.85 by the power series to machine precision, 0.85 < x < 1 by
    the series engine on the unit table, with no special case at an
    integer c - a - b.
    Against mpmath for 1 - x in [1e-12, 0.15] the worst relative error was
    5.8e-15 for 2F1(1, d; 2-d; x), d in (0, 0.5); 2.7e-14 with c - a - b
    within 3e-6 of -1, 0, 1 or 2; 1.5e-13 for a, b in [-2, 2], c in
    (-3, 4); 3.6e-11 for a, b in [-5, 5], c in (0, 8), where the series
    cancels to 1e-5 of its largest term.  `one_minus_x` may carry the exact
    distance to 1 when x itself is within rounding of 1.  A non-positive
    integer c raises PoleError unless a or b terminates the series first.
    """
    params = HypParams((a, b), (c,))
    params.validate()
    z = (1.0 - x) if one_minus_x is None else one_minus_x
    if x == 0.0 or a == 0.0 or b == 0.0:
        return 1.0
    if z == 0.0:
        return gauss_2f1_at_1(a, b, c)
    if not (-1.0 < x < 1.0 or 0.0 < z < 1.0):
        raise ParameterDomainError(f"2F1 requires |x| < 1 (or x = 1), got x={x}")
    return _pfq_below_1(params, x, z)


def _pfq_below_1(params: HypParams, x: float, one_minus_x: float) -> float:
    """(q+1)Fq(params; x) at x < 1, one_minus_x the exact 1 - x: every such sum's one rule.

    A terminating series, or x <= 0.85, by its power series, where it is
    more accurate and four to five times faster than the engine; any other
    by one series-engine call on the unit table, the reversed tops paired
    with (*bottom, 1), so a 2F1 is ((b, c), (a, 1)).  Near 1 the power
    series would need up to its term cap; the engine's cost does not grow.
    """
    if params.terminating_order() is not None or x <= 0.85:
        return _pfq_series(params, x).value
    pairs = tuple(zip(reversed(params.top), (*params.bottom, 1.0)))
    return _series_dot(_UNIT, pairs, x, _decay_rate(x, one_minus_x))


# ---------------------------------------------------------------------------
# Closed-form integrals used by the formula layer
# ---------------------------------------------------------------------------

def product_binomial_integral(p: float, q: float, d: float) -> float:
    """Integral of (1-pz)^-d (1-qz)^-d over z in (0,1) by its two-term 2F1 form.

    The closed form is written for q <= p; the integral itself is symmetric
    in (p, q), so arguments are swapped as needed.

    A documented library call that no command reaches, and the one
    in-package caller of hyp_2f1.  Against an mpmath quadrature it was
    within 1.4e-14 relative on 36 draws, d within 1e-9 of 0 and of 0.5 and
    q/p within 1e-9 of 1 among them.
    """
    if not (0.0 <= p < 1.0 and 0.0 <= q < 1.0):
        raise ParameterDomainError("product_binomial_integral requires 0 <= p, q < 1")
    if not (0.0 <= d < 1.0):
        raise ParameterDomainError("product_binomial_integral requires 0 <= d < 1")
    if d == 0.0:
        return 1.0
    if q > p:
        p, q = q, p
    if p == 0.0:
        return 1.0
    if q == 0.0:
        return (1.0 - (1.0 - p) ** (1.0 - d)) / (p * (1.0 - d))
    if p == q:
        if d == 0.5:
            return -math.log1p(-p) / p
        return (1.0 - (1.0 - p) ** (1.0 - 2.0 * d)) / (p * (1.0 - 2.0 * d))
    # the distances to 1 from p - q, exact: near 1 the 2F1 values turn on them
    f1 = hyp_2f1(1.0, d, 2.0 - d, q / p, one_minus_x=(p - q) / p)
    f2 = hyp_2f1(1.0, d, 2.0 - d, q * (1.0 - p) / (p * (1.0 - q)),
                 one_minus_x=(p - q) / (p * (1.0 - q)))
    return (f1 - (1.0 - p) ** (1.0 - d) * (1.0 - q) ** (-d) * f2) / ((1.0 - d) * p)


def prudnikov_product_integral(alpha: float, a: float, b: float, c: float,
                               a2: float, b2: float, c2: float) -> float:
    """Weighted integral of a product of two 2F1(1-x) factors as two 4F3(1) terms.

    Evaluates int_0^1 x^(alpha-1) (1-x)^(c-1) 2F1(a,b;c;1-x) 2F1(a2,b2;c2;1-x) dx.
    The second term's third numerator Gamma factor is Gamma(a2+b2-c2) (the
    printed source table carries a sign slip there).  Requires both 4F3
    series to converge (margin c - c2 + 1 > 0); pfq_at_1 raises
    DivergenceError otherwise.

    A documented library call that no command reaches, kept because it
    records the corrected table formula; tests check it against quadrature.
    """
    if alpha <= 0 or c <= 0:
        raise ParameterDomainError("integral requires alpha > 0 and c > 0")
    pref1 = _GammaProduct(
        (c, c2, c2 - a2 - b2, alpha, c - a - b + alpha),
        (c - a + alpha, c - b + alpha, c2 - a2, c2 - b2),
    ).value()
    pref2 = _GammaProduct(
        (c, c2, a2 + b2 - c2, c2 - a2 - b2 + alpha, c + c2 - a - a2 - b - b2 + alpha),
        (a2, b2, c + c2 - a - a2 - b2 + alpha, c + c2 - a2 - b - b2 + alpha),
    ).value()
    out = 0.0
    if pref1 != 0.0:
        out += pref1 * pfq_at_1(HypParams(
            (a2, b2, alpha, c - a - b + alpha),
            (c - a + alpha, c - b + alpha, a2 + b2 - c2 + 1.0),
        )).value
    if pref2 != 0.0:
        out += pref2 * pfq_at_1(HypParams(
            (c2 - a2, c2 - b2, c2 - a2 - b2 + alpha, c + c2 - a - a2 - b - b2 + alpha),
            (c2 - a2 - b2 + 1.0, c + c2 - a - a2 - b2 + alpha, c + c2 - a2 - b - b2 + alpha),
        )).value
    return out
