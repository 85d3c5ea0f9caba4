"""Scalar special functions underpinning the cumulant formulas.

Gamma machinery (log-domain with sign tracking, pole-safe ratios),
Gauss 2F1 including evaluation at the unit argument, a generalized
(q+1)Fq-at-unity evaluator, and the series engine that sums Gauss-type
series at and close to unit argument.

One engine, _series_dot, sums sum_j w_j x^j E_j with
w_j = prod (p)_j/(q)_j over (top, bottom) parameter pairs, j! being the
pair (a, 1): a (q+1)Fq at unit argument on a prefix of the unit table
E_j = 1, Gauss 2F1 near x = 1 on the whole unit table, and the operator
route's telescoping sums on its E tables.  Past the table, w_j is its
Gamma-ratio expansion in powers of 1/j (DLMF 5.11.8) and E_j the table's
large-j law.  At unit argument, where terms decay only like j^-(1+s), s
the convergence margin sum(bottom) - sum(top), their product is a short
sum of Hurwitz zeta values zeta(sig, J) and difference quotients of
them, each by its large-J expansion (DLMF 25.11.43): a closed form whose
cost does not depend on s, so a (q+1)Fq needs only a 128-term prefix,
and the table itself is one plain sum.  Below unit argument the tail is
one Euler-Maclaurin integral, accurate down to 1 - x ~ 1e-280 with no
special case where c - a - b is an integer, and one rule, _pfq_below_1,
sums every (q+1)Fq: term by term to machine precision up to x = 0.85
(as p <= q at x = 1 is), the engine above.

The engine takes a leading axis of parameter sets, so pfq_at_1_batch sums
many (q+1)Fq at unit argument in one call; pfq_at_1 is the batch of one.
A cumulant table is one such call: cumulants.cumulant_table gathers the
distinct 3F2 of every c_4 and c_5 row first.
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
        """Smallest |a| over top parameters that are exactly non-positive integers, or None.

        Exactly: a top parameter 1e-13 is summed as 1e-13, not as the
        terminating 0 that _nonpos_int's tolerance would read.
        """
        orders = [int(-a) for a in self.top if a <= 0 and a == round(a)]
        return min(orders) if orders else None

    def validate(self) -> int | None:
        """Reject bottom parameters at non-positive integers unless a top terminates first.

        Returns terminating_order(), so a caller classifies the set once.
        """
        term = self.terminating_order()
        for b in self.bottom:
            if _nonpos_int(b) and (term is None or term >= int(round(-b)) + 1):
                raise PoleError(
                    f"bottom parameter {b} is a non-positive integer; series undefined"
                )
        return term


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
    with the tail past it in closed form (_zeta_tail).  The prefix length
    J starts at one _ROW, 128 terms, and grows in rows (to at most _J_PFQ)
    until the first terms the tail's two expansions leave out are below an
    ulp at t = J: a_(K+1) J^-(K+1) of w_j's series in 1/j, bounded by the
    same recurrence on |g_k|, and the fifth Bernoulli term of the Hurwitz
    zeta function's, B_10/10! s (1+s)_9 J^-10 relative to the tail's
    leading J^-s/s.  The error estimate, relative to the value, is those
    two terms at J plus sqrt(J) ulps for the rounding of the J-term
    product chain.

    Each set is classified once.  Every (q+1)Fq set with the same J goes
    through one engine call: sets with fewer pairs are padded with the
    pair (1, 1), which is exact (a factor 1 in every term ratio and 0 in
    every power sum).  A set that diverges or poles raises as it would
    alone.
    """
    out: list = [None] * len(sets)
    engine = []
    for i, params in enumerate(sets):
        terminating = params.validate() is not None
        top, bottom = params.top, params.bottom
        if len(top) > len(bottom) + 1:
            raise DivergenceError("series with p > q+1 diverges at nonzero argument")
        if terminating or len(top) <= len(bottom):
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
    s = _margins(pairs)
    omitted = _exp_series(np.abs(_power_sums(pairs, np.arange(_TAIL_TERMS + 3.0))
                                 @ _LNGAMMA_ROWS.T))[:, -1]
    zeta = _ZETA[-1] * s * np.prod(s[:, None] + np.arange(1.0, 10.0), axis=1)
    reach = np.maximum((omitted / _EPS) ** (1 / (_TAIL_TERMS + 1)), (zeta / _EPS) ** 0.1)
    J = np.minimum(_J_PFQ, _ROW * np.maximum(1.0, np.ceil(reach / _ROW)))
    for n in np.unique(J).astype(int).tolist():
        rows = np.flatnonzero(J == n)
        values = _series_dot(_ETable(np.ones(n), _UNIT.law), pairs[rows], 1.0, 0.0)
        errors = (math.sqrt(n) * _EPS + omitted[rows] / float(n) ** (_TAIL_TERMS + 1)
                  + zeta[rows] / float(n) ** 10) * np.abs(values)
        for row, value, error in zip(rows.tolist(), values.tolist(), errors.tolist()):
            out[engine[row]] = SeriesResult(value, error, n)
    return out


def _pfq_series(params: HypParams, x: float) -> SeriesResult:
    """Plain pFq power series for |x| < 1 (or factorially convergent p <= q).

    A series that terminates at order m (top parameter -m) sums exactly its
    m + 1 terms, so it never reaches a zero bottom divisor past term m, and
    reports error 0; any other stops after three terms in a row below one
    ulp of the partial sum.  The caller has validated the set.
    """
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

_J_TABLE = 1 << 11     # tabulated E_j range; each table's exact large-j law beyond
_J_PFQ = 1 << 14       # longest unit-table prefix of a (q+1)Fq at unit argument
_CUTOFF = 60.0         # series terms below e^-60 (relative to w_0 = 1) are dropped
_ROW = 128             # x^j = x^(R q) x^r with r < R; J is a multiple of R
_EDGE = 36.0           # the tail integral leaves ln t for Gauss-Laguerre at lam t = 36
_EDGE_PANELS = 12      # unit panels in ln t below that point
_DOUBLINGS = 10        # panels [2^i - 1, 2^(i+1) - 1] in ln(t/t0) first: they reach u = 1023
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_LAG_NODES, _LAG_WEIGHTS = np.polynomial.laguerre.laggauss(16)
# ln Gamma(t+b) - ln Gamma(t+c) = (b-c) ln t + sum_{k>=2} g_k t^(1-k) (DLMF 5.11.8) with
# g_k = (-1)^k (B_k(b) - B_k(c)) / (k(k-1)) for the Bernoulli polynomials B_k; row k-2
# holds the weights of b^m - c^m, m = 0.._TAIL_TERMS+2, in g_k, each one integer quotient
# from the numerators and denominators of B_0 .. B_14.  At lam = 0 the tail takes
# g_2 .. g_(_TAIL_TERMS+1), powers t^-1 .. t^-_TAIL_TERMS, and the last row is the first
# term left out; the panels at lam > 0, where J = _J_TABLE, take the first five rows
_TAIL_TERMS = 12
_BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1), (-1, 30),
              (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6))
_LNGAMMA_ROWS = np.array([[(-1) ** k * math.comb(k, m) * _BERNOULLI[k - m][0]
                           / (_BERNOULLI[k - m][1] * k * (k - 1)) if m <= k else 0.0
                           for m in range(_TAIL_TERMS + 3)] for k in range(2, _TAIL_TERMS + 3)])
# B_2k/(2k)!, k = 1..5: the large-J expansion of the Hurwitz zeta function (DLMF 25.11.43)
# zeta(sig, J) = J^(1-sig) (1/(sig-1) + 1/(2J) + sum_k B_2k/(2k)! (sig)_(2k-1) J^-2k); the
# tail takes k <= 4 and the fifth is the first term left out
_ZETA = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


@dataclass(frozen=True)
class _ETable:
    """Entries E_j, j < J, and the large-j law of E past them.

    The law is a tuple of families (e0, delta, coefs), each
    t^e0 phi(ln t) sum_n coefs[n] t^-n, with phi = 1 where delta is None
    and phi(u) = (1 - e^(-delta u))/delta (u at delta = 0) otherwise: the
    finite form of a pair of powers t^e0, t^(e0-delta) whose coefficients
    grow like 1/delta and cancel.
    """

    E: np.ndarray
    law: tuple


# E_j = 1 exactly: _series_dot on it, or on a prefix of it, sums a (q+1)Fq
_UNIT = _ETable(np.ones(_J_TABLE), ((0.0, None, np.ones(1)),))


def _law_sum(law, ln_t: np.ndarray, inv: np.ndarray, base: np.ndarray,
             slope: bool = False) -> np.ndarray:
    """e^base times the law at t = e^ln_t = 1/inv (with slope, times its t-derivative).

    Each family is t^e0 phi(ln t) P(1/t), P by Horner in 1/t; t^e0 is a
    product of 1/t for an integer e0, so a family costs one exponential
    only for a fractional e0 and one expm1 for its phi.
    """
    total = None
    for e0, delta, coefs in law:
        poly = coefs[-1]
        for c in coefs[-2::-1]:
            poly = c + inv * poly
        if delta is None:
            phi, dphi = 1.0, 0.0
        elif delta == 0.0:
            phi, dphi = ln_t, 1.0
        else:
            phi, dphi = -np.expm1(-delta * ln_t) / delta, np.exp(-delta * ln_t)
        if slope:
            dpoly = 0.0
            for n in range(len(coefs) - 1, 0, -1):
                dpoly = n * coefs[n] + inv * dpoly
            poly = ((e0 * phi + dphi) * poly - phi * inv * dpoly) * inv
        else:
            poly = phi * poly
        if e0 != round(e0):
            poly = np.exp(e0 * ln_t) * poly
        else:
            for _ in range(-round(e0)):
                poly = inv * poly
        total = poly if total is None else total + poly
    return np.exp(base) * total


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


def _margins(sets: np.ndarray) -> np.ndarray:
    """s = sum(q) - sum(p) - 1 over each set's (p, q) pairs, w_j ~ j^-(1+s), rounded once by fsum."""
    return np.array([math.fsum((-1.0, *row))
                     for row in np.concatenate((sets[..., 1], -sets[..., 0]), axis=1).tolist()])


def _exp_series(gam: np.ndarray) -> np.ndarray:
    """a_0 .. a_K of exp(sum_m gam_m t^-m) = sum_n a_n t^-n, m = 1..K, one row per set,
    by the exponential recurrence n a_n = sum_(m=1..n) m gam_m a_(n-m)."""
    K = gam.shape[1]
    m_gam = gam * np.arange(1.0, K + 1)
    rev = np.zeros((len(gam), K + 1))  # a_n in column K - n: a_(n-1) .. a_0 is one forward slice
    rev[:, K] = 1.0
    for n in range(1, K + 1):
        rev[:, K - n] = np.einsum("ij,ij->i", m_gam[:, :n], rev[:, K - n + 1:]) / n
    return rev[:, ::-1]


def _hurwitz(sm1: np.ndarray, x: float) -> np.ndarray:
    """J^(sig-1) zeta(sig, J) for sig = 1 + sm1 and x = 1/J: its large-J expansion to B_8."""
    sig = sm1 + 1.0
    x2 = x * x
    h = _ZETA[3]
    for k in (3, 2, 1):
        h = _ZETA[k - 1] + x2 * (sig + (2 * k - 1)) * (sig + 2 * k) * h
    return 1.0 / sm1 + 0.5 * x + x2 * sig * h


def _hurwitz_quotient(sm1: np.ndarray, x: float, delta: float, ln_J: float) -> np.ndarray:
    """J^(sig-1) sum_(j>=J) j^-sig phi(ln j), phi(u) = (1 - e^(-delta u))/delta (u at delta = 0).

    That is (zeta(sig) - zeta(sig+delta))/delta, taken term by term in the
    expansion so that nothing cancels as delta -> 0:
    (Z(sig) - Z(sig+delta))/delta + Z(sig+delta) phi(ln J) for Z = _hurwitz, whose
    difference quotient is 1/((sig-1)(sig-1+delta)) plus the Bernoulli terms'
    D_m = ((sig)_m - (sig+delta)_m)/delta = (sig+m-1) D_(m-1) - (sig+delta)_(m-1).
    """
    sig = sm1 + 1.0
    x2 = x * x
    quotient = 1.0 / (sm1 * (sm1 + delta))
    D, rising, x2k = 0.0, 1.0, 1.0
    for m in range(1, 8):
        D = (sig + (m - 1)) * D - rising
        rising = rising * (sig + (delta + (m - 1)))
        if m % 2:
            x2k *= x2
            quotient = quotient + _ZETA[m // 2] * x2k * D
    phi = ln_J if delta == 0.0 else -math.expm1(-delta * ln_J) / delta
    return quotient + _hurwitz(sm1 + delta, x) * phi


def _zeta_tail(law, J: int, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_(j>=J) (w_j/w_J) E_j at unit argument, in closed form: one value per set.

    w_j/w_J = (j/J)^expo exp(G(j) - G(J)), expo = -1 - s and G the
    Bernoulli expansion g_2 t^-1 + ... to t^-_TAIL_TERMS; exp G is a
    power series in 1/t (_exp_series), and times a law family
    t^e0 phi(ln t) P(1/t) it leaves sums of j^-sig phi(ln j), sig = n - e0 + 1 + s:
    Hurwitz zeta values and, for a phi family, their difference quotients,
    each by its large-J expansion.  sig - 1 is formed as (n - e0) + s from
    the fsum'd margin, so where it is s itself it carries no rounding of
    1 + s.  Every power is taken at x = 1/J, so J^(1-sig) times J^-expo is
    J^(1+e0-n) and no power of J overflows.
    """
    x = 1.0 / J
    ln_J = math.log(J)
    n = np.arange(_TAIL_TERMS + 1.0)
    scaled = g[:, :_TAIL_TERMS] * x ** n[1:]  # g_(m+1) J^-m
    a = _exp_series(scaled)
    total = 0.0
    for e0, delta, coefs in law:
        c = coefs[:_TAIL_TERMS + 1] * x ** n[:len(coefs)]
        b = a * c[0]
        for i in range(1, len(c)):
            b[:, i:] += c[i] * a[:, :-i]
        sm1 = (n - e0) + s[:, None]
        z = _hurwitz(sm1, x) if delta is None else _hurwitz_quotient(sm1, x, delta, ln_J)
        power = x ** -e0 if e0 == round(e0) else math.exp(e0 * ln_J)
        total = total + power * np.sum(b * z, axis=1)
    return J * np.exp(-np.sum(scaled, axis=1)) * total


@np.errstate(divide="ignore", under="ignore")
def _series_tail(table: _ETable, sets: np.ndarray, w_J: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_{j>=J} w_j e^(-lam j) E_j for each set and decay rate lam, J = len(table.E).

    w(t) continues w_j = prod (p)_j/(q)_j over a set's (top, bottom) pairs
    (p, q) from the cumprod's w_J through the large-t expansion of
    ln Gamma(t+p) - ln Gamma(t+q) (DLMF 5.11.8) summed over the pairs, and
    E(t) is the table's large-j law.  The margin s = sum(q) - sum(p) - 1,
    w(t) ~ t^-(1+s), is rounded once from the parameters: formed as
    1 + sum(p - q) it would carry an absolute error of an ulp of 1, a
    relative error of eps/s in a tail-dominated sum.

    At lam = 0 the tail is a closed form, _zeta_tail: no quadrature.

    At lam > 0 it is midpoint Euler-Maclaurin: the integral of
    f(t) = w(t) e^(-lam t) E(t) from t0 = J - 1/2, plus f'(t0)/24, with
    w(t) from the first five Bernoulli terms and each law family at most
    one exponential and one expm1 per point, so the whole law shares one
    quadrature.  The integral is taken in u = ln(t/t0), where a power law
    is exponential: doubling Gauss-Legendre panels up to 12 units below
    the cut-off lam t = 36, unit panels across it, and Gauss-Laguerre in t
    beyond it.  Logarithms of t throughout keep t itself from overflowing
    when lam is near the smallest normal float.  Past u = 42/r, where the
    slowest law family t f(t) ~ e^(-r u) is below e^-42, no panel is
    evaluated.

    sets is (N, pairs, 2) and w_J (N,); the result is (N, len(lam)).  Only
    the (set, node, panel) triples of nonzero width are integrated, each
    summed back to its (set, node) in panel order, as it would be alone.
    """
    J = len(table.E)
    s = _margins(sets)
    powers = _power_sums(sets, np.arange(_TAIL_TERMS + 3.0))
    out = np.empty((len(sets), len(lam)))
    zero = lam == 0.0
    if zero.any():
        out[:, zero] = _zeta_tail(table.law, J, s, powers @ _LNGAMMA_ROWS.T)[:, None]
    if not zero.all():
        out[:, ~zero] = _panel_tail(table, sets, s, powers[:, :7] @ _LNGAMMA_ROWS[:5, :7].T,
                                    lam[~zero])
    return w_J[:, None] * out


def _panel_tail(table: _ETable, sets: np.ndarray, s: np.ndarray, g: np.ndarray,
                lam: np.ndarray) -> np.ndarray:
    """_series_tail's sums at lam > 0, over w_J: the panels, Gauss-Laguerre and f'(t0)/24."""
    J = len(table.E)
    t0 = J - 0.5
    ln_t0 = math.log(t0)
    expo = -1.0 - s  # w_j ~ j^expo
    k5 = np.arange(2, 7)  # g_2 .. g_6
    ln_wJ = expo * math.log(J) + g @ float(J) ** (1 - k5)
    N, M = len(sets), len(lam)

    def law(k, ln_t, power, shift, slope=False):
        """w(t)/w_J t^power e^shift times the law (or its slope); row r is set k[r]'s."""
        inv = np.exp(-ln_t)
        g_row = g[k].T[..., None]
        ratio = g_row[-1]
        for gk in g_row[-2::-1]:
            ratio = gk + inv * ratio
        ratio = power[k, None] * ln_t + inv * ratio - ln_wJ[k, None]
        return _law_sum(table.law, ln_t, inv, ratio + shift, slope)

    ln_lam = np.log(lam)
    # panel edges in u per set and node: doublings clipped at u_edge - 12, then unit steps
    # to u_edge (at most 741 at the smallest subnormal lam); past u = 42/r the slowest law
    # family, t f(t) ~ e^(-r u), is below e^-42
    top = max(e0 + max(0.0, -(delta or 0.0)) for e0, delta, _ in table.law)
    u_end = 42.0 / np.maximum(s - top, 0.0)  # inf where t f(t) does not decay
    u_lo = (math.log(_EDGE) - ln_lam - ln_t0 - _EDGE_PANELS)[:, None]
    edges = np.minimum(np.concatenate([
        np.minimum(2.0 ** np.arange(_DOUBLINGS + 1) - 1.0, np.maximum(u_lo, 0.0)),
        np.maximum(u_lo + np.arange(1, _EDGE_PANELS + 1), 0.0),
    ], axis=1), u_end[:, None, None])
    half = 0.5 * np.diff(edges, axis=2)
    k, i, p = np.nonzero(half > 0.0)
    half = half[k, i, p, None]
    ln_t = ln_t0 + edges[k, i, p, None] + half * (_GL_NODES + 1.0)
    lam_t = np.exp(ln_lam[i, None] + ln_t)
    f = law(k, ln_t, -s, -lam_t)  # Jacobian t: t^expo t = t^-s
    panels = np.bincount(k * M + i, np.sum(f * half * _GL_WEIGHTS, axis=1), N * M)

    # beyond the panels: t = t_g + v/lam with lam t_g = max(36, lam t0), dt = dv/lam
    k, i = np.divmod(np.arange(N * M), M)
    lam_tg = np.maximum(_EDGE, lam[i, None] * t0)
    ln_t = np.log(lam_tg + _LAG_NODES) - ln_lam[i, None]
    f = law(k, ln_t, expo, -lam_tg - ln_lam[i, None])
    beyond = np.sum(f * _LAG_WEIGHTS, axis=1)  # not @: BLAS rounds by row count

    # Euler-Maclaurin correction f'(t0)/24: (ln w)' - lam on f, plus w e^(-lam t) E'(t)
    at_t0 = (k, np.full((N * M, 1), ln_t0), expo, -lam[i, None] * t0)
    slope = (expo / t0 + g @ ((1 - k5) * t0 ** -k5))[k] - lam[i]
    df0 = law(*at_t0)[:, 0] * slope + law(*at_t0, slope=True)[:, 0]
    return (panels + beyond + df0 / 24.0).reshape(N, M)


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


def _powers(lam_j: np.ndarray) -> np.ndarray:
    """e^(-lam j), zero past the cut-off lam j = 60: no subnormal reaches the matrix product."""
    return np.exp(np.where(lam_j > _CUTOFF, -np.inf, -lam_j))


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
    with no product chain along j; each factor is zero past the node's
    cut-off.  Only nodes whose cut-off passes the table get the tail.  The
    powers come from lam = -ln x, which is exact near x = 1 where x itself
    has rounded; x only sets the shape of the result.  At unit argument
    (lam = 0 at every node) every power is 1: the whole table is one plain
    sum, and the tail its closed form.
    """
    sets = np.asarray(pairs, dtype=float)
    batch = sets.ndim == 3
    sets = sets.reshape(-1, *sets.shape[-2:])
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    J = len(table.E)
    if not lams.any():  # unit argument: every power is 1, the table one sum, the tail closed
        w = _pair_weights(sets, J)
        out = np.sum(w[:, :J] * table.E, axis=1)[:, None] + _series_tail(table, sets, w[:, J], lams)
        return (out if np.ndim(x) else out[:, 0]) if batch else _like(out[0], x)
    n_terms = np.minimum(np.ceil(_CUTOFF / lams) + 1.0, J).astype(np.intp)
    m = int(n_terms.max(initial=1))
    R = min(m, _ROW)
    Q = -(-m // R)
    w = _pair_weights(sets, Q * R)
    weights = w[:, :-1]
    weights *= table.E[:Q * R]
    weights = weights.reshape(-1, Q, R)
    rate = np.minimum(lams, 1e3)[:, None]  # x = 0: e^(-lam*0) stays 1, higher powers vanish
    # a matrix-vector product per node: BLAS would round a matrix product by its row count
    inner = (weights[:, None] @ _powers(rate * np.arange(R))[None, :, :, None])[..., 0]
    out = np.einsum("mq,nmq->nm", _powers(rate * (R * np.arange(Q))), inner)
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
    if params.validate() is not None or x <= 0.85:
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
