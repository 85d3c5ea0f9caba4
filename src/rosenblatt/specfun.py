"""Scalar special functions underpinning the cumulant formulas.

Gamma machinery (log-domain with sign tracking, pole-safe ratios),
Gauss 2F1 including evaluation at the unit argument, a generalized
(q+1)Fq-at-unity evaluator, and the series engine that sums Gauss-type
series at and close to unit argument.

One engine, _series_dot, sums sum_j w_j x^j E_j with
w_j = prod (p)_j/(q)_j over (top, bottom) parameter pairs, j! being the
pair (a, 1): a (q+1)Fq at unit argument on a prefix of the unit table
E_j = 1, Gauss 2F1 near x = 1 on the whole unit table, and the operator
route's telescoping sums on its E tables, a G's sets each on its own table
in one call.  Past the table, w_j is its
Gamma-ratio expansion in powers of 1/j (DLMF 5.11.8) and E_j the table's
large-j law.  Their product leaves sums of j^-sig e^(-lam j), x = e^-lam,
each the incomplete gamma integral E_sig(lam J) plus Euler-Maclaurin end
terms at J: one closed form at every lam (_lerch_tail).  At unit
argument, where terms decay only like j^-(1+s), s the convergence margin
sum(bottom) - sum(top), E_sig(0) = 1/(sig - 1) and the end terms are the
Hurwitz zeta function's large-J expansion (DLMF 25.11.43), at a cost that
does not depend on s, so a (q+1)Fq needs only a 128-term prefix and the
table itself is one plain sum.  Below it E_sig is Lerch's series, or a
Gauss-Legendre rule where that series would cancel.  It is accurate down
to 1 - x ~ 1e-280, with the poles that meet where c - a - b is an
integer paired into one finite form, and one rule, _pfq_below_1, sums
every (q+1)Fq: term by term to machine precision up to x = 0.85 (as
p <= q at x = 1 is), the engine above.

The engine takes an array of parameter sets, one E table per set, and an
array of nodes.  _pfq_at_1_pairs sums many (q+1)Fq at unit argument in
one call, the sets given as one array of (top, bottom) pairs: pfq_at_1
hands it its one set, and a cumulant table is one such call, as
cumulants.cumulant_table builds that array for every c_4 and c_5 row from
its d grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    """Generalized hypergeometric series at unit argument.

    A terminating series is summed exactly and p <= q by its factorially
    convergent power series.  A (q+1)Fq, whose terms decay like k^-(1+s)
    with s the convergence margin, is one set of the series engine
    (_pfq_at_1_pairs), which checks its margin and bottom parameters: its
    j! joins the bottom parameters and tops pair with bottoms in order.
    """
    top, bottom = params.top, params.bottom
    if len(top) != len(bottom) + 1 or params.terminating_order() is not None:
        params.validate()
        if len(top) > len(bottom) + 1:
            raise DivergenceError("series with p > q+1 diverges at nonzero argument")
        return _pfq_series(params, 1.0)  # terminating, or factorial decay
    return _pfq_at_1_pairs(np.array([list(zip(top, (*bottom, 1.0)))]))[0]


def _pfq_at_1_pairs(pairs: np.ndarray) -> list[SeriesResult]:
    """(q+1)Fq at unit argument for an (N, pairs, 2) array of (top, bottom) pairs: the engine.

    A set is its tops paired in order with (*bottom, 1), as pfq_at_1 builds
    it from HypParams; a caller that has its parameters as arrays
    (cumulants) builds the array itself, padding sets with fewer pairs
    with the pair (1, 1), which is exact (a factor 1 in every term ratio
    and 0 in every power sum).  The whole array is checked at once, here
    alone: a margin s <= 0 raises DivergenceError and a bottom at a
    non-positive integer PoleError, with pfq_at_1's messages, and a top
    that is exactly a non-positive integer ParameterDomainError (a
    terminating series is pfq_at_1's to sum term by term).

    Each set is summed by the series engine at lam = 0 over a prefix of
    the unit table, with the tail past it in closed form (_lerch_tail at
    z = 0).  The prefix length J starts at one _ROW, 128 terms, and grows
    in rows (to at most _J_PFQ) until the first terms the tail's two
    expansions leave out are below an ulp at t = J: a_(K+1) J^-(K+1) of
    w_j's series in 1/j, bounded by the same recurrence on |g_k|, and the
    fifth Euler-Maclaurin end term, B_10/10! s (1+s)_9 J^-10 relative to
    the tail's leading J^-s/s.  The error estimate,
    relative to the value, is those two terms at J plus sqrt(J) ulps for
    the rounding of the J-term product chain.  Each set's margin
    (_margins) and power sums (_power_sums) are formed once, for J and
    for the tail, and the sets that share a J share one _series_dot call
    on one table of J ones.
    """
    p, q = pairs[..., 0], pairs[..., 1]
    terminating = (p <= 0.0) & (p == np.rint(p))
    if terminating.any():
        raise ParameterDomainError(f"top parameter {float(p[terminating][0])} terminates the "
                                   "series; pfq_at_1 sums it term by term")
    pole = (q < 0.5) & (np.abs(q - np.rint(q)) <= _INT_TOL)
    if pole.any():
        raise PoleError(f"bottom parameter {float(q[pole][0])} is a non-positive integer; "
                        "series undefined")
    s = _margins(pairs)
    if (s <= 0.0).any():
        raise DivergenceError(f"convergence margin s={float(s[s <= 0.0][0]):.6g} <= 0 "
                              "at unit argument")
    powers = _power_sums(pairs, np.arange(_TAIL_TERMS + 3.0))
    omitted = _exp_series(np.abs(powers @ _LNGAMMA_ROWS.T))[:, -1]
    zeta = _ZETA[-1] * s * np.prod(s[:, None] + np.arange(1.0, 10.0), axis=1)
    reach = np.maximum((omitted / _EPS) ** (1 / (_TAIL_TERMS + 1)), (zeta / _EPS) ** 0.1)
    J = np.minimum(_J_PFQ, _ROW * np.maximum(1.0, np.ceil(reach / _ROW))).astype(int).tolist()
    out: list = [None] * len(pairs)
    for n in sorted(set(J)):  # not np.unique: its first call imports numpy.ma
        rows = [i for i, m in enumerate(J) if m == n]
        table = _ETable(np.ones(n), _UNIT.law)
        values = _series_dot([table] * len(rows), pairs[rows], np.zeros(1),
                             sums=(s[rows], powers[rows]))[:, 0]
        errors = (math.sqrt(n) * _EPS + omitted[rows] / float(n) ** (_TAIL_TERMS + 1)
                  + zeta[rows] / float(n) ** 10) * np.abs(values)
        for row, value, error in zip(rows, values.tolist(), errors.tolist()):
            out[row] = SeriesResult(value, error, n)
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
_DROPPED_MAX = 1e-12   # largest share of a sum below unit argument the cut-off may drop
_ROW = 128             # x^j = x^(R q) x^r with r < R; J is a multiple of R
# ln Gamma(t+b) - ln Gamma(t+c) = (b-c) ln t + sum_{k>=2} g_k t^(1-k) (DLMF 5.11.8) with
# g_k = (-1)^k (B_k(b) - B_k(c)) / (k(k-1)) for the Bernoulli polynomials B_k; row k-2
# holds the weights of b^m - c^m, m = 0.._TAIL_TERMS+2, in g_k, each one integer quotient
# from the numerators and denominators of B_0 .. B_14.  The tail takes
# g_2 .. g_(_TAIL_TERMS+1), powers t^-1 .. t^-_TAIL_TERMS, and the last row is the first
# term left out
_TAIL_TERMS = 12
_BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1), (-1, 30),
              (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6))
_LNGAMMA_ROWS = np.array([[(-1) ** k * math.comb(k, m) * _BERNOULLI[k - m][0]
                           / (_BERNOULLI[k - m][1] * k * (k - 1)) if m <= k else 0.0
                           for m in range(_TAIL_TERMS + 3)] for k in range(2, _TAIL_TERMS + 3)])
# B_2k/(2k)!, k = 1..5: the tail's Euler-Maclaurin end terms at J (DLMF 2.10.1), at unit
# argument J^(sig-1) zeta(sig, J) = 1/(sig-1) + 1/(2J) + sum_k B_2k/(2k)! (sig)_(2k-1) J^-2k
# (DLMF 25.11.43); the tail takes k <= 4 and the fifth is the first term left out
_ZETA = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)
# Below unit argument (lam > 0) the tail's sums take Lerch's series where z = lam J is at
# most _Z_LERCH, _LERCH_TERMS terms of it (z^k/k! < 1e-18 past them), and a Gauss-Legendre
# rule in ln u above it, where the series would cancel to e^(-2z) of its terms.  They start
# at J = _J_TABLE, where powers of 1/t past _LERCH_POWERS are below rounding: the tails of
# the operator route's tables and of 2F1 sets with parameters up to 8 are the same to the
# bit with all _TAIL_TERMS.  At unit argument the prefix may be 128 terms, and the tail
# takes all _TAIL_TERMS, as _pfq_at_1_pairs' J sizing assumes
_Z_LERCH = 0.5
_LERCH_TERMS = 16
_LERCH_POWERS = 7
# 1/Gamma(1-eps) = sum_j _RGAMMA[j] eps^j, to 1e-17 for |eps| <= 3/4: the Taylor coefficients
# of the entire 1/Gamma(1+x) at x = -eps, from 40-digit mpmath (DLMF 5.7.1)
_RGAMMA = np.array([
    1.0, -5.7721566490153286e-1, -6.5587807152025388e-1, 4.2002635034095236e-2,
    1.6653861138229149e-1, 4.2197734555544337e-2, -9.6219715278769736e-3, -7.2189432466630995e-3,
    -1.1651675918590651e-3, 2.1524167411495097e-4, 1.2805028238811619e-4, 2.0134854780788239e-5,
    -1.2504934821426707e-6, -1.1330272319816959e-6, -2.0563384169776071e-7, -6.1160951044814158e-9,
    5.0020076444692229e-9, 1.1812745704870201e-9, 1.0434267116911005e-10, -7.7822634399050713e-12,
    -3.6968056186422057e-12, -5.100370287454476e-13, -2.0583260535665068e-14, 5.348122539423018e-15,
    1.2267786282382608e-15, 1.1812593016974588e-16])
# its divided difference between eps and eps' is -sum_(i,l) eps^i H[i, l] eps'^l with the
# Hankel matrix H[i, l] = _RGAMMA[i + l + 1] (and _RGAMMA[i + l + 2] for (series - 1)/eps)
_RGAMMA_HANKEL = np.array([[[_RGAMMA[i + l + m] if i + l + m < len(_RGAMMA) else 0.0
                             for l in range(len(_RGAMMA))] for i in range(len(_RGAMMA))]
                           for m in (1, 2)])
# 1/(i+l+2)!: exp's second divided difference at 0, u, v is sum_(i,l) u^i v^l/(i+l+2)!
_EXP_QUOTIENT = np.array([[1.0 / math.factorial(i + l + 2) for l in range(11)] for i in range(11)])


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [-1, 1]: numpy's nodes, weights 2/((1-x^2) P_n'(x)^2).

    numpy's own weights are up to 6e-14 off at the ends, where the tail's
    integrands put their weight; from P_n' by the three-term recurrence
    they are within 6e-15 (against a 40-digit rule, n = 32).
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    slope = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(32)


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


def _phi(delta: float, u: float) -> float:
    """A law family's phi_delta(u) = (1 - e^(-delta u))/delta, and u at delta = 0."""
    return u if delta == 0.0 else -math.expm1(-delta * u) / delta


def _tail_series(blocks, J: int, g: np.ndarray, terms: int):
    """J e^(-G(J)) per set, and the rows b of the tail's sums: one per law family and set,
    in _lerch_tail's group order (each (table, rows) block's families over its rows in turn).

    w_j/w_J = (j/J)^expo exp(G(j) - G(J)), expo = -1 - s and G the
    Bernoulli expansion g_2 t^-1 + ... to t^-_TAIL_TERMS; exp G is a
    power series in 1/t (_exp_series), and times a law family
    t^e0 phi(ln t) P(1/t) it is J^e0 sum_n b_n (J/t)^n, n <= terms, one
    row of b per set, J^e0 folded in.  Every power is taken at x = 1/J, so
    J^(1-sig) times J^-expo is J^(1+e0-n) and no power of J overflows.
    b_n depends on g_2 .. g_(n+1) alone, so its first columns are the same
    to the bit whatever terms is, and J e^(-G(J)) always takes every g.
    """
    x = 1.0 / J
    n = np.arange(_TAIL_TERMS + 1.0)
    scaled = g[:, :_TAIL_TERMS] * x ** n[1:]  # g_(m+1) J^-m
    a_all = _exp_series(scaled[:, :terms])
    out = []
    for table, rows in blocks:
        a = a_all[rows]
        for e0, _, coefs in table.law:
            c = coefs[:terms + 1]
            c = c * (x ** n[:len(c)]
                     * (x ** -e0 if e0 == round(e0) else math.exp(e0 * math.log(J))))
            b = a * c[0]
            for i in range(1, len(c)):
                b[:, i:] += c[i] * a[:, :-i]
            out.append(b)
    return J * np.exp(-scaled.sum(axis=1)), np.concatenate(out)


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x, and its limit 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _powers_of(x: np.ndarray, n: int) -> np.ndarray:
    """x^0 .. x^(n-1) along a new last axis, by running products."""
    out = np.empty((*x.shape, n))
    out[..., 0] = 1.0
    out[..., 1:] = x[..., None]
    return out.cumprod(axis=-1, out=out)


def _exprel_quotient(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(_exprel(u) - _exprel(v))/(u - v), its derivative at u = v: exp's divided difference
    at 0, u, v.

    With p the argument of larger magnitude and q the other it is
    (e^q _exprel(p - q) - _exprel(q))/p, which cancels only as p -> 0;
    where |p| < 1/8 it is the double series sum_(i,l) u^i v^l/(i+l+2)!,
    whose terms of degree 11 and up are below 1e-17 there.
    """
    larger = np.abs(u) >= np.abs(v)
    p, q = np.where(larger, u, v), np.where(larger, v, u)
    small = np.abs(p) < 0.125
    out = np.divide(np.exp(q) * _exprel(p - q) - _exprel(q), p, out=np.zeros_like(p),
                    where=~small)
    if small.any():
        out[small] = np.einsum("ri,ri->r", _powers_of(u[small], 11),
                               np.einsum("rl,il->ri", _powers_of(v[small], 11), _EXP_QUOTIENT))
    return out


def _resonant_rows(eps: np.ndarray, delta: np.ndarray | None, k: np.ndarray):
    """(R - 1)/eps at eps, one column per k; with delta, also at eps + delta, and the
    divided difference of the two, (value at eps - value at eps + delta)/delta.

    R = Gamma(1-eps) k!/(1+eps)_k = 1/(P G), P = prod_(i<=k) (1 + eps/i)
    and G = 1/Gamma(1-eps) (_RGAMMA), so (R - 1)/eps = -(Q G + Gq)/(P G)
    with Q = (P - 1)/eps = sum_(i<=k) P_(i-1)/i and Gq = (G - 1)/eps.  Each
    piece and its divided difference between the two points is a sum or a
    product with no eps in a denominator, so all are finite at eps = 0.
    eps and delta hold one value per group, k one column per term of it.
    """
    at = (eps if delta is None else np.stack([eps, eps + delta]))[..., None]
    i = np.arange(1.0, int(k.max()) + 1.0)
    ends = np.zeros_like(at)
    P = np.cumprod(np.concatenate([ends + 1.0, 1.0 + at / i], axis=-1), axis=-1)
    Q = np.cumsum(np.concatenate([ends, P[..., :-1] / i], axis=-1), axis=-1)
    powers = _powers_of(at[..., 0], len(_RGAMMA))
    G = (powers * _RGAMMA).sum(axis=-1)[..., None]
    Gq = (powers[..., :-1] * _RGAMMA[1:]).sum(axis=-1)[..., None]
    if delta is None:
        P, Q = np.stack([P, Q])[:, np.arange(len(k))[:, None], k]
        return (-(Q * G + Gq) / (P * G),)
    dP = -P[1] * np.cumsum(np.concatenate([ends[0], P[0, :, :-1] / (i * P[1, :, 1:])], axis=-1),
                           axis=-1)
    dQ = np.cumsum(np.concatenate([ends[0], dP[:, :-1] / i], axis=-1), axis=-1)
    P, P2, Q, Q2, dP, dQ = np.stack([*P, *Q, dP, dQ])[:, np.arange(len(k))[:, None], k]
    (G, G2), (Gq, Gq2) = G, Gq
    dG, dGq = -np.einsum("hgl,gl->hg", np.einsum("gi,hil->hgl", powers[0], _RGAMMA_HANKEL),
                         powers[1])[..., None]
    rq2 = -(Q2 * G2 + Gq2) / (P2 * G2)
    return (-(Q * G + Gq) / (P * G), rq2,
            -((dQ * G + Q2 * dG + dGq) + rq2 * (dP * G + P2 * dG)) / (P * G))


def _lerch_sums(a, eps, delta, k, b, z):
    """sum_n b_n E_sig(z), E_sig(z) = int_1^inf u^-sig e^(-z u) du at sig = 1 + a_n,
    for z <= _Z_LERCH by Lerch's series (DLMF 8.19.8); with delta, also
    sum_n b_n (E_sig - E_(sig+delta))/delta.

    E_sig(z) = Gamma(-a) z^a + sum_j (-z)^j/(j! (a - j)).  The pole of Gamma(-a)
    at the integer k nearest a + delta/2 meets that of the j = k term; the
    pair is (-z)^k/k! F, F = (1 - R z^eps)/eps for eps = a - k,
    R = Gamma(1-eps) k!/(1+eps)_k, written -ln z _exprel(eps ln z) - z^eps (R-1)/eps
    (_resonant_rows): finite at eps = 0, with no switch on its size.  The
    delta-quotient is that of each term: 1/((a-j)(a+delta-j)) for j != k and,
    for F, exp's divided difference at 0, eps ln z, (eps+delta) ln z
    (_exprel_quotient) and that of (R-1)/eps.  Where a < -1/2 (k < 0), a
    negative margin, Gamma(-a) has no pole near and stands alone.  a, b and k
    are (G, n) for G groups, each with one eps and delta (None: no
    quotient); the result stacks the sums and, with delta, the quotients,
    each (G, len(z)).
    """
    L = np.log(z)
    u = eps[:, None] * L
    e_u = np.exp(u)
    j = np.arange(_LERCH_TERMS)
    off = j != k[..., None]
    inv = [np.divide(1.0, a[..., None] - j, out=np.zeros(off.shape), where=off)]
    if delta is not None:
        inv.append(inv[0] * np.divide(1.0, (a + delta[:, None])[..., None] - j,
                                      out=np.zeros(off.shape), where=off))
    # (-z)^i/i! by running products: a column per series term, and per resonant k
    powers = np.empty((len(z), max(_LERCH_TERMS, int(k.max()) + 1)))
    powers[:, 0] = 1.0
    powers[:, 1:] = -z[:, None] / np.arange(1.0, powers.shape[1])
    powers.cumprod(axis=1, out=powers)
    # per group and node: the series sums, and sum_n b_n (-z)^k/k! times 1, (R-1)/eps, ...
    series = np.einsum("hgj,mj->hgm", np.einsum("gn,hgnj->hgj", b, np.stack(inv)),
                       powers[:, :_LERCH_TERMS])
    paired = k >= 0
    rows = _resonant_rows(eps, delta, np.maximum(k, 0))
    at_k = np.einsum("hgn,mgn->hgm", np.stack([b, *(b * r for r in rows)]) * paired,
                     powers[:, np.maximum(k, 0)])
    value = series[0] - L * _exprel(u) * at_k[0] - e_u * at_k[1]
    if not paired.all():  # a < -1/2, a negative margin: Gamma(-a) z^a has no pole to pair
        if delta is not None:  # only unit-table laws, one power family, reach a < -1/2
            raise ParameterDomainError("a sum exponent below 1/2 in a call with phi law families")
        gam = np.zeros_like(a)
        gam[~paired] = [math.gamma(-v) for v in a[~paired].tolist()]
        value = value + np.einsum("gn,gmn->gm", b * gam, np.exp(a[:, None, :] * L[:, None]))
    if delta is None:
        return value[None]
    return np.array([value, series[1] + L * L * _exprel_quotient(u, (eps + delta)[:, None] * L)
                     * at_k[0] - e_u * (at_k[3] - L * _exprel(delta[:, None] * L) * at_k[2])])


def _gauss_sums(a, delta, b, z):
    """_lerch_sums' sums for z > _Z_LERCH, by 32-point Gauss-Legendre in w = ln u.

    The integrand e^(-z - z expm1(w)) sum_n b_n e^(-a_n w), times
    phi_delta(w) for the quotient, is entire; the rule ends where it has
    fallen below e^-40 of its largest value: by w = 40/r for the slowest
    rate r = a_0 (a_0 + delta where that is smaller) or by
    z expm1(w) = 40 + 2g (1 + ln(1 + g/z)), g = max(0, -r), past the peak
    that a negative rate puts at ln(g/z).  Against 50-digit E_sig its sums
    are within 2.3e-15, and those of 2F1 with margins down to -10 within
    8.1e-15.  The continued fraction of the incomplete gamma function
    (DLMF 8.9.2), the closed form here, needs 95 terms at z = 1 and 35 at
    z = 3; with its quotient that is 1.1 ms a call against 0.1 ms.
    """
    rate = a[:, 0] if delta is None else a[:, 0] + np.minimum(delta, 0.0)
    grow = np.maximum(-rate, 0.0)[:, None]
    end = np.divide(40.0, rate, out=np.full(rate.shape, np.inf), where=rate > 0.0)[:, None]
    half = 0.5 * np.minimum(np.log1p((40.0 + 2.0 * grow * (1.0 + np.log1p(grow / z))) / z),
                            end)[..., None]
    w = half * (_GL_NODES + 1.0)
    f = np.exp(-z[:, None] * np.expm1(w) - a[:, :1, None] * w) * np.einsum(
        "gn,gmqn->gmq", b, _powers_of(np.exp(-w), b.shape[1])) * (half * _GL_WEIGHTS)
    if delta is not None:
        f = np.array([f, f * (w * _exprel(-delta[:, None, None] * w))])
    return np.exp(-z) * f.sum(axis=-1).reshape(-1, *f.shape[-3:-1])


@lru_cache(maxsize=4)
def _end_weights(J: int) -> np.ndarray:
    """[i, m]: the weight of (sig)_i z^m in _euler_maclaurin_ends at x = 1/J."""
    x = 1.0 / J
    weights = np.zeros((8, 8))
    weights[0, 0] = 0.5 * x
    for k, zeta in enumerate(_ZETA[:4], 1):
        for i in range(2 * k):
            weights[i, 2 * k - 1 - i] += zeta * x ** (2 * k) * math.comb(2 * k - 1, i)
    return weights


def _rising(a: np.ndarray, first) -> np.ndarray:
    """first (1 + a)_i, i = 0..7, along a new leading axis: one product per i over the array."""
    out = np.empty((8, *a.shape))
    out[0] = first
    steps = np.add.outer(np.arange(1.0, 8.0), a)  # a + i
    for i in range(1, 8):
        np.multiply(out[i - 1], steps[i - 1], out=out[i])
    return out


def _euler_maclaurin_ends(a, delta, b, z, J: int):
    """sum_n b_n e^-z ends(sig_n) and, with delta, the sum of their delta-quotients: ends(sig)
    the Euler-Maclaurin end terms at J of sum_(j>=J) j^-sig e^(-lam j), sig = 1 + a,
    scaled by J^(sig-1) e^(lam J).

    They are x/2 + sum_(k<=4) B_2k/(2k)! x^2k sum_i C(2k-1, i) (sig)_i z^(2k-1-i),
    x = 1/J and z = lam J, from the odd derivatives of t^-sig e^(-lam t) at
    t = J (DLMF 2.10.1); at z = 0 they are x/2 + sum_k B_2k/(2k)! (sig)_(2k-1) x^2k,
    the large-J expansion of the Hurwitz zeta function (DLMF 25.11.43).  The
    products b_n (sig_n)_i are one array, one product per i (_rising), summed
    over n before any node is touched.  The quotient of (sig)_i is
    -(sig+delta)_i sum_(l<i) (sig)_l/(sig+delta)_(l+1), with no delta in a
    denominator.
    """
    weights = _end_weights(J)
    if z.any():
        coef = np.exp(-z)[:, None] * np.einsum("mp,ip->mi", _powers_of(z, 8), weights)
    else:  # unit argument: the powers are 1, 0, 0, ... and e^-z is 1, so to the bit
        coef = weights[:, 0][None].repeat(len(z), axis=0)
    if delta is None:
        rising = _rising(a, b)[:, None]
    else:  # b (sig)_i and (sig+delta)_i in one run of products, then the quotient's terms
        rising = _rising(np.array([a, a + delta[:, None]]), np.array([b, np.ones_like(b)]))
        rising[1:, 1] *= np.cumsum(rising[:-1, 0] / rising[1:, 1], axis=0)
        rising[0, 1] = 0.0
    sums = np.einsum("ihgn->hgi", rising)
    sums[1:] *= -1.0  # the quotient's sign
    return np.einsum("hgi,mi->hgm", sums, coef)


def _lerch_tail(blocks, J: int, s: np.ndarray, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_(j>=J) (w_j/w_J) e^(-lam j) E_j at every lam >= 0, in closed form: the engine's tail.

    The family sums (_tail_series) leave, per set and node,
    J^(sig-1) sum_(j>=J) j^-sig e^(-lam j) phi(ln j), sig = n - e0 + 1 + s:
    by Euler-Maclaurin the integral E_sig(z) = int_1^inf u^-sig e^(-z u) du,
    z = lam J, plus the end terms at J (_euler_maclaurin_ends).  The nodes
    fall in three classes by z.  At z = 0, unit argument, E_sig(0) is
    1/(sig - 1) and its delta-quotient 1/((sig - 1)(sig - 1 + delta)), with
    all _TAIL_TERMS powers, as _pfq_at_1_pairs' J sizing assumes; sig - 1
    is formed as (n - e0) + s from the fsum'd margin, so where it is s
    itself it carries no rounding of 1 + s.  Above
    0 the first _LERCH_POWERS powers are summed: Lerch's series at
    z <= _Z_LERCH (_lerch_sums), and Gauss-Legendre in ln u above it
    (_gauss_sums), where the series cancels and the incomplete gamma's
    continued fraction needs 95 terms at z = 1.  A phi family takes the
    quotient term by term, (T(sig) - T(sig+delta))/delta
    + T(sig+delta) phi(ln J); a call whose laws have none forms no quotient.

    blocks is _series_dot's grouping of the sets, a list of (table, rows):
    an E table and the slice of rows of s and g whose sets sum on it.
    Every family of the table's law and set of a block is one group, block
    after block, each summed over n before any node is touched; a node's
    value does not depend on the other nodes, and a set's groups are added
    family by family in its law's order.
    """
    ln_J = math.log(J)
    z = lam * J
    zero = z == 0.0
    terms = _TAIL_TERMS if zero.any() else _LERCH_POWERS
    scale, b = _tail_series(blocks, J, g, terms)
    groups = [(family, s[rows]) for table, rows in blocks for family in table.law]
    sizes = [len(s_g) for _, s_g in groups]
    s_g = np.concatenate([s_g for _, s_g in groups])
    e0 = np.array([family[0] for family, _ in groups]).repeat(sizes)
    a = (np.arange(terms + 1.0) - e0[:, None]) + s_g[:, None]
    delta = None
    if any(family[1] is not None for family, _ in groups):
        delta = np.array([family[1] or 0.0 for family, _ in groups]).repeat(sizes)
    sums = np.empty((1 if delta is None else 2, len(a), len(z)))
    if zero.any():
        E = 1.0 / a
        E = E[None] if delta is None else np.array([E, E / (a + delta[:, None])])
        sums[..., zero] = (np.einsum("gn,hgn->hg", b, E)[..., None]
                           + _euler_maclaurin_ends(a, delta, b, z[zero], J))
    if not zero.all():
        a, b = a[:, :_LERCH_POWERS + 1], b[:, :_LERCH_POWERS + 1]
        below = ~zero & (z <= _Z_LERCH)
        if below.any():
            k0 = np.rint(a[:, 0] + (0.0 if delta is None else 0.5 * delta))
            # exact but for the one rounding of s, at an integer e0
            eps = (-e0 - k0) + s_g
            k = (k0[:, None] + np.arange(_LERCH_POWERS + 1)).astype(np.intp)
            sums[..., below] = _lerch_sums(a, eps, delta, k, b, z[below])
        if (above := z > _Z_LERCH).any():
            sums[..., above] = _gauss_sums(a, delta, b, z[above])
        sums[..., ~zero] += _euler_maclaurin_ends(a, delta, b, z[~zero], J)
    value = sums[0]
    if delta is not None:  # phi families: (T(sig) - T(sig+delta))/delta + T(sig+delta) phi(ln J)
        is_phi = np.array([family[1] is not None for family, _ in groups]).repeat(sizes)
        phi = np.array([_phi(family[1] or 0.0, ln_J) for family, _ in groups]).repeat(sizes)
        value = np.where(is_phi[:, None], sums[1] + (value - delta[:, None] * sums[1])
                         * phi[:, None], value)
    out = np.empty((len(s), len(z)))
    start = 0
    for table, rows in blocks:
        size = len(table.law) * len(s[rows])
        out[rows] = value[start:start + size].reshape(len(table.law), -1, len(z)).sum(axis=0)
        start += size
    return scale[:, None] * out


@np.errstate(divide="ignore", under="ignore")
def _series_tail(blocks, sets: np.ndarray, w_J: np.ndarray, lam: np.ndarray,
                 sums=None) -> np.ndarray:
    """sum_{j>=J} w_j e^(-lam j) E_j for each set and decay rate lam, J the tables' length.

    w(t) continues w_j = prod (p)_j/(q)_j over a set's (top, bottom) pairs
    (p, q) from the cumprod's w_J through the large-t expansion of
    ln Gamma(t+p) - ln Gamma(t+q) (DLMF 5.11.8) summed over the pairs, and
    E(t) is its table's large-j law.  The margin s = sum(q) - sum(p) - 1,
    w(t) ~ t^-(1+s), is rounded once from the parameters: formed as
    1 + sum(p - q) it would carry an absolute error of an ulp of 1, a
    relative error of eps/s in a tail-dominated sum.

    Their product is one closed form at every lam (_lerch_tail): the
    family sums of _tail_series, each an incomplete gamma integral plus
    Euler-Maclaurin end terms, which at lam = 0 are Hurwitz zeta values.
    It evaluates the law at no point and has no quadrature whose panels
    depend on lam; each node's value is what it is alone.

    sets is (N, pairs, 2), w_J (N,) and blocks _series_dot's (table, rows)
    grouping of the sets, every table of one length; the result is
    (N, len(lam)).  sums, when given, is the sets' (margins, power sums)
    as a caller that has formed them passes them on (_pfq_at_1_pairs);
    they are formed here otherwise.
    """
    s, powers = sums or (_margins(sets), _power_sums(sets, np.arange(_TAIL_TERMS + 3.0)))
    J = len(blocks[0][0].E)
    return w_J[:, None] * _lerch_tail(blocks, J, s, powers @ _LNGAMMA_ROWS.T, lam)


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
def _series_dot(tables, sets: np.ndarray, lam: np.ndarray, sums=None) -> np.ndarray:
    """sum_j w_j x^j E_j, table plus tail, for each set at each node x = e^-lam.

    w_j = prod (p)_j/(q)_j over a set's (top, bottom) pairs (p, q); j! is
    the pair (a, 1), so ((b, c), (a, 1)) on the unit table (E_j = 1) is
    2F1(a, b; c; x), and pairs for every top and bottom parameter at
    lam = 0 sum a (q+1)Fq at unit argument.  sets is an (N, pairs, 2)
    array, tables one _ETable per set (the same object repeated for a
    shared table), all of one length J, and lam the M nodes' decay rates;
    the result is (N, M), each entry what its set sums alone at its node
    alone.  The sets are grouped by table once, into (table, rows) blocks,
    each a run of consecutive sets on one table object (so a caller puts a
    table's sets together): each block's weights take its E, and its law's
    families are groups of the tail's one _lerch_tail call, so sets on
    several tables (a G's unit pieces and family sums) share one pass.  Terms past j = 60/lam are
    dropped: a node's sum runs to its own cut-off.
    For 2F1(1, b; c; x), |w_j| <= 1 (c > b, and c > |b| when b < 0) and
    the dropped terms are below e^-60; for 2F1(a, b; c; x) they are about
    60^q e^-60 / q! of the sum, q = a + b - c - 1, 1e-12 near
    a + b - c = 14.  Swept against mpmath for a, b in [-5, 5], c in
    (-3, 8), 1 - x in [1e-12, 0.15]: see hyp_2f1.

    Writing j = R q + r, R = _ROW and Q = J/R at every node, and
    x^j = e^(-lam R q) e^(-lam r) turns it into one matrix-vector product
    per set and node, sum_q e^(-lam R q) sum_r w_j E_j e^(-lam r), with no
    product chain along j; each factor is zero past the node's cut-off.  A
    node at lam = 0, unit argument, where every power is 1, sums the table
    as one plain sum.  Only nodes whose cut-off passes the table get the
    tail, _series_tail's closed form, to which sums passes the sets'
    margins and power sums.  lam = -ln x is exact near x = 1 where x
    itself has rounded (_decay_rate).
    """
    # a block is a run of sets on one table object, its rows a slice: views, not copies
    starts = [i for i in range(len(tables)) if i == 0 or tables[i] is not tables[i - 1]]
    blocks = [(tables[a], slice(a, b)) for a, b in zip(starts, [*starts[1:], len(tables)])]
    J = len(tables[0].E)
    Q = J // _ROW
    w = _pair_weights(sets, J)
    weights = w[:, :-1]
    for table, rows in blocks:
        weights[rows] *= table.E
    out = np.empty((len(sets), len(lam)))
    zero = lam == 0.0
    if zero.any():  # unit argument: every power is 1, the table one sum
        out[:, zero] = weights.sum(axis=1)[:, None]
    if not zero.all():
        # x = 0: e^(-lam*0) stays 1, higher powers vanish
        rate = np.minimum(lam[~zero], 1e3)[:, None]
        # a matrix-vector product per node: BLAS would round a matrix product by its row count
        inner = (weights.reshape(-1, Q, _ROW)[:, None]
                 @ _powers(rate * np.arange(_ROW))[None, :, :, None])[..., 0]
        out[:, ~zero] = np.einsum("mq,nmq->nm", _powers(rate * (_ROW * np.arange(Q))), inner)
    need = np.ceil(_CUTOFF / lam) + 1.0 >= J
    if need.any():
        out[:, need] += _series_tail(blocks, sets, w[:, J], lam[need], sums)
    return out


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
    Against mpmath for 1 - x log-uniform in [1e-12, 0.15], 80 draws each,
    the worst relative error was 2.0e-15 for 2F1(1, d; 2-d; x), d in
    (0, 0.5); 2.5e-14 with c - a - b within 3e-6 of -1, 0, 1 or 2; 3.7e-12
    for a, b in [-2, 2], c in (-3, 4) and 3.2e-12 for a, b in [-5, 5], c in
    (0, 8), where the series cancels.  At small margins, 2F1(1, d; 2-d;
    1 - e) is within 3.4e-15 of 320-digit mpmath for d up to 0.499 and e
    down to 1e-225, and so are 2F1(1, b; c) with c - b an integer.
    `one_minus_x` may carry the exact distance to 1 when x itself is within
    rounding of 1.  A non-positive integer c raises PoleError unless a or b
    terminates the series first.  Above 0.85, a + b - c beyond about 15.2
    raises ParameterDomainError: the engine's cut-off would drop more than
    1e-12 of the sum (2F1(12, 12; 1; 0.9) was 7.9e-11 off, 2F1(30, 30; 1;
    0.9) 10%).
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
    The engine drops the terms past its cut-off, about 60^q e^-60/q! of the
    sum, q = -1 - margin (a + b - c - 1 for a 2F1), at every x; where that
    share passes _DROPPED_MAX the sum raises ParameterDomainError.
    """
    if params.validate() is not None or x <= 0.85:
        return _pfq_series(params, x).value
    pairs = np.array([list(zip(reversed(params.top), (*params.bottom, 1.0)))])
    q = -1.0 - _margins(pairs)[0]
    if q > 0.0 and q * math.log(_CUTOFF) - _CUTOFF - math.lgamma(q + 1.0) > math.log(_DROPPED_MAX):
        raise ParameterDomainError(
            f"series too steep for the engine: q = {q:.6g}, its dropped share 60^q e^-60/q! "
            f"exceeds {_DROPPED_MAX:g}")
    return _series_dot([_UNIT], pairs, np.atleast_1d(_decay_rate(x, one_minus_x))).item()


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
