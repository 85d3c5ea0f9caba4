"""Scalar special functions underpinning the cumulant formulas.

Gamma machinery (log-domain with sign tracking, pole-safe ratios),
Pochhammer symbols, Gauss 2F1 including evaluation at the unit argument,
a generalized (q+1)Fq-at-unity evaluator, and the series engine that sums
Gauss-type series close to unit argument.

Series at unit argument converge only like k^-(1+s) where s is the
convergence margin sum(bottom) - sum(top), which drops to ~1.1 for the
parameter families used here.  Raw summation to 1e-12 is therefore
infeasible; truncated sums are completed with the integral-comparison
tail estimate t_N*(N+1)/s and refined by Richardson extrapolation over
doubling checkpoints (the error of the tail-corrected sum decays like
N^-(s+1), N^-(s+2), ...).

Close to unit argument one engine, _series_dot, sums
sum_j (a)_j (b)_j/((c)_j j!) x^j E_j: Gauss 2F1 on the unit table E_j = 1,
and the operator route's telescoping sums on its E tables.  Past the
table the sum is one Euler-Maclaurin integral, so it stays accurate down
to 1 - x ~ 1e-280, with no special case where c - a - b is an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import bernoulli, roots_laguerre, roots_legendre


class SpecialFunctionError(Exception):
    """Base class for numerical special-function failures."""


class PoleError(SpecialFunctionError):
    """A Gamma factor is evaluated at a non-positive integer with no cancelling pole."""


class DivergenceError(SpecialFunctionError):
    """The requested series diverges (non-positive convergence margin)."""


class NonConvergenceError(SpecialFunctionError):
    """The term cap was reached before the error estimate met the tolerance."""


class ParameterDomainError(SpecialFunctionError):
    """Arguments outside the supported parameter domain."""


_INT_TOL = 1e-12


def _nonpos_int(x: float, tol: float = _INT_TOL) -> bool:
    return x < 0.5 and abs(x - round(x)) <= tol and round(x) <= 0


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


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a(a+1)...(a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ParameterDomainError("pochhammer requires k >= 0")
    if k == 0:
        return 1.0
    if k <= 30:
        out = 1.0
        for i in range(k):
            out *= a + i
        return out
    # log space to dodge overflow for long products
    log = 0.0
    sign = 1.0
    for i in range(k):
        v = a + i
        if v == 0.0:
            return 0.0
        log += math.log(abs(v))
        sign = -sign if v < 0 else sign
    return sign * math.exp(log)


class _GammaProduct:
    """prod Gamma(numerator) / prod Gamma(denominator) in log space.

    A numerator argument at a pole sets `pole`, a denominator argument at
    a pole sets `zero`; the remaining factors accumulate into `log` and
    `sign`.
    """

    def __init__(self, numerator=(), denominator=()) -> None:
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


def gamma_product(numerator: tuple[float, ...] = (), denominator: tuple[float, ...] = ()) -> float:
    """prod Gamma(numerator) / prod Gamma(denominator), 0.0 on denominator poles."""
    return _GammaProduct(numerator, denominator).value()


# ---------------------------------------------------------------------------
# Hypergeometric parameter/config types
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


@dataclass(frozen=True)
class EvalConfig:
    """Series evaluation policy: the relative tolerance."""

    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ParameterDomainError("rel_tol must be positive")


DEFAULT_CONFIG = EvalConfig()


class SeriesResult(NamedTuple):
    value: float
    error_estimate: float
    n_terms: int

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Series engine
# ---------------------------------------------------------------------------

_BLOCK = 2048
_MAX_TERMS = 1_000_000  # term cap of the series summed term by term


def _term_ratios(top, bottom, ks: np.ndarray, x: float) -> np.ndarray:
    """t_{k+1}/t_k for k in ks."""
    num = np.ones_like(ks, dtype=float) * x
    for a in top:
        num *= a + ks
    den = ks + 1.0
    for b in bottom:
        den *= b + ks
    return num / den


def _sum_terminating(top, bottom, x: float, m: int) -> float:
    total = 1.0
    t = 1.0
    for k in range(m):
        r = x / (k + 1.0)
        for a in top:
            r *= a + k
        for b in bottom:
            r /= b + k
        t *= r
        total += t
    return total


def _sum_power_law_at_unity(top, bottom, s: float, cfg: EvalConfig) -> SeriesResult:
    """Sum a (q+1)Fq series at unit argument, terms ~ C k^-(1+s).

    Checkpoints at doubling N record the tail-corrected value
    T(N) = S_N + t_N (N+1)/s whose error decays like N^-(s+1); Richardson
    extrapolation eliminates the N^-(s+1) and N^-(s+2) error terms
    across the last three checkpoints.
    """
    rel_tol = cfg.rel_tol
    scale = max((abs(p) for p in (*top, *bottom)), default=1.0)
    first_checkpoint = 64
    while first_checkpoint < 4 * scale:
        first_checkpoint *= 2

    S = 1.0  # k = 0 term
    t = 1.0
    k = 0
    checkpoints: list[tuple[int, float]] = []  # (N, tail-corrected T(N))

    while k < _MAX_TERMS:
        n = min(_BLOCK, _MAX_TERMS - k)
        ks = np.arange(k, k + n, dtype=float)
        terms = t * np.cumprod(_term_ratios(top, bottom, ks, 1.0))
        S += float(terms.sum())
        t = float(terms[-1])
        k += n
        tail = t * (k + 1) / s

        if abs(tail) <= 1e-3 * rel_tol * abs(S):
            # tail already negligible; no refinement needed
            return SeriesResult(S + tail, abs(tail) + 4 * np.finfo(float).eps * abs(S), k)

        if k >= first_checkpoint and (not checkpoints or k >= 2 * checkpoints[-1][0]):
            checkpoints.append((k, S + tail))
            if len(checkpoints) >= 3:
                r1 = 2.0 ** (s + 1) - 1.0
                r2 = 2.0 ** (s + 2) - 1.0
                (_, T0), (_, T1), (_, T2) = checkpoints[-3:]
                R1a = T1 + (T1 - T0) / r1
                R1b = T2 + (T2 - T1) / r1
                R2 = R1b + (R1b - R1a) / r2
                err = abs(R2 - R1b) + 8 * np.finfo(float).eps * abs(R2)
                if err <= 0.5 * rel_tol * abs(R2):
                    return SeriesResult(R2, err, k)

    # term cap reached: report the best available value, or fail
    if checkpoints:
        value = checkpoints[-1][1]
        err = (
            abs(checkpoints[-1][1] - checkpoints[-2][1])
            if len(checkpoints) >= 2
            else abs(t * (k + 1) / s)
        )
        if err <= rel_tol * abs(value):
            return SeriesResult(value, err, k)
        raise NonConvergenceError(
            f"series error estimate {err:.3e} above tolerance after {k} terms"
        )
    raise NonConvergenceError(f"series did not converge within {_MAX_TERMS} terms")


def pfq_at_1(params: HypParams, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Generalized hypergeometric series at unit argument with tail handling."""
    params.validate()
    top, bottom = params.top, params.bottom
    if len(top) > len(bottom) + 1:
        raise DivergenceError("series with p > q+1 diverges at nonzero argument")
    m = params.terminating_order()
    if m is not None:
        return SeriesResult(_sum_terminating(top, bottom, 1.0, m), 0.0, m + 1)
    if len(top) <= len(bottom):
        return _pfq_series(params, 1.0, cfg)  # factorial decay
    s = params.margin
    if s <= 0:
        raise DivergenceError(f"convergence margin s={s:.6g} <= 0 at unit argument")
    return _sum_power_law_at_unity(top, bottom, s, cfg)


def _pfq_series(params: HypParams, x: float, cfg: EvalConfig) -> SeriesResult:
    """Plain pFq power series for |x| < 1 (or factorially convergent p <= q)."""
    params.validate()
    m = params.terminating_order()
    if m is not None:
        return SeriesResult(_sum_terminating(params.top, params.bottom, x, m), 0.0, m + 1)
    S = 1.0
    t = 1.0
    k = 0
    small = 0
    while k < _MAX_TERMS:
        r = x / (k + 1.0)
        for a in params.top:
            r *= a + k
        for b in params.bottom:
            r /= b + k
        t *= r
        S += t
        k += 1
        if abs(t) < cfg.rel_tol * abs(S):
            small += 1
            if small >= 3:
                return SeriesResult(S, abs(t), k)
        else:
            small = 0
    raise NonConvergenceError(f"pFq series did not converge within {_MAX_TERMS} terms")


def pfq(params: HypParams, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """pFq at real argument: |x| < 1 by direct series, x = 1 via pfq_at_1."""
    if x == 1.0:
        return pfq_at_1(params, cfg)
    if abs(x) >= 1.0:
        raise ParameterDomainError(f"pfq requires |x| < 1 or x = 1, got {x}")
    return _pfq_series(params, x, cfg)


# ---------------------------------------------------------------------------
# Series engine near unit argument: sum_j (a)_j (b)_j/((c)_j j!) x^j E_j
# ---------------------------------------------------------------------------

_J_TABLE = 1 << 14     # tabulated E_j range; tails are fitted beyond
_CUTOFF = 60.0         # series terms below e^-60 (relative to w_0 = 1) are dropped
_ROW = 128             # x^j = x^(R q) x^r with r < R; J is a multiple of R
_EDGE = 36.0           # the tail integral leaves ln t for Gauss-Laguerre at lam t = 36
_EDGE_PANELS = 12      # unit panels in ln t below that point
_DOUBLINGS = 10        # panels [2^i - 1, 2^(i+1) - 1] in ln(t/t0) before them
_GL_NODES, _GL_WEIGHTS = roots_legendre(20)
_LAG_NODES, _LAG_WEIGHTS = roots_laguerre(16)
# ln Gamma(t+b) - ln Gamma(t+c) = (b-c) ln t + sum_{k=2..6} g_k t^(1-k) + O(t^-6)
# (DLMF 5.11.8) with g_k = (-1)^k (B_k(b) - B_k(c)) / (k(k-1)) for the Bernoulli
# polynomials B_k; row k-2 holds the weights of b^m - c^m, m = 0..6, in g_k
_BERNOULLI = bernoulli(6)
_LNGAMMA_K = np.arange(2, 7)
_LNGAMMA_ROWS = np.array([[(-1) ** k * math.comb(k, m) * _BERNOULLI[k - m] / (k * (k - 1))
                           if m <= k else 0.0 for m in range(7)] for k in _LNGAMMA_K])


@dataclass(frozen=True)
class _ETable:
    E: np.ndarray
    tail_exponents: tuple[float, ...]
    tail_coefs: tuple[float, ...]


# E_j = 1 exactly: _series_dot on it is 2F1(a, b; c; x)
_UNIT = _ETable(np.ones(_J_TABLE), (0.0,), (1.0,))


def _like(values: np.ndarray, x):
    """A float for a scalar abscissa, the node array otherwise."""
    return float(values[0]) if np.ndim(x) == 0 else values


def _decay_rate(x, z):
    """lam = -ln(x) from whichever of x, 1-x is known accurately (inf at x = 0)."""
    with np.errstate(divide="ignore"):
        return np.where(z < 0.5, -np.log1p(-z), -np.log(x))


def _series_tail(table: _ETable, a: float, b: float, c: float, w_J: float,
                 lam: np.ndarray) -> np.ndarray:
    """sum_{j>=J} w_j e^(-lam j) E_j at each decay rate lam, J = len(table.E).

    Midpoint Euler-Maclaurin: the integral of f(t) = w(t) e^(-lam t) E(t)
    from t0 = J - 1/2, plus f'(t0)/24.  w(t) continues
    w_j = (a)_j (b)_j/((c)_j j!) from the cumprod's w_J through the
    large-t expansions of ln Gamma(t+b) - ln Gamma(t+c) and
    ln Gamma(t+a) - ln Gamma(t+1) (DLMF 5.11.8, five Bernoulli terms), and
    E(t) is the table's fitted law, so every exponent shares one
    quadrature.  The integral is taken in u = ln(t/t0), where a power law
    is exponential: doubling Gauss-Legendre panels up to 12 units below
    the cut-off lam t = 36, unit panels across it, and Gauss-Laguerre in t
    beyond it.  Logarithms of t throughout keep t itself from overflowing
    when lam is near the smallest normal float; lam = 0 has no cut-off and
    the doubling panels reach u = 1023.
    """
    J = len(table.E)
    t0 = J - 0.5
    ln_t0 = math.log(t0)
    exps = np.asarray(table.tail_exponents)
    coefs = np.asarray(table.tail_coefs)
    expo = (b - c) + (a - 1.0)  # w_j ~ j^expo
    powers = np.arange(7.0)
    g = _LNGAMMA_ROWS @ ((b ** powers - c ** powers) + (a ** powers - 1.0))
    ln_wJ = expo * math.log(J) + float(g @ float(J) ** (1 - _LNGAMMA_K))

    def terms(ln_t, shift):
        """w(t)/w_J t^e e^shift for each law exponent e (leading axis)."""
        inv = np.exp(-ln_t)
        ratio = g[-1]
        for gk in g[-2::-1]:
            ratio = gk + inv * ratio
        ratio = expo * ln_t + inv * ratio - ln_wJ
        with np.errstate(under="ignore"):
            return np.exp(np.multiply.outer(exps, ln_t) + (ratio + shift))

    lam = lam[:, None]
    with np.errstate(divide="ignore"):
        ln_lam = np.log(lam)
    # panel edges in u per node: doublings clipped at u_edge - 12, then unit steps to
    # u_edge; past u = 42/r the slowest law term, t f(t) ~ e^(-r u), is below e^-42
    u_edge = np.minimum(math.log(_EDGE) - ln_lam - ln_t0, 2.0**_DOUBLINGS - 1.0 + _EDGE_PANELS)
    u_lo = u_edge - _EDGE_PANELS
    decay = -expo - 1.0 - exps.max()
    edges = np.minimum(np.concatenate([
        np.minimum(2.0 ** np.arange(_DOUBLINGS + 1) - 1.0, np.maximum(u_lo, 0.0)),
        np.maximum(u_lo + np.arange(1, _EDGE_PANELS + 1), 0.0),
    ], axis=1), 42.0 / decay if decay > 0.0 else np.inf)
    lo, half = edges[:, :-1], 0.5 * np.diff(edges, axis=1)
    used = (half > 0.0).any(axis=0)
    lo, half = lo[:, used, None], half[:, used, None]
    ln_t = ln_t0 + lo + half * (_GL_NODES + 1.0)
    with np.errstate(under="ignore"):
        lam_t = np.exp(ln_lam[:, :, None] + ln_t)
    # the Jacobian dt = t du joins the exponent
    law = np.tensordot(coefs, terms(ln_t, ln_t - lam_t), 1)
    panels = np.sum(law * half * _GL_WEIGHTS, axis=(1, 2))

    # beyond the panels: t = t_g + s/lam with lam t_g = max(36, lam t0), dt = ds/lam
    live = lam > 0.0
    ln_lam = np.where(live, ln_lam, 0.0)
    lam_tg = np.maximum(_EDGE, lam * t0)
    ln_t = np.log(lam_tg + _LAG_NODES) - ln_lam
    beyond = np.tensordot(coefs, terms(ln_t, -lam_tg - ln_lam), 1) @ _LAG_WEIGHTS
    beyond[~live[:, 0]] = 0.0

    # Euler-Maclaurin correction f'(t0)/24, with f'/f = (ln w)' - lam + e/t
    at_t0 = terms(np.full_like(lam, ln_t0), -lam * t0)[:, :, 0]
    slope = expo / t0 + float(g @ ((1 - _LNGAMMA_K) * t0 ** -_LNGAMMA_K)) - lam[:, 0]
    df0 = (coefs @ at_t0) * slope + (coefs * exps / t0) @ at_t0
    return w_J * (panels + beyond + df0 / 24.0)


def _series_dot(table: _ETable, b: float, c: float, x, lam, a: float = 1.0):
    """sum_j w_j x^j E_j, w_j = (a)_j (b)_j/((c)_j j!), table plus tail, at each node.

    With the unit table (E_j = 1) this is 2F1(a, b; c; x).  Terms past
    j = 60/lam are dropped, so the sum runs to the longest such cut-off
    among the nodes.  With a = 1, |w_j| <= 1 (c > b, and c > |b| when
    b < 0) and the dropped terms are below e^-60; otherwise they are about
    60^q e^-60 / q! of the sum, q = a + b - c - 1, 1e-12 near a + b - c = 14.
    Swept against mpmath for a, b in [-5, 5], c in (-3, 8), 1 - x in
    [1e-12, 0.15]: see hyp_2f1.

    Writing j = R q + r and x^j = e^(-lam R q) e^(-lam r) turns it into one
    matrix product, sum_q e^(-lam R q) sum_r w_j E_j e^(-lam r), with no
    product chain along j.  Only nodes whose cut-off passes the table get
    the tail.  The powers come from lam = -ln x, which is exact near x = 1
    where x itself has rounded; x only sets the shape of the result.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    J = len(table.E)
    with np.errstate(divide="ignore"):
        n_terms = np.minimum(np.ceil(_CUTOFF / lams) + 1.0, J).astype(np.intp)
    m = int(n_terms.max(initial=1))
    R = min(m, _ROW)
    Q = -(-m // R)
    j = np.arange(Q * R, dtype=float)
    # (b+j)/(c+j) as 1 - (c-b)/(c+j): b + j rounds alike across a whole binade
    ratio = 1.0 - (c - b) / (c + j)
    if a != 1.0:
        ratio *= 1.0 + (a - 1.0) / (1.0 + j)  # (a+j)/(1+j) likewise
    w = np.empty(Q * R + 1)
    w[0] = 1.0
    np.cumprod(ratio, out=w[1:])
    weights = (w[:-1] * table.E[:Q * R]).reshape(Q, R)
    rate = np.minimum(lams, 1e3)[:, None]  # x = 0: e^(-lam*0) stays 1, higher powers vanish
    with np.errstate(under="ignore"):
        inner = np.exp(-rate * np.arange(R)) @ weights.T
        out = np.einsum("nq,nq->n", np.exp(-rate * (R * np.arange(Q))), inner)
    need = n_terms == J
    if need.any():
        out[need] += _series_tail(table, a, b, c, w[J], lams[need])
    return _like(out, x)


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


def hyp_2f1(a: float, b: float, c: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG,
            one_minus_x: float | None = None) -> float:
    """Gauss 2F1(a,b;c;x) for |x| < 1, or x = 1 when c-a-b > 0.

    Terminating cases sum exactly, x <= 0.85 by the power series to
    cfg.rel_tol, x = 1 by Gauss's sum, and 0.85 < x < 1 by the series
    engine on the unit table, with no special case at an integer c - a - b.
    Against mpmath for 1 - x in [1e-12, 0.15] the worst relative error was
    5.8e-15 for 2F1(1, d; 2-d; x), d in (0, 0.5); 2.7e-14 with c - a - b
    within 3e-6 of -1, 0, 1 or 2; 1.5e-13 for a, b in [-2, 2], c in
    (-3, 4); 3.6e-11 for a, b in [-5, 5], c in (0, 8), where the series
    cancels to 1e-5 of its largest term.  `one_minus_x` may carry the exact
    distance to 1 when x itself is within rounding of 1.
    """
    if _nonpos_int(c):
        term = HypParams((a, b), (c,)).terminating_order()
        if term is None or term >= int(round(-c)) + 1:
            raise PoleError(f"2F1 bottom parameter c={c} is a non-positive integer")
    z = (1.0 - x) if one_minus_x is None else one_minus_x
    if x == 0.0 or a == 0.0 or b == 0.0:
        return 1.0
    if z == 0.0:
        return gauss_2f1_at_1(a, b, c)
    if not (-1.0 < x < 1.0 or 0.0 < z < 1.0):
        raise ParameterDomainError(f"2F1 requires |x| < 1 (or x = 1), got x={x}")
    params = HypParams((a, b), (c,))
    if params.terminating_order() is not None or x <= 0.85:
        return _pfq_series(params, x, cfg).value
    return _series_dot(_UNIT, b, c, x, _decay_rate(x, z), a)


# ---------------------------------------------------------------------------
# Closed-form integrals used by the formula layer
# ---------------------------------------------------------------------------

def product_binomial_integral(p: float, q: float, d: float,
                              cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Integral of (1-pz)^-d (1-qz)^-d over z in (0,1) by its two-term 2F1 form.

    The closed form is written for q <= p; the integral itself is symmetric
    in (p, q), so arguments are swapped as needed.

    A documented library call that no command reaches, and the one
    in-package caller of hyp_2f1.  Against an mpmath quadrature it was
    within 3.2e-12 relative on 36 draws, d within 1e-9 of 0 and of 0.5 and
    q/p within 1e-9 of 1 among them; the power series to cfg.rel_tol at
    2F1 arguments up to 0.85 sets that limit.
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
    f1 = hyp_2f1(1.0, d, 2.0 - d, q / p, cfg, one_minus_x=(p - q) / p)
    f2 = hyp_2f1(1.0, d, 2.0 - d, q * (1.0 - p) / (p * (1.0 - q)), cfg,
                 one_minus_x=(p - q) / (p * (1.0 - q)))
    return (f1 - (1.0 - p) ** (1.0 - d) * (1.0 - q) ** (-d) * f2) / ((1.0 - d) * p)


def prudnikov_product_integral(alpha: float, a: float, b: float, c: float,
                               a2: float, b2: float, c2: float,
                               cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Weighted integral of a product of two 2F1(1-x) factors as two 4F3(1) terms.

    Evaluates int_0^1 x^(alpha-1) (1-x)^(c-1) 2F1(a,b;c;1-x) 2F1(a2,b2;c2;1-x) dx.
    The second term's third numerator Gamma factor is Gamma(a2+b2-c2) (the
    printed source table carries a sign slip there).  Requires both 4F3
    series to converge (margin c - c2 + 1 > 0).

    A documented library call that no command reaches, kept because it
    records the corrected table formula; tests check it against quadrature.
    """
    if alpha <= 0 or c <= 0:
        raise ParameterDomainError("integral requires alpha > 0 and c > 0")
    pref1 = gamma_product(
        (c, c2, c2 - a2 - b2, alpha, c - a - b + alpha),
        (c - a + alpha, c - b + alpha, c2 - a2, c2 - b2),
    )
    pref2 = gamma_product(
        (c, c2, a2 + b2 - c2, c2 - a2 - b2 + alpha, c + c2 - a - a2 - b - b2 + alpha),
        (a2, b2, c + c2 - a - a2 - b2 + alpha, c + c2 - a2 - b - b2 + alpha),
    )
    out = 0.0
    if pref1 != 0.0:
        f1 = HypParams(
            (a2, b2, alpha, c - a - b + alpha),
            (c - a + alpha, c - b + alpha, a2 + b2 - c2 + 1.0),
        )
        if f1.terminating_order() is None and f1.margin <= 0:
            raise DivergenceError(f"first 4F3 margin {f1.margin:.6g} <= 0")
        out += pref1 * pfq_at_1(f1, cfg).value
    if pref2 != 0.0:
        f2 = HypParams(
            (c2 - a2, c2 - b2, c2 - a2 - b2 + alpha, c + c2 - a - a2 - b - b2 + alpha),
            (c2 - a2 - b2 + 1.0, c + c2 - a - a2 - b2 + alpha, c + c2 - a2 - b - b2 + alpha),
        )
        if f2.terminating_order() is None and f2.margin <= 0:
            raise DivergenceError(f"second 4F3 margin {f2.margin:.6g} <= 0")
        out += pref2 * pfq_at_1(f2, cfg).value
    return out
