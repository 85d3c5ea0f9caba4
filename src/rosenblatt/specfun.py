"""Scalar special functions underpinning the cumulant formulas.

Gamma machinery (log-domain with sign tracking, pole-safe ratios),
Pochhammer symbols, Gauss 2F1 including evaluation at the unit argument,
and a generalized (q+1)Fq-at-unity evaluator.

Series at unit argument converge only like k^-(1+s) where s is the
convergence margin sum(bottom) - sum(top), which drops to ~1.1 for the
parameter families used here.  Raw summation to 1e-12 is therefore
infeasible; truncated sums are completed with the integral-comparison
tail estimate t_N*(N+1)/s, optionally refined by Richardson extrapolation
over doubling checkpoints (the error of the tail-corrected sum decays
like N^-(s+1), N^-(s+2), ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import exp1, gammaincc


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


TAIL_POLICIES = ("power-law-tail-estimate", "sequence-acceleration", "none")


@dataclass(frozen=True)
class EvalConfig:
    """Series evaluation policy: tolerance, term cap, tail handling."""

    rel_tol: float = 1e-12
    max_terms: int = 1_000_000
    tail_policy: str = "sequence-acceleration"

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ParameterDomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ParameterDomainError("max_terms must be >= 1")
        if self.tail_policy not in TAIL_POLICIES:
            raise ParameterDomainError(f"unknown tail_policy {self.tail_policy!r}")


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
    T(N) = S_N + t_N (N+1)/s whose error decays like N^-(s+1); the
    sequence-acceleration policy Richardson-eliminates the N^-(s+1)
    and N^-(s+2) error terms across checkpoints.
    """
    policy = cfg.tail_policy
    rel_tol = cfg.rel_tol
    scale = max((abs(p) for p in (*top, *bottom)), default=1.0)
    first_checkpoint = 64
    while first_checkpoint < 4 * scale:
        first_checkpoint *= 2

    S = 1.0  # k = 0 term
    t = 1.0
    k = 0
    checkpoints: list[tuple[int, float]] = []  # (N, tail-corrected T(N))

    while k < cfg.max_terms:
        n = min(_BLOCK, cfg.max_terms - k)
        ks = np.arange(k, k + n, dtype=float)
        terms = t * np.cumprod(_term_ratios(top, bottom, ks, 1.0))
        S += float(terms.sum())
        t = float(terms[-1])
        k += n
        tail = t * (k + 1) / s

        if policy == "none":
            if n >= 3 and bool((np.abs(terms[-3:]) < rel_tol * abs(S)).all()):
                return SeriesResult(S, abs(tail), k)
            continue

        if abs(tail) <= 1e-3 * rel_tol * abs(S):
            # tail already negligible; no refinement needed
            return SeriesResult(S + tail, abs(tail) + 4 * np.finfo(float).eps * abs(S), k)

        if k >= first_checkpoint and (not checkpoints or k >= 2 * checkpoints[-1][0]):
            checkpoints.append((k, S + tail))
            if policy == "power-law-tail-estimate" and len(checkpoints) >= 2:
                T_prev, T = checkpoints[-2][1], checkpoints[-1][1]
                err = abs(T - T_prev) + 4 * np.finfo(float).eps * abs(T)
                if err <= 0.5 * rel_tol * abs(T):
                    return SeriesResult(T, err, k)
            elif policy == "sequence-acceleration" and len(checkpoints) >= 3:
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
    if policy != "none" and checkpoints:
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
    raise NonConvergenceError(f"series did not converge within {cfg.max_terms} terms")


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
    while k < cfg.max_terms:
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
    raise NonConvergenceError(f"pFq series did not converge within {cfg.max_terms} terms")


def pfq(params: HypParams, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesResult:
    """pFq at real argument: |x| < 1 by direct series, x = 1 via pfq_at_1."""
    if x == 1.0:
        return pfq_at_1(params, cfg)
    if abs(x) >= 1.0:
        raise ParameterDomainError(f"pfq requires |x| < 1 or x = 1, got {x}")
    return _pfq_series(params, x, cfg)


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


def _upper_gamma(a: float, y: float) -> float:
    """Upper incomplete Gamma(a, y), y > 0, lifted by recurrence for a <= 0."""
    if a > 1e-8:
        return gammaincc(a, y) * math.exp(math.lgamma(a))
    if abs(a) <= 1e-8:
        return float(exp1(y))
    # Gamma(a, y) = (Gamma(a+1, y) - y^a e^-y) / a
    return (_upper_gamma(a + 1.0, y) - y**a * math.exp(-y)) / a


def _geom_power_tail(t_last: float, n: int, p: float, lam: float) -> float:
    """Tail sum_{m>=1} t_last (1+m/n)^p e^(-lam m) via the exponential-power model.

    Integral comparison: sum ~ t_last * n * e^y y^(-p-1) Gamma(p+1, y) with
    y = lam * n.  Accurate to O(1/n) of the tail.  For y within rounding
    of zero the pure power law applies and needs p < -1.
    """
    y = lam * n
    if y < 1e-8:
        if p >= -1.0:
            raise NonConvergenceError("power tail with exponent >= -1 at unit argument")
        return t_last * n / (-p - 1.0)
    return t_last * n * math.exp(y - (p + 1.0) * math.log(y)) * _upper_gamma(p + 1.0, y)


def _hyp2f1_series_slow(a: float, b: float, c: float, x: float, cfg: EvalConfig,
                        z: float | None = None) -> SeriesResult:
    """Direct 2F1 series near x=1 with the power*geometric tail model.

    Fallback for c-a-b within rounding of an integer, where the
    1-x connection formula degenerates.  Terms behave like
    k^(a+b-c-1) x^k at large k.
    """
    lam = -math.log(x) if z is None else -math.log1p(-z)
    p = a + b - c - 1.0
    scale = max(abs(a), abs(b), abs(c), 1.0)
    S = 1.0
    t = 1.0
    k = 0
    cap = max(cfg.max_terms, 2_000_000)
    while k < cap:
        n = _BLOCK
        ks = np.arange(k, k + n, dtype=float)
        terms = t * np.cumprod(_term_ratios((a, b), (c,), ks, x))
        S += float(terms.sum())
        t = float(terms[-1])
        k += n
        if abs(t) < 1e-18 * abs(S):
            return SeriesResult(S, abs(t), k)
        if k < 8 * scale:
            continue
        # model tail is accurate to O((|p|+2)/k) of itself
        tail = _geom_power_tail(t, k, p, lam)
        err = abs(tail) * (abs(p) + 2.0) / k
        if err < cfg.rel_tol * abs(S):
            return SeriesResult(S + tail, err, k)
    raise NonConvergenceError("2F1 series near x=1 did not converge")


def hyp_2f1(a: float, b: float, c: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG,
            one_minus_x: float | None = None) -> float:
    """Gauss 2F1(a,b;c;x) for |x| < 1, or x = 1 when c-a-b > 0.

    Terminating cases sum exactly.  For x close to 1 the series is
    re-expanded about 1-x through the standard connection formula; when
    c-a-b sits at an integer (where that formula degenerates) the direct
    series is summed with a tail model instead.  `one_minus_x` may carry
    the exact distance to 1 when x itself is within rounding of 1.
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
    m = c - a - b
    if abs(m - round(m)) < 1e-6:
        return _hyp2f1_series_slow(a, b, c, x, cfg, z=z).value
    # connection about 1-x
    c1 = gamma_product((c, m), (c - a, c - b))
    c2 = gamma_product((c, -m), (a, b))
    out = 0.0
    if c1 != 0.0:
        out += c1 * _pfq_series(HypParams((a, b), (a + b - c + 1.0,)), z, cfg).value
    if c2 != 0.0:
        out += c2 * z**m * _pfq_series(HypParams((c - a, c - b), (m + 1.0,)), z, cfg).value
    return out


# ---------------------------------------------------------------------------
# Closed-form integrals used by the formula layer
# ---------------------------------------------------------------------------

def product_binomial_integral(p: float, q: float, d: float,
                              cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Integral of (1-pz)^-d (1-qz)^-d over z in (0,1) by its two-term 2F1 form.

    The closed form is written for q <= p; the integral itself is symmetric
    in (p, q), so arguments are swapped as needed.
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
    f1 = hyp_2f1(1.0, d, 2.0 - d, q / p, cfg)
    f2 = hyp_2f1(1.0, d, 2.0 - d, q * (1.0 - p) / (p * (1.0 - q)), cfg)
    return (f1 - (1.0 - p) ** (1.0 - d) * (1.0 - q) ** (-d) * f2) / ((1.0 - d) * p)


def prudnikov_product_integral(alpha: float, a: float, b: float, c: float,
                               a2: float, b2: float, c2: float,
                               cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Weighted integral of a product of two 2F1(1-x) factors as two 4F3(1) terms.

    Evaluates int_0^1 x^(alpha-1) (1-x)^(c-1) 2F1(a,b;c;1-x) 2F1(a2,b2;c2;1-x) dx.
    The second term's third numerator Gamma factor is Gamma(a2+b2-c2) (the
    printed source table carries a sign slip there).  Requires both 4F3
    series to converge (margin c - c2 + 1 > 0).
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
