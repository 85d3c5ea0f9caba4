"""Operator-recursion route to the cumulant factors.

The kernel operator (K f)(x) = int_0^1 |x-u|^(-d) f(u) du generates a
sequence of functions starting from G_1(x) = (1-x)^(-d)/sqrt(1-d), and
the cumulant factor c_k equals int_0^1 G_mu G_nu dx for any mu+nu = k.
G_2, G_3 and G_4 are K applied piece by piece to the previous G through
two kernel images: kernel_one_minus_power, and kernel_hyp2f1_moment at
a = 1 on u^(c-1) 2F1(1, b; c; u), c = n - m d.  Direct numerical
application of the operator is kept as an independent cross-check.

The images produce sums of the family

    T(x) = sum_k u_k 2F1(-(k+beta), d; 1-(k+beta); x),

whose inner functions telescope:  2F1(-g, d; 1-g; x)
= sum_j (d)_j x^j/j! * g/(g-j).  Swapping the sums turns T into
sum_j c_j(x) E_j with x-independent tables E_j = sum_k u_k g_k/(g_k-j),
computed once per (d, weight family) by FFT convolution.  Beyond the
table the E_j follow a fitted inverse-power law.  As d -> 0, beta =
n - (m+1)d nears an integer and one kernel entry grows like 1/d; it is
applied exactly, outside the FFT, so the tables keep their digits down
to d ~ 1e-16, and a beta that rounds to an integer raises PoleError.

Every series the route needs, sum_j (b)_j/(c)_j x^j E_j, is summed by
the series engine specfun._series_dot.  Every 2F1 in the closed forms has
a = 1, so 2F1(1, b; c; x) is the same sum over the unit table E_j = 1
(with no special case where c - b - 1 is an integer), and each evaluation
stays accurate uniformly in x, including exponentially close to the
endpoints where quadrature nodes land.

The G functions, the series engine and the operator's integrands work
on whole arrays of quadrature nodes, each with its exact distance to 1,
so one tanh-sinh level is one call.  A scalar abscissa is the one-node
case and gets a float back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .quadrature import tanh_sinh
from .specfun import _J_TABLE, _UNIT, _ETable, _decay_rate, _like, _series_dot
from .specfun import (HypParams, ParameterDomainError, PoleError, gamma, gamma_ratio,
                      gauss_2f1_at_1, pfq, pfq_at_1)
from .specfun import hyp_2f1  # noqa: F401  unused here: perfbench's trace wraps this name

_K_WEIGHTS = 1 << 16   # weight range entering the E tables


def _check_interior(x: float) -> None:
    if not (0.0 < x < 1.0):
        raise ParameterDomainError(f"x={x} must lie in (0, 1)")


def _position(x, one_minus_x) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and their distances to 1, for abscissae that may have saturated.

    Quadrature nodes exponentially close to 0 or 1 round to the endpoint
    itself; the caller then supplies the exact distance.  The open-interval
    contract is enforced on the effective position.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = 1.0 - x if one_minus_x is None else np.broadcast_to(
        np.asarray(one_minus_x, dtype=float), x.shape)
    bad = (x < 0.0) | (z <= 0.0) | (z > 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterDomainError(f"x={x[i]} (1-x={z[i]}) must lie in (0, 1)")
    return x, z


# ---------------------------------------------------------------------------
# E tables: sum_k u_k * g_k/(g_k - j) for integer j
# ---------------------------------------------------------------------------

def _build_e_table(u: np.ndarray, beta: float, p_decay: float, m1: float) -> _ETable:
    """Table of E_j = sum_k u_k (k+beta)/(k+beta-j) with a fitted large-j law.

    The k-sum is a correlation against 1/(m+beta), done by FFT; the
    truncated k-range is completed by the integral comparison (weights
    decay like k^-p_decay), summed as its series in (j-beta)/K, which
    converges geometrically since K >= 4J.  On j beyond the table,
    E_j = -m1/j + c j^(1-p) + c2/j^2 + ...: the leading 1/j
    coefficient is the exact first moment m1 = sum_k u_k (k+beta); the
    subleading terms (the k ~ j resonance and the incomplete-moment
    corrections) are fitted over the top three octaves of the table.
    The kernel entry at m0 = round(beta) (clamped to the table) is applied
    directly: in the FFT its 1/(beta-m0) would spread rounding of
    eps/|beta-m0| over every E_j.
    """
    K = len(u)
    J = _J_TABLE
    if K < 4 * J:
        raise ValueError(f"{K} weights cannot complete a {J}-entry table")
    if beta == round(beta):
        raise PoleError(f"E table pole: beta={beta!r} is an integer")
    m0 = min(max(round(beta), 0), J - 1)
    k = np.arange(K)
    a = u * (k + beta)
    h = 1.0 / (beta - np.arange(-(K - 1), J, dtype=float))
    h[K - 1 + m0] = 0.0
    # a circular convolution of length >= K + J wraps only onto outputs below K - 1
    m = next_fast_len(K + J, real=True)
    E = irfft(rfft(a, m) * rfft(h, m), m)[K - 1:K - 1 + J].copy()
    E[m0:] += a[:J - m0] / (beta - m0)

    # k >= K completion: sum a_k/(k+beta-j), a_k ~ A k^(1-p), is
    # int_Kh^inf A t^-q/(t-(j-beta)) dt = A Kh^-q sum_n r^n/(q+n), r = (j-beta)/Kh
    r = (np.arange(J) - beta) / (K - 0.5)
    q = p_decay - 1.0
    series = np.zeros(J)
    for n in range(math.ceil(math.log(1e-17) / math.log(J / (K - 0.5))), -1, -1):
        series = 1.0 / (q + n) + r * series
    E += a[-1] * ((K - 1) / (K - 0.5)) ** q * series

    exps = [-2.0, -3.0]
    for cand in (1.0 - p_decay, -p_decay):
        if all(abs(cand - e) > 0.1 for e in exps) and cand > -4.0:
            exps.append(cand)
    lo = J // 8
    jj = np.arange(lo, J, dtype=float)
    design = np.stack([jj**e for e in exps], axis=1)
    coefs, *_ = np.linalg.lstsq(design, E[lo:] + m1 / jj, rcond=None)
    return _ETable(E, (-1.0, *exps), (-m1, *coefs))


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------

def _cum_ratio(first: float, num: tuple[float, ...], den: tuple[float, ...],
               K: int) -> np.ndarray:
    """w_0 = first, w_{k+1} = w_k * prod(num+k)/prod(den+k)."""
    k = np.arange(K - 1, dtype=float)
    r = np.ones(K - 1)
    for a in num:
        r *= a + k
    for b in den:
        r /= b + k
    out = np.empty(K)
    out[0] = first
    np.cumprod(r, out=out[1:])
    out[1:] *= first
    return out


def _moment_table(a: float, b: float, c: float, beta: float, p_decay: float) -> _ETable:
    """E table of the weights (a)_k (b)_k / ((c)_k k! (k+beta)), decaying like
    k^-p_decay (p_decay = c-a-b+2); their first moment is Gauss's 2F1(a, b; c; 1)."""
    K = _K_WEIGHTS
    u = _cum_ratio(1.0, (a, b), (c, 1.0), K) / (beta + np.arange(K))
    return _build_e_table(u, beta, p_decay, gauss_2f1_at_1(a, b, c))


# An image family ((b0, b1), n, m) is that of K[u^(c-1) 2F1(1, b; c; u)],
# b = b0 + b1 d and c = n - m d; kernel_one_minus_power(p)'s 2F1 piece is
# ((-p, p+1), 2, 1), and G_2's is the p = 0 one.
_G2_FAMILY = ((0, 1), 2, 1)


@lru_cache(maxsize=64)
def _family_table(d: float, family) -> _ETable:
    """E table of an image family, or of "i2", that of the image of the _G2_FAMILY sum."""
    if family == "i2":
        # (d)_j / (j! (1-d+j)) * E_j against the beta = 1-d family; the weights
        # run on past the _G2_FAMILY table with its fitted law
        inner = _family_table(d, _G2_FAMILY)
        w = _cum_ratio(1.0, (d,), (1.0,), _K_WEIGHTS) / (1 - d + np.arange(_K_WEIGHTS))
        jj = np.arange(len(inner.E), _K_WEIGHTS, dtype=float)
        law = sum(coef * jj**e for e, coef in zip(inner.tail_exponents, inner.tail_coefs))
        u = w * np.concatenate([inner.E, law])
        m1 = _series_dot(inner, ((d, 1.0),), 1.0, 0.0)
        # dominant decay: j^(d-1)/j/j = 3-d
        return _build_e_table(u, 1.0 - d, 3.0 - d, m1)
    (b0, b1), n, m = family
    # beta and the decay straight from d: as c - d, beta would keep only c's digits of d near 0
    return _moment_table(1.0, b0 + b1 * d, n - m * d, n - (m + 1) * d,
                         n + 1 - b0 - (m + b1) * d)


# ---------------------------------------------------------------------------
# G functions
# ---------------------------------------------------------------------------

def g1(x, d: float, one_minus_x=None):
    """G_1(x) = (1-x)^(-d) / (1-d)^(1/2)."""
    _, z = _position(x, one_minus_x)
    return _like(z ** (-d) / math.sqrt(1.0 - d), x)


def g2(x, d: float, one_minus_x=None):
    """G_2 = K(G_1) = K[(1-u)^(-d)]/sqrt(1-d)."""
    return kernel_one_minus_power(0, d, x, one_minus_x) / math.sqrt(1 - d)


def _pole_ratio(d: float, n: int, m: int) -> float:
    """Gamma(d-c)/Gamma(1-c) at c = n - m d, exact in d.

    Gamma(t-N) = Gamma(1+t)/(t(t-1)...(t-N)) at t = (m+1)d and md; their
    leading factors leave m/(m+1), the d -> 0 limit of a different-rate
    pole pair (-1/4 at (2, 1), -2/9 at (3, 2)).  Any other zero factor is a
    pole.  (m+1)d is formed as n - beta, so near a pole (d = 1/3 at (3, 2))
    it matches the image family's E-table resonance to the bit and cancels.
    """
    s, t = n - (n - (m + 1) * d), m * d
    den = (m + 1) * math.prod(s - i for i in range(1, n + 1))
    if den == 0.0:
        raise PoleError(f"Gamma({s - n}) pole at d={d} is not cancelled by Gamma({t + 1 - n})")
    return gamma(1 + s) / gamma(1 + t) * m * math.prod(t - i for i in range(1, n)) / den


def _image_prefactor(d: float, n: int, m: int) -> float:
    """B(1-d, c) + B(1-d, d-c), c = n - m d: the front prefactor of an image."""
    return gamma(1 - d) * (gamma(n - m * d) / gamma(n + 1 - (m + 1) * d) + _pole_ratio(d, n, m))


def _image(family, d: float, xs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """K[u^(c-1) 2F1(1, b; c; u)] for the image family ((b0, b1), n, m).

    kernel_hyp2f1_moment at a = 1, e = c - 1: the 3F2 collapses to
    x^(c-d) 2F1(1, b; c+1-d; x), the piece of family ((b0, b1), n+1, m+1).
    """
    (b0, b1), n, m = family
    return (
        _image_prefactor(d, n, m) * xs ** (n - (m + 1) * d)
        * _series_dot(_UNIT, ((b0 + b1 * d, n + 1 - (m + 1) * d),), xs, lam)
        + _series_dot(_family_table(d, family), ((d, 1.0),), xs, lam)
    )


def _power_weight(p: int, d: float) -> float:
    """B(1-d, (p+1)(1-d)), the weight of (1-x)^((p+1)-(p+2)d) in kernel_one_minus_power(p)."""
    return gamma(1 - d) * gamma((p + 1) * (1 - d)) / gamma((p + 2) * (1 - d))


def g3(x, d: float, one_minus_x=None):
    """G_3 = K(G_2): the images of G_2's 2F1 piece and of its power of 1-x.

    At d = 0, K is the identity on constants (and the tables' beta are
    integers), so that point is returned exactly.
    """
    xs, z = _position(x, one_minus_x)
    if d == 0.0:
        return _like(np.ones_like(xs), x)
    return _like(
        _image(_G2_FAMILY, d, xs, _decay_rate(xs, z)) / (1 - d) ** 1.5
        + _power_weight(0, d) / math.sqrt(1 - d) * kernel_one_minus_power(1, d, xs, z),
        x,
    )


def g4_closed(x, d: float, one_minus_x=None):
    """G_4 = K(G_3), piece by piece as g3 writes G_3.

    The family sum of G_3's first image has the i2 image, aggregated over
    the _G2_FAMILY table into one more E-table sum.
    """
    xs, z = _position(x, one_minus_x)
    if d == 0.0:
        return _like(np.ones_like(xs), x)
    lam = _decay_rate(xs, z)
    i2 = (
        xs ** (1 - d) / (1 - d) * _series_dot(_family_table(d, _G2_FAMILY), ((d, 2 - d),), xs, lam)
        + _series_dot(_family_table(d, "i2"), ((d, 1.0),), xs, lam)
    )
    first = (_image_prefactor(d, 2, 1) * _image(((0, 1), 3, 2), d, xs, lam) + i2) / (1 - d) ** 1.5
    power = (
        _image(((-1, 2), 2, 1), d, xs, lam) / (1 - d)
        + _power_weight(1, d) * kernel_one_minus_power(2, d, xs, z)
    )
    return _like(first + _power_weight(0, d) / math.sqrt(1 - d) * power, x)


@dataclass(frozen=True)
class GFunction:
    """A member of the operator recursion, evaluated at a node or a node array."""

    order: int
    d: float
    evaluator: Callable

    def __call__(self, x, one_minus_x=None):
        return self.evaluator(x, one_minus_x=one_minus_x)


def g_function(order: int, d: float) -> GFunction:
    """G_k for k in 1..4 (closed forms; order 4 uses the assembled image)."""
    if order == 1:
        return GFunction(1, d, lambda x, one_minus_x=None: g1(x, d, one_minus_x))
    if order == 2:
        return GFunction(2, d, lambda x, one_minus_x=None: g2(x, d, one_minus_x))
    if order == 3:
        return GFunction(3, d, lambda x, one_minus_x=None: g3(x, d, one_minus_x))
    if order == 4:
        return GFunction(4, d, lambda x, one_minus_x=None: g4_closed(x, d, one_minus_x))
    raise ValueError("orders 1..4 are supported")


# ---------------------------------------------------------------------------
# kernel integrals (closed forms)
# ---------------------------------------------------------------------------

def kernel_hyp2f1_moment(a: float, b: float, c: float, e: float, d: float, x: float) -> float:
    """int_0^1 |x-u|^(-d) u^e 2F1(a,b;c;u) du in closed form.

    Requires c > a+b (so the integrand is finite at u=1), 0 < x < 1 and
    0 <= d <= 0.5.  Value:

      B-prefactor * x^(1-d+e) 3F2(a,b,e+1; c,2-d+e; x)
      + sum_m (a)_m (b)_m / ((c)_m m!) / (1-d+e+m)
              * 2F1(d-1-e-m, d; d-e-m; x)

    where the prefactor Gamma(1-d)(Gamma(1+e)/Gamma(2-d+e)
    + Gamma(d-1-e)/Gamma(-e)) equals B(1-d, d-1-e) + B(1-d, 1+e).
    At d = 0 the kernel is 1 and the value is the plain moment
    3F2(a,b,e+1; c,e+2; 1)/(e+1).
    """
    _check_interior(x)
    if c - a - b <= 0:
        raise ParameterDomainError("closed form requires c > a + b")
    if not (0.0 <= d <= 0.5):
        raise ParameterDomainError("requires 0 <= d <= 0.5")
    if d == 0.0:
        return pfq_at_1(HypParams((a, b, e + 1.0), (c, e + 2.0))).value / (e + 1.0)
    pre = gamma(1 - d) * (gamma_ratio(1 + e, 2 - d + e) + gamma_ratio(d - 1 - e, -e))
    front = pre * x ** (1 - d + e) * pfq(HypParams((a, b, e + 1.0), (c, 2 - d + e)), x).value
    table = _moment_table(a, b, c, 1 - d + e, c - a - b + 2.0)
    return front + _series_dot(table, ((d, 1.0),), x, _decay_rate(x, 1.0 - x))


def kernel_one_minus_power(p: int, d: float, x, one_minus_x=None):
    """int_0^1 |x-u|^(-d) (1-u)^(p-(p+1)d) du in closed form, at a node or a node array.

    Gamma(1-d)Gamma((p+1)(1-d))/Gamma((p+2)(1-d)) (1-x)^((p+1)-(p+2)d)
    + x^(1-d)/(1-d) 2F1(1, (p+1)d-p; 2-d; x).
    """
    if p < 0:
        raise ParameterDomainError("p must be a non-negative integer")
    if not (0.0 <= d <= 0.5):
        raise ParameterDomainError("requires 0 <= d <= 0.5")
    xs, z = _position(x, one_minus_x)
    return _like(
        _power_weight(p, d) * z ** ((p + 1) - (p + 2) * d) + xs ** (1 - d) / (1 - d)
        * _series_dot(_UNIT, (((p + 1) * d - p, 2 - d),), xs, _decay_rate(xs, z)),
        x,
    )


# ---------------------------------------------------------------------------
# numerical operator and inner products
# ---------------------------------------------------------------------------

def default_abs_tol(k: int) -> float:
    """The absolute quadrature tolerance c_k_via_operator uses for c_k by default."""
    return 1e-10 if k <= 4 else 1e-8


def apply_kernel(f: Callable, d: float, x: float, *, abs_tol: float = 1e-9) -> float:
    """(K f)(x) = int_0^1 |x-u|^(-d) f(u) du by split double-exponential quadrature.

    The interval is split at the kernel point u = x; on each piece the
    tanh-sinh nodes absorb both the |x-u|^(-d) endpoint singularity and
    any integrable singularity of f at 0 or 1.  f(u, one_minus_x=...) is
    called once per quadrature level with the array of nodes u and their
    exact distances to 1, so endpoint factors stay accurate.
    """
    _check_interior(x)
    z = 1.0 - x

    def left_piece(u, dl, dr):
        return f(u, one_minus_x=z + dr) * dr ** (-d)

    def right_piece(u, dl, dr):
        return f(u, one_minus_x=dr) * dl ** (-d)

    v1, _ = tanh_sinh(left_piece, 0.0, x, abs_tol=abs_tol / 2)
    v2, _ = tanh_sinh(right_piece, x, 1.0, abs_tol=abs_tol / 2)
    return v1 + v2


def c_k_via_operator(mu: int, nu: int, d: float, *, abs_tol: float | None = None) -> float:
    """c_k = int_0^1 G_mu(x) G_nu(x) dx with mu + nu = k in {2,...,5}.

    The order-4 factor is the closed-form assembly g4_closed.  The
    tolerance defaults to default_abs_tol(k).
    """
    k = mu + nu
    if k not in (2, 3, 4, 5) or min(mu, nu) < 1 or max(mu, nu) > 4:
        raise ValueError("need mu, nu in 1..4 with mu+nu in 2..5")
    if not (0.0 <= d < 0.5):
        raise ParameterDomainError("operator route requires 0 <= d < 0.5")
    if abs_tol is None:
        abs_tol = default_abs_tol(k)

    gm = g_function(mu, d)
    gn = gm if nu == mu else g_function(nu, d)

    def integrand(u, dl, dr):
        return gm(u, one_minus_x=dr) * gn(u, one_minus_x=dr)

    value, _ = tanh_sinh(integrand, 0.0, 1.0, abs_tol=abs_tol)
    return value
