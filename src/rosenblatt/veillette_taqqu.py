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
sum_j c_j(x) E_j with x-independent tables E_j = sum_k u_k g_k/(g_k-j).
Each entry is a 3F2 at unit argument whose parameters shift by one with
j, so contiguous relations (DLMF 16.4) link neighbours: a table is a few
directly summed entries and a first-order recurrence in j, built once per
(d, weight family).  Beyond the table the E_j follow a fitted
inverse-power law.  As d -> 0, beta = n - (m+1)d nears an integer and the
entries from j = round(beta) on carry a term that grows like 1/d; the
recurrence forms its small differences from beta - round(beta), which is
exact, so the tables keep their digits down to d ~ 1e-16, and a beta
that rounds to an integer raises PoleError.

Every series the route needs, sum_j (b)_j/(c)_j x^j E_j, is summed by
the series engine specfun._series_dot.  Every 2F1 in the closed forms has
a = 1, so 2F1(1, b; c; x) is the same sum over the unit table E_j = 1
(with no special case where c - b - 1 is an integer), and each evaluation
stays accurate uniformly in x, including exponentially close to the
endpoints where quadrature nodes land.  A G sums its 2F1 pieces in one
batch on the unit table, and the linear tables and laws fold G_4's three
family sums at the pair (d, 1) into one "g4" table: G_3 is two engine
calls, G_4 three.

The G functions, the series engine and the operator's integrands work
on whole arrays of quadrature nodes, each with its exact distance to 1.
tanh-sinh hands its first four levels (97 nodes) to one call and each
later level to one more, so on a route row, which stops by level 3, each
G is evaluated once.  A scalar abscissa is the one-node case and gets a
float back.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import tanh_sinh
from .specfun import _J_TABLE, _UNIT, _ETable, _decay_rate, _like, _pfq_below_1, _series_dot
from .specfun import (HypParams, ParameterDomainError, PoleError, gamma, gamma_ratio,
                      gauss_2f1_at_1, pfq_at_1)
from .specfun import hyp_2f1  # noqa: F401  unused here: perfbench's trace wraps this name


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
# E tables: sum_k t_k/(k+beta-j) for integer j
# ---------------------------------------------------------------------------

def _affine_scan(r: np.ndarray, q: np.ndarray, x0: float) -> np.ndarray:
    """x_1..x_n of x_{i+1} = r_i x_i + q_i from x_0, by a log2(n)-step prefix scan of the maps.

    A cumprod/cumsum quotient would divide by the prefix products, which
    vanish once some r_i is exactly 0.
    """
    r, q = r.copy(), q.copy()
    step = 1
    while step < len(r):
        q[step:] += r[step:] * q[:-step]
        r[step:] *= r[:-step]
        step *= 2
    return r * x0 + q


def _build_e_table(beta: float, start: np.ndarray, step: Callable, p_decay: float,
                   m1: float) -> _ETable:
    """Table of E_j = sum_k t_k/(k+beta-j), j < J, with a fitted large-j law.

    start holds (beta-j) E_j = sum_k t_k (g)_k/(g+1)_k, g = beta-j, for j < n:
    sums the series engine takes with the extra pair (g, g+1).  The rest
    of the table follows from the first-order recurrence
    (j+1-beta) E_{j+1} = rho_j E_j + f_j, whose rho and f step(gap) returns
    for j = n-1 .. J-2.  gap(x) is j+x-beta, formed as ((j-m0)+x) - (beta-m0)
    with m0 = round(beta): beta - m0 is exact, so every difference that
    vanishes as beta nears an integer keeps its digits and shares the
    resonance's rounding with the callers' prefactors.  The affine maps are
    composed by a prefix scan.  An integer beta is a pole of the table.

    On j beyond the table, E_j = -m1/j + c j^(1-p) + c2/j^2 + ...: the
    leading 1/j coefficient is the exact first moment m1 = sum_k t_k; the
    subleading terms (the k ~ j resonance and the incomplete-moment
    corrections) are fitted over the top three octaves of the table.
    """
    if beta == round(beta):
        raise PoleError(f"E table pole: beta={beta!r} is an integer")
    J = _J_TABLE
    m0 = round(beta)
    off = beta - m0
    n = len(start)
    jm = np.arange(n - 1 - m0, J - 1 - m0, dtype=float)
    rho, f = step(lambda x: (jm + x) - off)
    den = (jm + 1.0) - off
    E = np.empty(J)
    E[:n] = start / (beta - np.arange(n))
    E[n:] = _affine_scan(rho / den, f / den, E[n - 1])

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

def _moment_table(a: float, b: float, c: float, beta: float, p_decay: float) -> _ETable:
    """E table of t_k = (a)_k (b)_k / ((c)_k k!), decaying like k^-p_decay (p_decay = c-a-b+2).

    Summation by parts on t_{k+1} (c+k)(1+k) = t_k (a+k)(b+k) gives
    (j+1-beta) E_{j+1} = [(j+a-beta)(j+b-beta) E_j - (c-a-b) S]/(j+c-beta)
    with S = sum_k t_k = 2F1(a, b; c; 1) (Gauss), the first moment.  The
    entries up to the first step whose j+c-beta reaches 1 are summed
    directly, (beta-j) E_j = 3F2(a, b, beta-j; c, beta-j+1; 1), in one
    series-engine call on the unit table.
    """
    s = gauss_2f1_at_1(a, b, c)
    shifts = beta - np.arange(max(1, math.ceil(2.0 - (c - beta))))
    sets = np.array([((a, 1.0), (b, c), (g, g + 1.0)) for g in shifts.tolist()])

    def step(gap):
        den = gap(c)
        return gap(a) * gap(b) / den, -(c - a - b) * s / den

    return _build_e_table(beta, _series_dot(_UNIT, sets, 1.0, 0.0), step, p_decay, s)


# An image family ((b0, b1), n, m) is that of K[u^(c-1) 2F1(1, b; c; u)],
# b = b0 + b1 d and c = n - m d, its front piece is of family ((b0, b1), n+1, m+1),
# kernel_one_minus_power(p)'s 2F1 piece is ((-p, p+1), 2, 1), G_2's is the p = 0
# one, and G_3's are the front of G_2's image and kernel_one_minus_power(1)'s.
_G2_FAMILY = ((0, 1), 2, 1)
_G3_PIECES = (((0, 1), 3, 2), ((-1, 2), 2, 1))


def _piece(family, d: float) -> tuple[float, float]:
    """(b, c) of the family's 2F1(1, b; c; x)."""
    (b0, b1), n, m = family
    return b0 + b1 * d, n - m * d


def _unit_sum(d: float, pieces, xs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum of w x^(c-1) 2F1(1, b; c; x), c-1 = (n-1) - m d, over (w, family) pieces: one call."""
    values = _series_dot(_UNIT, np.array([[_piece(f, d)] for _, f in pieces]), xs, lam)
    return sum(w * xs ** ((n - 1) - m * d) * v for (w, (_, n, m)), v in zip(pieces, values))


@lru_cache(maxsize=64)
def _family_table(d: float, family) -> _ETable:
    """E table of an image family, of "i2", that of the image of the _G2_FAMILY sum, or of "g4".

    i2 is E_j = sum_k (d)_k/k! E'_k/(k+1-d-j) over the _G2_FAMILY table E'.
    E' obeys its own recurrence in k, (k+d) E'_(k+1) = (k+3d-2) E'_k
    - (1-d)/(k+2d-1), and summing it against (d)_k/k! by parts gives
    (j+d) E_{j+1} = (j+4d-3) E_j + (1-d) D_j.  D_j is the divided difference
    (phi_j - phi(2d-1))/(2-3d-j) of phi(s) = sum_k (d)_k/k!/(k+s)
    = Gamma(s) Gamma(1-d)/Gamma(1-d+s) at phi_j = phi(1-d-j), so
    phi_j = phi_0 prod_{i<j} (i+2d-1)/(i+d) and phi(2d-1) = -phi_0/(2 cos pi d);
    D_1, 0/0 at d = 1/3, is its convergent series
    -sum_k (d)_k/k!/((k-d)(k+2d-1)).

    "g4" is G_4's family sums at the pair (d, 1) in one table: the _G3_PIECES
    and i2 tables, built uncached and weighted as G_4 weighs them, laws and all.
    """
    if family == "g4":
        r = (1 - d) ** -1.5
        parts = [(w, _family_table.__wrapped__(d, f)) for w, f in zip(
            (_image_prefactor(d, 2, 1) * r, _power_weight(0, d) * r, r), (*_G3_PIECES, "i2"))]
        law = {}
        for w, t in parts:
            for e, coef in zip(t.tail_exponents, t.tail_coefs):
                law[e] = law.get(e, 0.0) + w * coef
        return _ETable(sum(w * t.E for w, t in parts), tuple(law), tuple(law.values()))
    if family == "i2":
        inner = _family_table(d, _G2_FAMILY)
        beta = 1.0 - d
        m1, e0 = _series_dot(inner, np.array([((d, 1.0), (1.0, 1.0)),
                                              ((d, 1.0), (beta, beta + 1.0))]), 1.0, 0.0)
        d1 = _series_dot(_UNIT, ((d, 1.0), (-d, 1 - d), (2 * d - 1, 2 * d)), 1.0, 0.0) / (
            d * (2 * d - 1))
        phi0 = gamma(1 - d) ** 2 / gamma(2 - 2 * d)
        i = np.arange(_J_TABLE - 2, dtype=float)
        phi = phi0 * np.concatenate([[1.0], np.cumprod(((i - 1) + 2 * d) / (i + d))])

        def step(gap):
            span = gap(2 * d - 1)  # j-2+3d
            span[1] = 1.0  # j = 1 takes D_1's series instead
            dq = (-phi0 / (2 * math.cos(math.pi * d)) - phi) / span
            dq[1] = d1
            return gap(3 * d - 2), (1 - d) * dq

        # dominant decay: j^(d-1)/j/j = 3-d
        return _build_e_table(beta, np.array([e0]), step, 3.0 - d, m1)
    (b0, b1), n, m = family
    # beta and the decay straight from d: as c - d, beta would keep only c's digits of d near 0
    return _moment_table(1.0, *_piece(family, d), n - (m + 1) * d, n + 1 - b0 - (m + b1) * d)


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


def _power_weight(p: int, d: float) -> float:
    """B(1-d, (p+1)(1-d)), the weight of (1-x)^((p+1)-(p+2)d) in kernel_one_minus_power(p)."""
    return gamma(1 - d) * gamma((p + 1) * (1 - d)) / gamma((p + 2) * (1 - d))


def _one_minus_power(p: int, d: float, z: np.ndarray):
    """kernel_one_minus_power(p)'s power of 1-x, and the (weight, family) of its 2F1 piece."""
    return _power_weight(p, d) * z ** ((p + 1) - (p + 2) * d), (1 / (1 - d), ((-p, p + 1), 2, 1))


def g3(x, d: float, one_minus_x=None):
    """G_3 = K(G_2): the images of G_2's 2F1 piece and of its power of 1-x.

    A power of 1-x, the _G2_FAMILY sum and the two _G3_PIECES, these in
    one unit-table call.  At d = 0, K is the identity on constants (and
    the tables' beta are integers), so that point is returned exactly.
    """
    xs, z = _position(x, one_minus_x)
    if d == 0.0:
        return _like(np.ones_like(xs), x)
    lam, r, w = _decay_rate(xs, z), (1 - d) ** -1.5, _power_weight(0, d) / math.sqrt(1 - d)
    power, (v, piece) = _one_minus_power(1, d, z)
    unit = _unit_sum(d, [(_image_prefactor(d, 2, 1) * r, _G3_PIECES[0]), (w * v, piece)], xs, lam)
    return _like(unit + w * power
                 + r * _series_dot(_family_table(d, _G2_FAMILY), ((d, 1.0),), xs, lam), x)


def g4_closed(x, d: float, one_minus_x=None):
    """G_4 = K(G_3), piece by piece as g3 writes G_3.

    The _G3_PIECES' images are two front pieces and two family sums, the
    _G2_FAMILY sum's is i2 (a _G2_FAMILY sum at (d, 2-d) and the "i2"
    table's), the power's is kernel_one_minus_power(2): one unit-table call
    for the three pieces, one "g4" call for the sums at (d, 1), three in all.
    """
    xs, z = _position(x, one_minus_x)
    if d == 0.0:
        return _like(np.ones_like(xs), x)
    lam, r, w = _decay_rate(xs, z), (1 - d) ** -1.5, _power_weight(0, d) / math.sqrt(1 - d)
    p21, w1 = _image_prefactor(d, 2, 1), w * _power_weight(1, d)
    power, (v, piece) = _one_minus_power(2, d, z)
    unit = _unit_sum(d, [(p21 * _image_prefactor(d, 3, 2) * r, ((0, 1), 4, 3)),
                         (w * p21 / (1 - d), ((-1, 2), 3, 2)), (w1 * v, piece)], xs, lam)
    i2 = xs ** (1 - d) / (1 - d) * _series_dot(_family_table(d, _G2_FAMILY), ((d, 2 - d),), xs, lam)
    return _like(unit + w1 * power + r * i2
                 + _series_dot(_family_table(d, "g4"), ((d, 1.0),), xs, lam), x)


def g_function(order: int, d: float) -> Callable:
    """G_k, k in 1..4, at d as f(x, one_minus_x=None): f calls g1, g2, g3 or
    g4_closed (the assembled image), looked up in this module at each call."""
    if order not in (1, 2, 3, 4):
        raise ValueError("orders 1..4 are supported")
    name = ("g1", "g2", "g3", "g4_closed")[order - 1]
    return lambda x, one_minus_x=None: globals()[name](x, d, one_minus_x)


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
    3F2(a,b,e+1; c,e+2; 1)/(e+1).  The front 3F2 is summed by hyp_2f1's
    rule (specfun._pfq_below_1), so near x = 1 it is the series engine's
    sum and as accurate as hyp_2f1 there; the family sum's error is the
    E table's fitted law beyond J.
    """
    _check_interior(x)
    if c - a - b <= 0:
        raise ParameterDomainError("closed form requires c > a + b")
    if not (0.0 <= d <= 0.5):
        raise ParameterDomainError("requires 0 <= d <= 0.5")
    if d == 0.0:
        return pfq_at_1(HypParams((a, b, e + 1.0), (c, e + 2.0))).value / (e + 1.0)
    pre = gamma(1 - d) * (gamma_ratio(1 + e, 2 - d + e) + gamma_ratio(d - 1 - e, -e))
    z = 1.0 - x
    front = pre * x ** (1 - d + e) * _pfq_below_1(HypParams((a, b, e + 1.0), (c, 2 - d + e)), x, z)
    table = _moment_table(a, b, c, 1 - d + e, c - a - b + 2.0)
    return front + _series_dot(table, ((d, 1.0),), x, _decay_rate(x, z))


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
    power, piece = _one_minus_power(p, d, z)
    return _like(power + _unit_sum(d, [piece], xs, _decay_rate(xs, z)), x)


# ---------------------------------------------------------------------------
# numerical operator and inner products
# ---------------------------------------------------------------------------

def default_abs_tol(k: int) -> float:
    """The absolute quadrature tolerance c_k_via_operator integrates c_k to."""
    return 1e-10 if k <= 4 else 1e-8


def apply_kernel(f: Callable, d: float, x: float, *, abs_tol: float = 1e-9) -> float:
    """(K f)(x) = int_0^1 |x-u|^(-d) f(u) du by split double-exponential quadrature.

    The interval is split at the kernel point u = x; on each piece the
    tanh-sinh nodes absorb both the |x-u|^(-d) endpoint singularity and
    any integrable singularity of f at 0 or 1.  f(u, one_minus_x=...) is
    called with whole arrays of nodes u (levels 0-3 in one call, then one
    call per level) and their exact distances to 1, so endpoint factors
    stay accurate.
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


def c_k_via_operator(mu: int, nu: int, d: float) -> float:
    """c_k = int_0^1 G_mu(x) G_nu(x) dx with mu + nu = k in {2,...,5}.

    The order-4 factor is the closed-form assembly g4_closed.  tanh-sinh
    integrates to the fixed absolute tolerance default_abs_tol(k).  A
    pairing (mu, mu) evaluates G_mu once per node array and squares it.
    """
    k = mu + nu
    if k not in (2, 3, 4, 5) or min(mu, nu) < 1 or max(mu, nu) > 4:
        raise ValueError("need mu, nu in 1..4 with mu+nu in 2..5")
    if not (0.0 <= d < 0.5):
        raise ParameterDomainError("operator route requires 0 <= d < 0.5")

    gm = g_function(mu, d)
    gn = g_function(nu, d)

    def integrand(u, dl, dr):
        vm = gm(u, one_minus_x=dr)
        return vm * (vm if nu == mu else gn(u, one_minus_x=dr))

    value, _ = tanh_sinh(integrand, 0.0, 1.0, abs_tol=default_abs_tol(k))
    return value
