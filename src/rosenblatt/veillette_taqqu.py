"""Operator-recursion route to the cumulant factors.

The kernel operator (K f)(x) = int_0^1 |x-u|^(-d) f(u) du generates a
sequence of functions starting from G_1(x) = (1-x)^(-d)/sqrt(1-d), and
the cumulant factor c_k equals int_0^1 G_mu G_nu dx for any mu+nu = k.
Each G is a list of pieces (weight, kind, key): a "power" p,
(1-x)^(p-(p+1)d); a "2f1" piece x^(c-1) 2F1(1, b; c; x), c = n - m d; or
a "sum" (family, q, e), x^e sum_j (d)_j/(q)_j x^j E_j over a family's table
(below).  One step, _image, applies K to a list piece by piece through two
kernel images, kernel_one_minus_power and kernel_hyp2f1_moment at a = 1,
and makes G_2, G_3 and G_4 from G_1's list.  Direct numerical application
of the operator is kept as an independent cross-check.

The images produce sums of the family

    T(x) = sum_k u_k 2F1(-(k+beta), d; 1-(k+beta); x),

whose inner functions telescope:  2F1(-g, d; 1-g; x)
= sum_j (d)_j x^j/j! * g/(g-j).  Swapping the sums turns T into
sum_j c_j(x) E_j with x-independent tables E_j = sum_k u_k g_k/(g_k-j).
Each entry is a 3F2 at unit argument whose parameters shift by one with
j, so contiguous relations (DLMF 16.4) link neighbours: a table is a few
directly summed entries and a first-order recurrence in j, built once per
(d, weight family), J = 2048 entries long.  Beyond the table the E_j
follow the exact large-j law of the same recurrence: its formal solution
in powers of 1/j (DLMF 5.11 for the Gamma ratios) plus the homogeneous
solution with its amplitude in closed form, kept as a few power families
that the series engine sums with at most one exponential each.  As
d -> 0, beta = n - (m+1)d nears an integer and the entries from
j = round(beta) on carry a term that grows like 1/d; the recurrence
forms its small differences from beta - round(beta), which is exact, so
the tables keep their digits down to d ~ 1e-16, and a beta that rounds
to an integer raises PoleError.  The tables of one d that are needed
together are built as one batch (_build_tables): G_4's weighted table
takes the start sums of its three parts in one series-engine call at unit
argument, their laws, which share one gap offset, in one pass and their
recurrences in one scan.  A lone table is the batch of one.

Every series the route needs, sum_j (b)_j/(c)_j x^j E_j, is summed by
the series engine specfun._series_dot.  Every 2F1 in the closed forms has
a = 1, so 2F1(1, b; c; x) is the same sum over the unit table E_j = 1
(with no special case where c - b - 1 is an integer), and each evaluation
stays accurate uniformly in x, including exponentially close to the
endpoints where quadrature nodes land.  A G's list is summed in one engine
call, each set on its own table: its 2F1 pieces on the unit table and its
sums that share (q, e) on their weighted table.

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
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import tanh_sinh
from .specfun import _J_TABLE, _UNIT, _ETable, _decay_rate, _pfq_below_1, _series_dot
from .specfun import (HypParams, ParameterDomainError, PoleError, _GammaProduct, gamma,
                      gamma_ratio, gauss_2f1_at_1, pfq_at_1)
from .specfun import hyp_2f1  # noqa: F401  unused here: perfbench's trace wraps this name


def _check_interior(x: float) -> None:
    if not (0.0 < x < 1.0):
        raise ParameterDomainError(f"x={x} must lie in (0, 1)")


def _like(values: np.ndarray, x):
    """A float for a scalar abscissa, the node array otherwise."""
    return float(values[0]) if np.ndim(x) == 0 else values


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

def _affine_scan(r: np.ndarray, q: np.ndarray, x0: np.ndarray | float) -> np.ndarray:
    """x_1..x_n of x_{i+1} = r_i x_i + q_i from x_0, by a log2(n)-step prefix scan of the maps.

    The maps run down the first axis; each column of a stack is its own
    chain, from its own x_0, and a column padded at the bottom scans as it
    would unpadded, as position i composes only with positions above it.
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


def _build_e_table(beta: float, start: np.ndarray, step: Callable) -> tuple:
    """The first entries of a table of E_j = sum_k t_k/(k+beta-j), j < J, and the affine maps
    E_(j+1) = r_j E_j + q_j that carry it on to J.

    start holds (beta-j) E_j = sum_k t_k (g)_k/(g+1)_k, g = beta-j, for j < n:
    sums the series engine takes with the extra pair (g, g+1).  The rest
    of the table follows from the first-order recurrence
    (j+1-beta) E_{j+1} = rho_j E_j + f_j, whose rho and f step(gap) returns
    for j = n-1 .. J-2.  gap(x) is j+x-beta, formed as ((j-m0)+x) - (beta-m0)
    with m0 = round(beta): beta - m0 is exact, so every difference that
    vanishes as beta nears an integer keeps its digits and shares the
    resonance's rounding with the callers' prefactors.  An integer beta is
    a pole of the table.  _build_tables composes the maps of a whole batch.
    """
    if beta == round(beta):
        raise PoleError(f"E table pole: beta={beta!r} is an integer")
    m0 = round(beta)
    off = beta - m0
    n = len(start)
    jm = np.arange(n - 1 - m0, _J_TABLE - 1 - m0, dtype=float)
    rho, f = step(lambda x: (jm + x) - off)
    den = (jm + 1.0) - off
    return start / (beta - np.arange(n)), rho / den, f / den


class _Part(NamedTuple):
    """One table of a batch (_build_tables).

    sets are the series-engine sets of its start sums at unit argument, each
    (table, pairs): the first n give (beta-j) E_j, j < n, and step(gap, sums)
    gives the recurrence's rho and f (_build_e_table) from all of them.  Its
    large-j law is law_rows(deltas), the coefficient rows of its families at
    offsets deltas from a coincidence of two exponents, taken at offset
    (_across); families holds each row's (e0, delta).
    """

    beta: float
    sets: list
    n: int
    step: Callable
    offset: float
    law_rows: Callable
    families: tuple


def _build_tables(parts: list) -> list:
    """The E tables of parts (_Part), built as one batch.

    Every start sum is one series-engine call at unit argument, the unit
    table's sets first (one engine block) and each set padded with (1, 1)
    pairs, which the engine multiplies by exactly 1.  Each part's entries
    and recurrence maps come from _build_e_table, which also stops a pole
    before any law is formed (an integer beta makes the homogeneous
    amplitude infinite).  The laws that share an offset are one _across
    pass, and all the maps one _affine_scan, a column per part, padded at
    the bottom with identity maps.

    A law gives the families of E_j beyond the table (_ETable): the formal
    solution of the table's recurrence in powers of 1/j, read off it
    coefficient by coefficient, plus its homogeneous solution with a
    closed-form amplitude; nothing is fitted to the entries.  Every table
    is, to the bit, what it is built alone.
    """
    sets = [s for part in parts for s in part.sets]
    order = sorted(range(len(sets)), key=lambda i: sets[i][0] is not _UNIT)
    width = max(len(pairs) for _, pairs in sets)
    values = np.empty(len(sets))
    values[order] = _series_dot(
        [sets[i][0] for i in order],
        np.array([[*sets[i][1], *[(1.0, 1.0)] * (width - len(sets[i][1]))] for i in order]),
        np.zeros(1))[:, 0]
    sums = np.split(values, np.cumsum([len(part.sets) for part in parts])[:-1])
    built = [_build_e_table(part.beta, s[:part.n], lambda gap: part.step(gap, s))
             for part, s in zip(parts, sums)]
    laws = [None] * len(parts)
    for offset in dict.fromkeys(part.offset for part in parts):
        members = [i for i, part in enumerate(parts) if part.offset == offset]
        rows = _across(lambda deltas: np.concatenate([parts[i].law_rows(deltas) for i in members],
                                                     axis=1), offset)
        cuts = np.cumsum([len(parts[i].families) for i in members])[:-1]
        for i, coefs in zip(members, np.split(rows, cuts)):
            laws[i] = tuple((*family, c) for family, c in zip(parts[i].families, coefs))
    length = max(len(r) for _, r, _ in built)
    r, q = np.ones((length, len(parts))), np.zeros((length, len(parts)))
    for i, (_, ri, qi) in enumerate(built):
        r[:len(ri), i], q[:len(qi), i] = ri, qi
    scanned = _affine_scan(r, q, np.array([head[-1] for head, _, _ in built]))
    return [_ETable(np.concatenate([head, scanned[:len(ri), i]]), law)
            for i, ((head, ri, _), law) in enumerate(zip(built, laws))]


# ---------------------------------------------------------------------------
# large-j laws: formal solutions of a table's recurrence in powers of 1/t
# ---------------------------------------------------------------------------

_LAW_TERMS = 8  # powers of 1/t per family; the first left out is below 1e-20 of the law at t = J
_NEAR = 0.1     # a pair of exponents closer than this is interpolated across their coincidence
_CHEB = np.cos((np.arange(16) + 0.5) * math.pi / 16)  # Chebyshev points, and barycentric weights
_BARY = (-1.0) ** np.arange(16) * np.sin((np.arange(16) + 0.5) * math.pi / 16)
_L = np.arange(_LAW_TERMS, dtype=float)
_I_PLUS_L = _L[:, None] + _L
_TRI_ROW, _TRI_COL = np.tril_indices(_LAW_TERMS, -1)
_TRI_K = _TRI_ROW - _TRI_COL + 1


def _series_solution(U, V, s, shift, first, rhs=None) -> np.ndarray:
    """c_n of E(t) = t^s sum_n c_n t^-n, n < _LAW_TERMS, a formal solution of
    U(t) E(t+1) - V(t) E(t) = t^(s+deg-1) sum_n rhs_n t^-n from c_0 = first.

    U and V are monic of degree deg, given by (U_1 .. U_deg) and (V_1 .. V_deg)
    in falling powers, so the homogeneous solution's exponent is V_1 - U_1.
    Matching powers of t gives c_n (shift - n) = rhs_n - sum_{i<n} c_i mu(n-i+1, s-i),
    mu(k, s') = sum_q U_q binom(s', k-q) - V_k: a triangular solve whose
    diagonal shift - n, shift = s - (V_1 - U_1), the caller forms exactly.
    A particular solution starts from first = rhs_0/shift, the homogeneous
    one (rhs None or 0, shift 0) from 1.  Every argument may carry a leading
    axis of parameter nodes, so both are one call, stacked on it.
    """
    K = _LAW_TERMS
    s = s + np.zeros(np.broadcast(s, shift, *U, *V).shape)  # every row's own s
    # binom(s - i, l) for i < K, l <= K, by a running product along l
    binom = np.ones((*s.shape, K, K + 1))
    np.cumprod((s[..., None, None] - _I_PLUS_L) / (_L + 1.0), axis=-1, out=binom[..., 1:])
    mu = binom.copy()
    for q, u in enumerate(U, 1):
        mu[..., q:] += np.asarray(u)[..., None, None] * binom[..., :-q]
    for k, v in enumerate(V, 1):
        mu[..., k] -= np.asarray(v)[..., None]
    below = mu[..., _TRI_COL, _TRI_K]  # mu(n-i+1, s-i), i < n, row by row
    diagonal = np.asarray(shift)[..., None] - _L
    c = np.zeros((*s.shape, K))
    c[..., 0] = first
    for n in range(1, K):
        acc = -(below[..., n * (n - 1) // 2:n * (n + 1) // 2] * c[..., :n]).sum(axis=-1)
        c[..., n] = (acc if rhs is None else rhs[..., n] + acc) / diagonal[..., n]
    return c


def _cot_pi(x):
    return 1.0 / np.tan(math.pi * np.asarray(x, dtype=float))


def _across(rows: Callable, delta: float) -> np.ndarray:
    """rows(deltas) at deltas = delta, interpolated across delta = 0.

    rows(deltas) gives a law's coefficient rows at parameters whose offset
    from a coincidence of two exponents is each of deltas.  Across
    delta = 0 the rows are analytic while the two halves of a coefficient
    grow like 1/delta and cancel, losing eps/delta.  So where
    |delta| < _NEAR the rows are interpolated (barycentric form) from 16
    Chebyshev nodes in [-_NEAR, _NEAR], where at most 100 eps is lost;
    their nearest other singularity is 0.5 away or more, so the
    interpolation error is below rounding.
    """
    if abs(delta) >= _NEAR:
        return rows(np.array([delta]))[0]
    w = _BARY / (delta - _NEAR * _CHEB)
    return np.tensordot(w / w.sum(), rows(_NEAR * _CHEB), axes=1)


def _pair_rows(U, V, m: int, deltas: np.ndarray, rhs: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Per node, the rows of the families (-1, None) and (-m, delta) of
    P + amp H: P the formal particular solution, from t^-1, for rhs; H the
    homogeneous one, t^(-m-delta) h~ = t^-m (1 - delta phi) h~, whose first
    part joins P's t^-m power, the two halves that cancel across delta = 0.
    Powers of that first part past P's last, t^-_LAW_TERMS, are left out
    like P's own.  P and H are one solve, stacked on the node axis."""
    N = len(deltas)

    def both(p, h):
        out = np.empty(2 * N)
        out[:N], out[N:] = p, h
        return out

    shift = (m - 1) + deltas
    law, h = np.split(_series_solution(
        tuple(both(u, u) for u in U), tuple(both(v, v) for v in V), both(-1.0, -(m + deltas)),
        both(shift, 0.0), both(rhs[:, 0] / shift, 1.0), np.concatenate([rhs, np.zeros_like(rhs)])), 2)
    law[:, m - 1:] += amp[:, None] * h[:, :max(0, _LAW_TERMS - m + 1)]
    return np.stack([law, -(deltas * amp)[:, None] * h], axis=1)


def _moment_law(a: float, b: float, c: float, beta: float, gap: float) -> tuple:
    """Large-j law of sum_k t_k/(k+beta-j), t_k = (a)_k (b)_k/((c)_k k!), gap = c-a-b+1,
    as a _Part's (offset, law_rows, families).

    With x = j - beta the table solves (x+1)(x+c) E(x+1) - (x+a)(x+b) E(x)
    = -(c-a-b) S, S = 2F1(a, b; c; 1).  The exact E is its formal
    particular solution, -S/t + ..., plus C h for the homogeneous
    h = Gamma(x+a)Gamma(x+b)/(Gamma(x+c)Gamma(x+1)) ~ t^-gap, with
    C = pi A (cot pi gap + cot pi beta), A = Gamma(c)/(Gamma(a)Gamma(b)),
    from the resonance k ~ j of the sum; both are solved in t = j.  The
    two meet where gap nears an integer m and are taken across that
    coincidence along c, beta held (_across).  The caller forms gap
    exactly: for the b0 = 0 image families it is beta itself, whose
    resonance then sits in cot pi beta, formed from beta - m0.
    """
    m = round(gap)
    off = beta - round(beta)
    V = ((a - beta) + (b - beta), (a - beta) * (b - beta))

    def rows(deltas):
        cs = c + (deltas - (gap - m))
        S = np.array([_GammaProduct((ci, (m - 1) + x), (ci - a, ci - b)).value()
                      for ci, x in zip(cs.tolist(), deltas.tolist())])
        A = np.array([_GammaProduct((ci,), (a, b)).value() for ci in cs.tolist()])
        rhs = np.zeros((len(cs), _LAW_TERMS))
        rhs[:, 0] = -((m - 1) + deltas) * S
        U = ((1.0 - beta) + (cs - beta), (1.0 - beta) * (cs - beta))
        return _pair_rows(U, V, m, deltas, rhs, math.pi * A * (_cot_pi(deltas) + _cot_pi(off)))

    return gap - m, rows, ((-1.0, None), (-float(m), gap - m))


def _i2_law(d: float) -> tuple:
    """Large-j law of the i2 table, from (j+d) E_{j+1} - (j+4d-3) E_j = (1-d) D_j,
    as a _Part's (offset, law_rows, families).

    D_j = (phi(j) - phi(2d-1))/(2-3d-j) with phi(t) = -2 cos(pi d) Gamma(1-d)
    Gamma(t+2d-1)/Gamma(t+d) ~ t^(d-1) (its product form at the integers,
    continued by reflection), so the particular solution has two families:
    powers of t from the constant phi(2d-1), and t^(d-1) times powers from
    phi(t).  The homogeneous solution H = Gamma(t+4d-3)/Gamma(t+d) has the
    amplitude -pi (cot 3 pi d + cot pi d) C'/Gamma(d), C' the _G2_FAMILY
    law's C, as H(j) is (d)_x/x! times that family's h at x = j - 1 + d
    (checked against 30-digit runs of the recurrence to 2e-13 at d = 0.1,
    0.2, 0.3, 0.45).  H meets the t^-2 power at d = 1/3 and, with the
    t^(d-3) power, the t^-3 one at d = 0, where the table is finite (the
    weights (d)_k/k! cancel both resonances): all three families are
    taken across these coincidences along d.
    """
    gap = 3.0 - 3.0 * d
    m = round(gap)

    def rows(deltas):
        ds = d + (gap - m - deltas) / 3.0
        # Gamma(1-d), Gamma(2-2d) and Gamma(2-d)/Gamma(d)^2 per node
        g1, g22, g2 = np.array([(gamma(1 - x), gamma(2 - 2 * x),
                                 gamma(2 - x) * (x / gamma(1 + x)) ** 2) for x in ds.tolist()]).T
        cos = np.cos(math.pi * ds)
        beta = 2.0 - 2.0 * ds  # the _G2_FAMILY table's, to the bit
        amp = 2 * math.pi**2 * (_cot_pi(deltas) - _cot_pi(ds)) * g2 * _cot_pi(beta - np.round(beta))
        # 1/(t - kap) times a series in 1/t: the running sums g_k = f_k + kap g_(k-1)
        const = np.zeros((len(ds), _LAW_TERMS))
        const[:, 0] = (1 - ds) * -g1 ** 2 / (2 * cos * g22)
        varying = ((ds - 1) * -2 * cos * g1)[:, None] * _series_solution(
            (ds,), (2 * ds - 1,), ds - 1, 0.0, 1.0)
        kap = 2 - 3 * ds
        for k in range(1, _LAW_TERMS):
            const[:, k] += kap * const[:, k - 1]
            varying[:, k] += kap * varying[:, k - 1]
        pair = _pair_rows((ds,), (4 * ds - 3,), m, deltas, const, amp)
        from_phi = _series_solution((ds,), (4 * ds - 3,), ds - 2, 1 - 2 * ds,
                                    varying[:, 0] / (1 - 2 * ds), varying)
        return np.concatenate([pair, from_phi[:, None]], axis=1)

    return gap - m, rows, ((-1.0, None), (-float(m), gap - m), (d - 2, None))


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------

def _moment_part(a: float, b: float, c: float, beta: float, gap: float) -> _Part:
    """The batch part of the E table of t_k = (a)_k (b)_k / ((c)_k k!), with gap = c-a-b+1
    as _moment_law takes it.

    Summation by parts on t_{k+1} (c+k)(1+k) = t_k (a+k)(b+k) gives
    (j+1-beta) E_{j+1} = [(j+a-beta)(j+b-beta) E_j - (c-a-b) S]/(j+c-beta)
    with S = sum_k t_k = 2F1(a, b; c; 1) (Gauss), the first moment.  The
    entries up to the first step whose j+c-beta reaches 1 are summed
    directly, (beta-j) E_j = 3F2(a, b, beta-j; c, beta-j+1; 1), as sets on
    the unit table.
    """
    s = gauss_2f1_at_1(a, b, c)
    shifts = beta - np.arange(max(1, math.ceil(2.0 - (c - beta))))

    def step(gap, sums):
        den = gap(c)
        return gap(a) * gap(b) / den, -(c - a - b) * s / den

    return _Part(beta, [(_UNIT, ((a, 1.0), (b, c), (g, g + 1.0))) for g in shifts.tolist()],
                 len(shifts), step, *_moment_law(a, b, c, beta, gap))


def _moment_table(a: float, b: float, c: float, beta: float, gap: float) -> _ETable:
    """The E table of _moment_part alone: a batch of one (kernel_hyp2f1_moment's)."""
    return _build_tables([_moment_part(a, b, c, beta, gap)])[0]


# An image family ((b0, b1), n, m) is that of K[u^(c-1) 2F1(1, b; c; u)],
# b = b0 + b1 d and c = n - m d; kernel_one_minus_power(p)'s 2F1 piece is of
# family ((-p, p+1), 2, 1), and G_2's is the p = 0 one.
_G2_FAMILY = ((0, 1), 2, 1)


def _i2_part(d: float) -> _Part:
    """The batch part of the i2 table, the image of the _G2_FAMILY sum at (d, 1).

    i2 is E_j = sum_k (d)_k/k! E'_k/(k+1-d-j) over the _G2_FAMILY table E'.
    E' obeys its own recurrence in k, (k+d) E'_(k+1) = (k+3d-2) E'_k
    - (1-d)/(k+2d-1), and summing it against (d)_k/k! by parts gives
    (j+d) E_{j+1} = (j+4d-3) E_j + (1-d) D_j.  D_j is the divided difference
    (phi_j - phi(2d-1))/(2-3d-j) of phi(s) = sum_k (d)_k/k!/(k+s)
    = Gamma(s) Gamma(1-d)/Gamma(1-d+s) at phi_j = phi(1-d-j), so
    phi_j = phi_0 prod_{i<j} (i+2d-1)/(i+d) and phi(2d-1) = -phi_0/(2 cos pi d);
    D_1, 0/0 at d = 1/3, is its convergent series
    -sum_k (d)_k/k!/((k-d)(k+2d-1)).  Its start sums are E_0 on the cached
    E' and D_1's series on the unit table.
    """
    beta = 1.0 - d
    phi0 = gamma(1 - d) ** 2 / gamma(2 - 2 * d)
    i = np.arange(_J_TABLE - 2, dtype=float)
    phi = phi0 * np.concatenate([[1.0], np.cumprod(((i - 1) + 2 * d) / (i + d))])

    def step(gap, sums):
        span = gap(2 * d - 1)  # j-2+3d
        span[1] = 1.0  # j = 1 takes D_1's series instead
        dq = (-phi0 / (2 * math.cos(math.pi * d)) - phi) / span
        dq[1] = sums[1] / (d * (2 * d - 1))
        return gap(3 * d - 2), (1 - d) * dq

    return _Part(beta, [(_family_table(d, _G2_FAMILY), ((d, 1.0), (beta, beta + 1.0))),
                        (_UNIT, ((d, 1.0), (-d, 1 - d), (2 * d - 1, 2 * d)))],
                 1, step, *_i2_law(d))


def _part(d: float, family) -> _Part:
    """The batch part of an image family's table, or of "i2"'s."""
    if family == "i2":
        return _i2_part(d)
    (b0, b1), n, m = family
    # beta and the gap straight from d: as c - d, beta would keep only c's digits of d near 0,
    # and for b0 = 0 the gap is then beta itself, to the bit
    return _moment_part(1.0, b0 + b1 * d, n - m * d, n - (m + 1) * d, (n - b0) - (m + b1) * d)


@lru_cache(maxsize=64)
def _family_table(d: float, family) -> _ETable:
    """E table of an image family, of "i2" (_i2_part), or of (weight, family) parts: their
    weighted sum of tables and laws, the parts built as one batch and not cached."""
    if isinstance(family[0][0], float):  # (weight, family) parts
        parts = list(zip([w for w, _ in family], _build_tables([_part(d, f) for _, f in family])))
        law = {}
        for w, t in parts:
            for e0, delta, coefs in t.law:
                law[e0, delta] = law.get((e0, delta), 0.0) + w * coefs
        return _ETable(sum(w * t.E for w, t in parts), tuple((*k, v) for k, v in law.items()))
    return _build_tables([_part(d, family)])[0]


# ---------------------------------------------------------------------------
# G functions
# ---------------------------------------------------------------------------

def g1(x, d: float, one_minus_x=None):
    """G_1(x) = (1-x)^(-d) / (1-d)^(1/2)."""
    _, z = _position(x, one_minus_x)
    return _like(z ** (-d) / math.sqrt(1.0 - d), x)


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


def _image(pieces: list, d: float) -> list:
    """The piece list of K applied to a piece list, piece by piece.

    A power's image is kernel_one_minus_power's, a 2F1 piece's its front
    piece and its family's sum at (d, 1).  The _G2_FAMILY sum at (d, 1), the
    one sum G_3 holds, has i2 for image: the _G2_FAMILY sum at (d, 2-d)
    times x^(1-d)/(1-d), and the "i2" table's sum at (d, 1).
    """
    out = []
    for w, kind, key in pieces:
        if kind == "power":
            weight = gamma(1 - d) * gamma((key + 1) * (1 - d)) / gamma((key + 2) * (1 - d))
            out += [(w * weight, "power", key + 1),
                    (w / (1 - d), "2f1", ((-key, key + 1), 2, 1))]
        elif kind == "2f1":
            b, n, m = key
            out += [(w * _image_prefactor(d, n, m), "2f1", (b, n + 1, m + 1)),
                    (w, "sum", (key, 1.0, 0.0))]
        elif key == (_G2_FAMILY, 1.0, 0.0):
            out += [(w / (1 - d), "sum", (_G2_FAMILY, 2 - d, 1 - d)), (w, "sum", ("i2", 1.0, 0.0))]
        else:
            raise NotImplementedError(f"no closed image of the family sum {key}")
    return out


def _g_pieces(order: int, d: float) -> list:
    """G_order's piece list: K applied order-1 times to G_1 = (1-x)^(-d)/sqrt(1-d).
    At d = 0, K maps G_1 = 1 to its integral 1, so every G is the power piece 1."""
    pieces = [(1 / math.sqrt(1 - d), "power", 0)]
    for _ in range(order - 1 if d else 0):
        pieces = _image(pieces, d)
    return pieces


def _evaluate(pieces: list, d: float, x, one_minus_x=None):
    """A piece list at a node or a node array, its series in one engine call.

    The call has a row per 2F1 piece, (b, c) on the unit table, and a row
    per (q, e) of its family sums, (d, q) on a family table: a lone sum's
    own table, or the weighted table of several.  Each row's value is then
    scaled by its weight and its power of x: x^(c-1) or x^e.
    """
    xs, z = _position(x, one_minus_x)
    lam = _decay_rate(xs, z)
    total = sum(w * z ** (p - (p + 1) * d) for w, kind, p in pieces if kind == "power")
    units, sums = [], {}
    for w, kind, key in pieces:
        if kind == "2f1":
            (b0, b1), n, m = key
            units.append((w * xs ** ((n - 1) - m * d), _UNIT, (b0 + b1 * d, n - m * d)))
        elif kind == "sum":
            sums.setdefault(key[1:], []).append((w, key[0]))
    rows = list(units)
    for (q, e), parts in sums.items():
        w, family = parts[0] if len(parts) == 1 else (1.0, tuple(parts))
        rows.append((w * xs ** e, _family_table(d, family), (d, q)))
    if not rows:
        return _like(total, x)
    values = _series_dot([table for _, table, _ in rows],
                         np.array([[pair] for _, _, pair in rows]), lam)
    # the 2F1 pieces summed among themselves, then each family row: one fixed rounding order
    total = total + sum(scale * v for (scale, _, _), v in zip(units, values))
    for (scale, _, _), v in zip(rows[len(units):], values[len(units):]):
        total = total + scale * v
    return _like(total, x)


def g2(x, d: float, one_minus_x=None):
    """G_2 = K(G_1): a power of 1-x and the _G2_FAMILY 2F1 piece."""
    return _evaluate(_g_pieces(2, d), d, x, one_minus_x)


def g3(x, d: float, one_minus_x=None):
    """G_3 = K(G_2): a power, two 2F1 pieces and the _G2_FAMILY sum, one engine call."""
    return _evaluate(_g_pieces(3, d), d, x, one_minus_x)


def g4_closed(x, d: float, one_minus_x=None):
    """G_4 = K(G_3): a power, three 2F1 pieces and four sums on two tables, one engine call."""
    return _evaluate(_g_pieces(4, d), d, x, one_minus_x)


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
    sum and as accurate as hyp_2f1 there, and the family sum past the
    table is its exact large-j law, including where c - a - b is at or
    near an integer.
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
    table = _moment_table(a, b, c, 1 - d + e, c - a - b + 1.0)
    return front + _series_dot([table], np.array([[(d, 1.0)]]),
                               np.atleast_1d(_decay_rate(x, z))).item()


def kernel_one_minus_power(p: int, d: float, x, one_minus_x=None):
    """int_0^1 |x-u|^(-d) (1-u)^(p-(p+1)d) du in closed form, at a node or a node array.

    Gamma(1-d)Gamma((p+1)(1-d))/Gamma((p+2)(1-d)) (1-x)^((p+1)-(p+2)d)
    + x^(1-d)/(1-d) 2F1(1, (p+1)d-p; 2-d; x).
    """
    if p < 0:
        raise ParameterDomainError("p must be a non-negative integer")
    if not (0.0 <= d <= 0.5):
        raise ParameterDomainError("requires 0 <= d <= 0.5")
    return _evaluate(_image([(1.0, "power", p)], d), d, x, one_minus_x)


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
