"""tanh-sinh quadrature: the first sweep over levels 0.._FIRST_SWEEP against a
per-level reference, and the nodes the integrand receives."""

import math

import numpy as np
import pytest

from rosenblatt import quadrature
from rosenblatt import veillette_taqqu as vt
from rosenblatt.quadrature import QuadratureError, tanh_sinh


def per_level_tanh_sinh(f, a, b, abs_tol):
    """One integrand call per level: the rule as written before the first sweep.

    Returns (value, error_estimate, stopping level).
    """
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    total, prev = 0.0, None
    for level in range(quadrature._MAX_LEVEL + 1):
        u, dist, w = quadrature._transform(quadrature._nodes(level))
        near_right = u > 0
        left = np.where(near_right, (b - a) - half * dist, half * dist)
        right = np.where(near_right, half * dist, (b - a) - half * dist)
        contrib = float(np.sum(f(mid + half * u, left, right) * w))
        total = total + contrib if level else contrib
        estimate = total * half * 0.5 ** level
        if prev is not None and abs(estimate - prev) <= abs_tol:
            return estimate, abs(estimate - prev), level
        prev = estimate
    raise QuadratureError(
        f"tanh-sinh did not reach abs_tol={abs_tol:g} within {quadrature._MAX_LEVEL} refinements"
    )


def counted(f):
    """f with a record of the node arrays of each call."""
    calls = []

    def g(x, left, right):
        calls.append(x.copy())
        return f(x, left, right)

    return g, calls


def route_integrand(d):
    return lambda u, dl, dr: vt.g1(u, d, one_minus_x=dr) * vt.g3(u, d, one_minus_x=dr)


# name: (f, a, b, abs_tol, the level the per-level rule stops at)
CASES = {
    "power": (lambda u, dl, dr: dl ** -0.9, 0.0, 1.0, 1e-9, 3),
    "route-g1-g3": (route_integrand(0.45), 0.0, 1.0, vt.default_abs_tol(4), 3),
    "constant": (lambda u, dl, dr: np.ones_like(u), 0.0, 1.0, 0.1, 1),
    "oscillating": (lambda u, dl, dr: np.cos(40 * u), 0.0, 1.0, 1e-12, 5),
    "steep-power": (lambda u, dl, dr: dl ** -0.97, 0.0, 1.0, 1e-9, quadrature._MAX_LEVEL),
}


@pytest.mark.parametrize("name", list(CASES))
def test_equals_the_per_level_rule_bitwise(name):
    f, a, b, tol, stop = CASES[name]
    value, err, level = per_level_tanh_sinh(f, a, b, tol)
    assert level == stop
    g, calls = counted(f)
    got = tanh_sinh(g, a, b, abs_tol=tol)
    assert got == (value, err)
    assert all(type(v) is float for v in got)
    # levels 0.._FIRST_SWEEP are one call, each later level one more
    assert len(calls) == 1 + max(0, level - quadrature._FIRST_SWEEP)


def test_scalar_integrand_is_broadcast():
    value, err, _ = per_level_tanh_sinh(lambda u, dl, dr: 2.5, -1.0, 3.0, 1e-9)
    assert tanh_sinh(lambda u, dl, dr: 2.5, -1.0, 3.0, abs_tol=1e-9) == (value, err)


def test_level_cap_raises_as_the_per_level_rule_does():
    # a jump inside the interval: the trapezoid error falls like h, short of 1e-12
    def step(u, dl, dr):
        return (u < 0.3).astype(float)

    with pytest.raises(QuadratureError) as ref:
        per_level_tanh_sinh(step, 0.0, 1.0, 1e-12)
    g, calls = counted(step)
    with pytest.raises(QuadratureError) as got:
        tanh_sinh(g, 0.0, 1.0, abs_tol=1e-12)
    assert str(got.value) == str(ref.value)
    assert len(calls) == 1 + quadrature._MAX_LEVEL - quadrature._FIRST_SWEEP


def test_first_call_holds_the_first_sweep_nodes_in_level_order():
    g, calls = counted(lambda u, dl, dr: np.ones_like(u))
    tanh_sinh(g, 0.0, 1.0)
    levels = [quadrature._nodes(level) for level in range(quadrature._FIRST_SWEEP + 1)]
    assert [len(ts) for ts in levels] == [13, 12, 24, 48]
    ts = np.concatenate(levels)
    # every multiple of 2^-3 inside the cap, once
    step = 0.5 ** quadrature._FIRST_SWEEP
    top = math.ceil(quadrature._T_CAP / step) - 1
    assert np.array_equal(np.sort(ts) / step, np.arange(-top, top + 1))
    u, _, _ = quadrature._transform(ts)
    assert calls[0].size == 97
    assert np.array_equal(calls[0], 0.5 + 0.5 * u)
