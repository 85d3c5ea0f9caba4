"""Tests for the operator-recursion route.

The independent oracles are numeric: split-interval adaptive quadrature
(scipy) for the closed-form kernel integrals, and the numeric operator
application for the assembled G functions.
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, poch

import rosenblatt
from rosenblatt import cumulants as cu
from rosenblatt import quadrature
from rosenblatt import specfun as sf
from rosenblatt import veillette_taqqu as vt
from reference_values import (E_TABLE_ENTRIES, E_TABLE_RECURRENCE, G3_NEAR_1,
                              KERNEL_HYP2F1_LARGE_GAP, KERNEL_HYP2F1_NEAR_1, LERCH_TAILS, LERCH_Z,
                              ZETA_TAILS)


def split_quad(f, x, tol=1e-12):
    """Two-piece adaptive quadrature of int_0^1 |x-u|^(-d)-type integrands."""
    left = quad(f, 0.0, x, epsabs=tol, epsrel=tol, limit=400)[0]
    right = quad(f, x, 1.0, epsabs=tol, epsrel=tol, limit=400)[0]
    return left + right


class TestGFunctions:
    def test_g1_identity_at_d_zero(self):
        assert vt.g1(0.5, 0.0) == 1.0

    def test_g1_profile(self):
        d = 0.3
        assert vt.g1(0.9, d) == pytest.approx(0.1 ** (-d) / math.sqrt(1 - d), rel=1e-14)

    def test_g2_collapses_at_d_zero(self):
        for x in (0.2, 0.5, 0.8):
            assert vt.g2(x, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_g2_equals_operator_image_of_g1(self):
        d, x = 0.25, 0.3
        g1f = vt.g_function(1, d)
        assert vt.g2(x, d) == pytest.approx(
            vt.apply_kernel(g1f, d, x, abs_tol=1e-10), abs=1e-8
        )

    def test_g3_is_one_at_d_zero(self):
        for x in (0.25, 0.5, 0.75):
            assert vt.g3(x, 0.0) == 1.0

    def test_g3_equals_operator_image_of_g2(self):
        d, x = 0.25, 0.4
        g2f = vt.g_function(2, d)
        assert vt.g3(x, d) == pytest.approx(
            vt.apply_kernel(g2f, d, x, abs_tol=1e-10), abs=1e-7
        )

    def test_g3_prefactor_limit(self):
        # Gamma(2-d)/Gamma(3-2d) + Gamma(2d-2)/Gamma(d-1) -> 1/2 - 1/4 at d=0
        val = sf.gamma(2.0) / sf.gamma(3.0) + vt._pole_ratio(0.0, 2, 1)
        assert val == pytest.approx(0.25, rel=1e-13)

    @pytest.mark.parametrize("d", [0.05, 0.2, 0.3, 0.45])
    def test_pole_ratio_matches_gamma_ratio(self, d):
        assert vt._pole_ratio(d, 2, 1) == pytest.approx(sf.gamma_ratio(2 * d - 2, d - 1), rel=1e-13)
        assert vt._pole_ratio(d, 3, 2) == pytest.approx(sf.gamma_ratio(3 * d - 3, 2 * d - 2),
                                                        rel=1e-13)

    def test_pole_ratio_limits_at_d_zero(self):
        # Gamma((m+1)d-n)/Gamma(md+1-n): a pole pair closing in at different rates
        assert vt._pole_ratio(0.0, 2, 1) == pytest.approx(-1 / 4, rel=1e-15)
        assert vt._pole_ratio(0.0, 3, 2) == pytest.approx(-2 / 9, rel=1e-15)
        assert vt._pole_ratio(1e-300, 3, 2) == pytest.approx(-2 / 9, rel=1e-15)

    def test_pole_ratio_keeps_the_g4_pole(self):
        with pytest.raises(sf.PoleError):
            vt._pole_ratio(1 / 3, 3, 2)

    def test_g4_small_d_continuity(self):
        for x in (0.3, 0.7):
            assert vt.g4_closed(x, 1e-6) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("d", [0.3, 0.45])
    @pytest.mark.parametrize("z", [1e-4, 1e-8, 1e-12])
    def test_g3_near_one_equals_operator_image_of_g2(self, z, d):
        # the sums there run deep into the E table and its large-j law
        x = 1.0 - z
        ref = vt.apply_kernel(vt.g_function(2, d), d, x, abs_tol=1e-13)
        assert vt.g3(x, d, one_minus_x=1.0 - x) == pytest.approx(ref, rel=1e-11)

    def test_g4_equals_operator_image_of_g3(self):
        d, x = 0.25, 0.5
        g3f = vt.g_function(3, d)
        assert vt.g4_closed(x, d) == pytest.approx(
            vt.apply_kernel(g3f, d, x, abs_tol=1e-9), abs=1e-6
        )

    def test_operator_consistency_grid(self):
        # K(G_k) vs closed G_{k+1} for k = 1, 2 on interior points
        xs = np.linspace(0.05, 0.95, 10)
        for d in (0.1, 0.25, 0.4):
            g1f = vt.g_function(1, d)
            g2f = vt.g_function(2, d)
            for x in xs:
                assert vt.apply_kernel(g1f, d, float(x), abs_tol=1e-10) == pytest.approx(
                    vt.g2(float(x), d), abs=1e-6
                )
                assert vt.apply_kernel(g2f, d, float(x), abs_tol=1e-10) == pytest.approx(
                    vt.g3(float(x), d), abs=1e-6
                )

    def test_domain_errors(self):
        with pytest.raises(sf.ParameterDomainError):
            vt.g1(1.0, 0.3)
        with pytest.raises(sf.ParameterDomainError):
            vt.g2(-0.1, 0.3)


def tanh_sinh_nodes(levels=4):
    """tanh-sinh nodes of [0, 1] as abscissae x and exact distances 1 - x.

    x is the exact distance to 0, so it reaches ~1e-280 at the left end,
    and 1 - x does the same at the right end (where x itself is 1.0).
    """
    ts = np.concatenate([quadrature._nodes(level) for level in range(levels)])
    u, dist, _ = quadrature._transform(ts)
    near_right = u > 0
    x = np.where(near_right, 1.0 - 0.5 * dist, 0.5 * dist)
    z = np.where(near_right, 0.5 * dist, 1.0 - 0.5 * dist)
    return x, z


def test_node_levels_nest_into_the_finest_grid():
    # levels 0.._MAX_LEVEL together hold each multiple of the finest step once
    ts = np.concatenate([quadrature._nodes(level) for level in range(quadrature._MAX_LEVEL + 1)])
    step = 0.5 ** quadrature._MAX_LEVEL
    k = np.sort(ts) / step
    assert np.array_equal(k, np.round(k))
    top = math.ceil(quadrature._T_CAP / step) - 1
    assert np.array_equal(k, np.arange(-top, top + 1))
    assert ts.size == 6247


G_NAMES = ("g1", "g2", "g3", "g4_closed")


def first_sweep_nodes():
    """The 97 nodes tanh-sinh hands to the integrand's first call, and their distances to 1."""
    batches = []
    quadrature.tanh_sinh(lambda x, left, right: batches.append((x, right)) or x, 0.0, 1.0)
    return batches[0]


@pytest.mark.parametrize("d", [0.01, 0.1, 0.25, 0.3333, 0.45, 0.48])
@pytest.mark.parametrize("name", ["g2", "g3", "g4_closed"])
def test_first_sweep_batch_equals_per_level_calls(name, d):
    # tanh-sinh hands levels 0..3 to the integrand in one call; the G values
    # must not depend on which other nodes share the array
    x, z = first_sweep_nodes()
    g = getattr(vt, name)
    sizes = [len(quadrature._nodes(level)) for level in range(quadrature._FIRST_SWEEP + 1)]
    edges = np.cumsum([0, *sizes])
    per_level = np.concatenate([g(x[lo:hi], d, one_minus_x=z[lo:hi])
                                for lo, hi in zip(edges[:-1], edges[1:])])
    assert np.array_equal(g(x, d, one_minus_x=z), per_level)


def law_at(law, t):
    """A table's large-j law evaluated at t (a float or an array): each family
    t^e0 phi(ln t) P(1/t), P by Horner in 1/t, summed.  The engine never evaluates
    the law pointwise; these tests do, to check it."""
    ln_t = np.log(t)
    total = 0.0
    for e0, delta, coefs in law:
        poly = coefs[-1]
        for c in coefs[-2::-1]:
            poly = c + poly / t
        if delta is not None:
            poly = poly * (ln_t if delta == 0.0 else -np.expm1(-delta * ln_t) / delta)
        total = total + np.exp(e0 * ln_t) * poly
    return total


def g4_weighted_group(d):
    """The (weight, family) parts of G_4's weighted table: its family sums at (d, 1)."""
    return tuple((w, key[0]) for w, kind, key in vt._g_pieces(4, d)
                 if kind == "sum" and key[1:] == (1.0, 0.0))


def one_set(table, pairs, lam):
    """The series engine's row for one set of pairs on one table at the nodes lam."""
    return vt._series_dot([table], np.array([pairs], dtype=float), np.atleast_1d(lam))[0]


def full_series_dot(table, d, x, lam, s):
    """sum_j (d)_j/(s)_j x^j E_j over every tabulated j, plus the table's large-j law
    summed beyond it by Euler-Maclaurin around an adaptive integral in ln t."""
    J = len(table.E)
    jj = np.arange(J - 1, dtype=float)
    c = np.concatenate([[1.0], np.cumprod((d + jj) * x / (s + jj))])
    main = float(c @ table.E)
    if x == 0.0:
        return main

    def f(t):
        # c_t = Gamma(d+t) Gamma(s) / (Gamma(s+t) Gamma(d)) x^t, free of lgamma cancellation
        law = float(law_at(table.law, t))
        return poch(s + t, d - s) * gamma(s) / gamma(d) * math.exp(-lam * t) * law

    cuts = math.log(J) + np.arange(0.0, 65.0, 4.0)
    integral = sum(quad(lambda u: f(math.exp(u)) * math.exp(u), lo, hi,
                        epsabs=0.0, epsrel=1e-13)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    h = 1e-3 * J
    return main + integral + f(J) / 2 - (f(J + h) - f(J - h)) / (2 * h) / 12


class TestNodeArrays:
    @pytest.mark.parametrize("d", [0.0, 0.25, 0.45])
    @pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4_closed"])
    def test_array_equals_single_nodes(self, name, d):
        x, z = tanh_sinh_nodes()
        assert x.min() < 1e-270 and z.min() < 1e-270
        g = getattr(vt, name)
        got = g(x, d, one_minus_x=z)
        single = [g(float(xi), d, one_minus_x=float(zi)) for xi, zi in zip(x, z)]
        assert all(type(v) is float for v in single)
        assert np.array_equal(got, single)

    @pytest.mark.parametrize("bottom", [None, 2 - 0.3])
    def test_series_dot_matches_the_full_sum(self, bottom):
        # x = 0 is E_0 alone; x = 1 (lam = 0) is how the i2 table takes its moment;
        # bottom None is the j! of the family sums
        d = 0.3
        bottom = 1.0 if bottom is None else bottom
        table = vt._family_table(d, vt._G2_FAMILY)
        x = np.array([0.0, 0.3, 0.9, 0.999, 1.0])
        lam = np.array([np.inf, -math.log(0.3), -math.log(0.9), -math.log(0.999), 0.0])
        got = one_set(table, [(d, bottom)], lam)
        ref = [full_series_dot(table, d, xi, li, bottom) for xi, li in zip(x, lam)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        assert got[0] == table.E[0]

    @pytest.mark.parametrize("d", [0.05, 0.3, 0.45])
    @pytest.mark.parametrize("family", [vt._G2_FAMILY, ((0, 1), 3, 2), ((-1, 2), 2, 1), "a=0.7"],
                             ids=str)
    def test_e_table_entries_match_mpmath(self, family, d):
        # E_j = 3F2(a, b, beta-j; c, beta-j+1; 1)/(beta-j) on either side of the resonance
        # j = m0 = round(beta) and far past it, against stored 20-digit mpmath values
        # (E_TABLE_ENTRIES); "a=0.7" is a kernel_hyp2f1_moment table
        if family == "a=0.7":
            a, b, c, beta = 0.7, 0.3, 2.0, 1 - d + 1.4
            table = vt._moment_table(a, b, c, beta, c - a - b + 1)
        else:
            table = vt._family_table(d, family)
        names = {vt._G2_FAMILY: "g2", ((0, 1), 3, 2): "g32", ((-1, 2), 2, 1): "m12"}
        ref = E_TABLE_ENTRIES[names.get(family, family), d]
        for j in ref:
            assert abs(table.E[j] / ref[j] - 1) <= 1e-12, (j, table.E[j], ref[j])

    @pytest.mark.parametrize("bottom", [1.0, 2 - 0.3])
    @pytest.mark.parametrize("z", [1e-8, 1e-6, 1e-4])
    def test_series_dot_where_the_tail_cut_off_falls_inside_the_rule(self, z, bottom):
        # e^(-lam t) cuts the tail off between t ~ 4e5 and 4e9, inside its quadrature
        d = 0.3
        table = vt._family_table(d, vt._G2_FAMILY)
        lam = -math.log1p(-z)
        assert one_set(table, [(d, bottom)], lam)[0] == pytest.approx(
            full_series_dot(table, d, 1.0 - z, lam, bottom), rel=1e-12)

    @pytest.mark.parametrize("d", [0.05, 0.25, 0.45])
    def test_node_array_batch_equals_per_set_calls(self, d):
        # each set's row of an (N, M) batch is what that set sums alone, to the bit
        x, z = first_sweep_nodes()
        lam = sf._decay_rate(x, z)
        unit = np.array([[pair(d)] for pair in ROUTE_2F1])
        family = np.array([[(d, 1.0)], [(d, 2 - d)], [(d, 1.5)]])
        for table, sets in ((vt._UNIT, unit), (vt._family_table(d, vt._G2_FAMILY), family)):
            got = vt._series_dot([table] * len(sets), sets, lam)
            assert got.shape == (len(sets), len(x))
            assert np.array_equal(got, [one_set(table, s, lam) for s in sets])

    def test_unit_argument_nodes_in_a_node_array_equal_them_alone(self):
        # a node at lam = 0 sums the table as one plain sum, a node above it by the fixed
        # R x Q split, whatever other nodes share the array
        table, pairs = vt._family_table(0.3, vt._G2_FAMILY), [(0.3, 1.7)]
        lam = np.array([0.5, 0.0, 1e-3, 0.0, 60.0])
        got = one_set(table, pairs, lam)
        assert np.array_equal(got[[1, 3]], one_set(table, pairs, np.zeros(2)))
        assert np.array_equal(got[[0, 2, 4]], [one_set(table, pairs, v)[0] for v in lam[[0, 2, 4]]])

    @pytest.mark.parametrize("name, d", [("i2", 1 / 3 - 1e-9), ("i2", 1 / 3 + 1e-9),
                                         ("delta=0", 0.3)], ids=["i2-below", "i2-above", "delta=0"])
    def test_law_tail_at_unit_argument_in_closed_form(self, law_spy, name, d):
        # i2 near 1/3 has a phi family at delta = -+3e-9 and the fractional power t^(d-2),
        # the moment table a phi family at delta = 0; the law is not evaluated at a point
        if name == "i2":
            table = vt._family_table(d, "i2")
            assert any(delta is not None and 0 < abs(delta) < 1e-8 for _, delta, _ in table.law)
            assert any(e0 != round(e0) for e0, _, _ in table.law)
        else:
            table = vt._moment_table(1.0, 0.25, 2.25, 1.4, 2.0)
            assert any(delta == 0.0 for _, delta, _ in table.law)
        sets = np.array([[(d, 1.0)]])
        tail = sf._series_tail([(law_spy(table), slice(None))], sets, np.ones(1), np.zeros(1))[0, 0]
        assert tail == pytest.approx(ZETA_TAILS[name, d], rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("name, d", list(LERCH_TAILS), ids=str)
    def test_law_tail_below_unit_argument_in_closed_form(self, name, d):
        # the same kinds of law at lam > 0, z = lam J from 1e-270 to just below the cut-off
        # 60, on both sides of the Lerch series' reach, in one node array
        if name == "delta=0":
            table = vt._moment_table(1.0, 0.25, 2.25, 1.4, 2.0)
        else:
            table = vt._family_table(d, "i2" if name == "i2" else vt._G2_FAMILY)
        lam = np.array(LERCH_Z) / sf._J_TABLE
        tail = sf._series_tail([(table, slice(None))], np.array([[(d, 1.0)]]), np.ones(1), lam)[0]
        np.testing.assert_allclose(tail, LERCH_TAILS[name, d], rtol=2e-14, atol=0.0)

    def test_series_tail_on_a_node_array_equals_one_node_calls(self):
        # lam = 0 has no cut-off, lam near 60/J cuts the sum off at the table's end,
        # and 1e-300 puts the cut-off where t itself would overflow
        J = sf._J_TABLE
        table = vt._family_table(0.3, vt._G2_FAMILY)
        sets = np.array([[(0.3, 1.0)], [(0.3, 1.7)], [(0.3, 2.4)]])
        w_J = sf._pair_weights(sets, J)[:, J]
        lam = np.array([0.0, 60 / J, 60 / J * (1 - 1e-12), 60 / J * (1 + 1e-9), 1e-300, 1e-8])
        blocks = [(table, slice(None))]
        one = [sf._series_tail(blocks, sets, w_J, lam[i:i + 1])[:, 0] for i in range(len(lam))]
        assert np.array_equal(sf._series_tail(blocks, sets, w_J, lam), np.transpose(one))

    @pytest.mark.parametrize("d", [1e-9, 0.05, 0.25, 1 / 3 - 1e-12, 1 / 3 + 1e-12, 0.45, 0.49])
    def test_g4_table_sums_its_weighted_parts(self, d):
        # G_4's family sums at (d, 1) are one weighted table; tables and laws are linear, and
        # the two sides round J-term sums in different orders
        x, z = first_sweep_nodes()
        lam = sf._decay_rate(x, z)
        group = g4_weighted_group(d)
        assert [f for _, f in group] == [((-1, 2), 2, 1), ((0, 1), 3, 2), "i2"]
        parts = [w * one_set(vt._family_table.__wrapped__(d, f), [(d, 1.0)], lam)
                 for w, f in group]
        got = one_set(vt._family_table(d, group), [(d, 1.0)], lam)
        assert np.all(np.abs(got - sum(parts)) <= 4e-15 * sum(np.abs(p) for p in parts))

    @pytest.mark.parametrize("d", [1e-9, 0.02, 0.25, 1 / 3 - 1e-9, 1 / 3 + 1e-9, 0.45, 0.49])
    def test_batch_tables_equal_one_family_builds(self, d):
        # G_4's weighted parts share one engine call, law pass and scan: each table and
        # every law row is what the part builds alone, to the bit
        group = [f for _, f in g4_weighted_group(d)]
        batch = vt._build_tables([vt._part(d, f) for f in group])
        for family, table in zip(group, batch):
            alone = vt._family_table.__wrapped__(d, family)
            assert np.array_equal(table.E, alone.E), family
            assert [law[:2] for law in table.law] == [law[:2] for law in alone.law], family
            for (_, _, coefs), (_, _, ref) in zip(table.law, alone.law):
                assert np.array_equal(coefs, ref), family

    def test_g4_weighted_table_is_one_engine_call(self, monkeypatch):
        # once the _G2_FAMILY table is cached, the three parts' start sums are one call
        d = 0.2371
        vt._family_table(d, vt._G2_FAMILY)
        calls, dot = [], vt._series_dot
        monkeypatch.setattr(vt, "_series_dot", lambda *args: calls.append(args) or dot(*args))
        vt._family_table.__wrapped__(d, g4_weighted_group(d))
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [0.05, 0.25, 1 / 3 + 1e-9, 0.45])
    def test_mixed_table_batch_equals_per_set_calls(self, d):
        # unit-table, _G2_FAMILY and G_4 weighted-table sets in one call, a table's sets
        # not all adjacent: each row is what its set sums alone on its table, to the bit
        x, z = first_sweep_nodes()
        lam = sf._decay_rate(x, z)
        group = g4_weighted_group(d)
        family, weighted = vt._family_table(d, vt._G2_FAMILY), vt._family_table(d, group)
        rows = [(vt._UNIT, pair(d)) for pair in ROUTE_2F1[:3]]
        rows += [(family, (d, 1.0)), (weighted, (d, 1.0)), (vt._UNIT, (d, 4 - 3 * d)),
                 (family, (d, 2 - d))]
        got = vt._series_dot([table for table, _ in rows], np.array([[p] for _, p in rows]), lam)
        assert got.shape == (len(rows), len(x))
        assert np.array_equal(got, [one_set(table, [p], lam) for table, p in rows])

    @pytest.mark.parametrize("name", ["g2", "g3", "g4_closed", "kernel_one_minus_power"])
    def test_series_engine_calls_per_g(self, monkeypatch, name):
        # once the tables of d are built, a G's unit pieces and family sums are one call
        x, z = first_sweep_nodes()
        g = getattr(vt, name)
        if name == "kernel_one_minus_power":
            g = functools.partial(g, 1)
        g(x=x, d=0.3, one_minus_x=z)
        calls, dot = [], vt._series_dot
        monkeypatch.setattr(vt, "_series_dot", lambda *args: calls.append(args) or dot(*args))
        g(x=x, d=0.3, one_minus_x=z)
        assert len(calls) == 1


# the 2F1(1, b; c; x) pieces of G_2..G_4 and kernel_one_minus_power
ROUTE_2F1 = [
    lambda d: (d, 2 - d), lambda d: (d, 3 - 2 * d), lambda d: (2 * d - 1, 2 - d),
    lambda d: (d, 4 - 3 * d), lambda d: (2 * d - 1, 3 - 2 * d), lambda d: (3 * d - 2, 2 - d),
]
GAP_D = (0.25, 1 / 3)  # c - 1 - b is an integer for some pair (or b = -1)


class TestUnitTable2F1:
    @pytest.mark.parametrize("d", [0.05, 0.12, 0.2, *GAP_D,
                                   0.25 - 1e-7, 0.25 + 1e-9, 0.25 - 1e-12,
                                   1 / 3 + 1e-7, 1 / 3 - 1e-9, 1 / 3 + 1e-12, 0.3, 0.4, 0.48])
    def test_matches_mpmath_down_to_the_smallest_distances(self, d):
        # 1 - x is formed exactly, with 30 digits to spare; at the exact gaps
        # mpmath's logarithmic case costs seconds per precision beyond ~100 digits
        zs = [0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-13, 1e-30, 1e-80, 1e-160, 1e-280]
        if d in GAP_D:
            zs = zs[:-2]
        z = np.array(zs)
        lam = -np.log1p(-z)
        for pair in ROUTE_2F1:
            b, c = pair(d)
            got = one_set(vt._UNIT, [(b, c)], lam)
            for zi, g in zip(zs, got):
                with mpmath.workdps(30 + math.ceil(-math.log10(zi))):
                    ref = mpmath.hyp2f1(1, b, c, 1 - mpmath.mpf(zi))
                    assert abs(g - ref) <= 1e-13 * abs(ref), (b, c, zi, g, ref)

    def test_route_runs_without_hyp_2f1(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hyp_2f1 called on the operator route")

        monkeypatch.setattr(vt, "hyp_2f1", refuse)
        monkeypatch.setattr(sf, "hyp_2f1", refuse)
        d = 1 / 3
        assert vt.c_k_via_operator(1, 3, d) == pytest.approx(cu.c_closed(4, d).value, rel=1e-10)


def _law_table(name, d):
    """The route table, or the "a=0.7" kernel_hyp2f1_moment table, of a stored reference."""
    if name == "a=0.7":
        a, b, c = 0.7, 0.3, 2.0
        return vt._moment_table(a, b, c, 1 - d + 1.4, c - a - b + 1)
    return vt._family_table.__wrapped__(d, "i2" if name == "i2" else {
        "g2": vt._G2_FAMILY, "g32": ((0, 1), 3, 2), "m12": ((-1, 2), 2, 1)}[name])


@pytest.mark.parametrize("name,d", list(E_TABLE_RECURRENCE), ids=str)
def test_large_j_law_matches_the_recurrence(name, d):
    # the law past the table against 40-digit runs of the table's own recurrence, and the
    # table's last entry, which carries the rounding of its J - 1 steps
    J = sf._J_TABLE
    ref = E_TABLE_RECURRENCE[name, d]
    table = _law_table(name, d)
    t = np.array([J, 2 * J, 8 * J], dtype=float)
    law = law_at(table.law, t)
    np.testing.assert_allclose(law, [ref[j] for j in t.astype(int).tolist()], rtol=1e-14, atol=0.0)
    assert abs(table.E[J - 1] / ref[J - 1] - 1) <= 3e-13


@pytest.mark.parametrize("d", sorted(G3_NEAR_1))
def test_g3_near_one_matches_stored_references(d):
    # stored values, not apply_kernel: near d = 1/2 the numeric operator is itself 3e-11 off here
    assert vt.g3(1 - 1e-12, d, one_minus_x=1e-12) == pytest.approx(G3_NEAR_1[d], rel=1e-13)


def test_series_powers_hold_no_subnormal(monkeypatch):
    # the powers of the main sum are zero past each node's cut-off, never subnormal
    x, z = first_sweep_nodes()
    seen, powers = [], sf._powers
    monkeypatch.setattr(sf, "_powers", lambda lam_j: seen.append(powers(lam_j)) or seen[-1])
    vt.g2(x, 0.05, one_minus_x=z)
    assert seen
    for p in seen:
        assert not np.any((p != 0.0) & (np.abs(p) < np.finfo(float).tiny))


class TestKernelHyp2F1Moment:
    def test_pure_power_weight(self):
        # b = 0 reduces to int |x-u|^(-d) u^e du
        e, d, x = 1.2, 0.3, 0.4
        val = vt.kernel_hyp2f1_moment(0.7, 0.0, 1.9, e, d, x)
        ref = split_quad(lambda u: abs(x - u) ** (-d) * u**e, x)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_operator_application_parameters(self):
        # the image of u^(1-d) 2F1(1,d;2-d;u), the first piece of G_2
        d, x = 0.25, 0.5
        val = vt.kernel_hyp2f1_moment(1.0, d, 2 - d, 1 - d, d, x)
        ref = split_quad(
            lambda u: abs(x - u) ** (-d) * u ** (1 - d) * sf.hyp_2f1(1.0, d, 2 - d, u),
            x,
        )
        assert val == pytest.approx(ref, abs=1e-7)

    def test_d_zero_reduces_to_plain_moment(self):
        # no kernel singularity: int_0^1 u^e 2F1 du, summable term by term
        a, b, c, e = 0.6, 0.3, 1.7, 0.8
        val = vt.kernel_hyp2f1_moment(a, b, c, e, 0.0, 0.37)
        k = np.arange(400_000, dtype=float)
        ratios = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        terms = np.concatenate([[1.0], np.cumprod(ratios)]) / (e + np.arange(400_001) + 1.0)
        ref = float(terms.sum()) + terms[-1] * 400_000 / (c - a - b + 1.0)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_beta_function_prefactor_identity(self):
        # Gamma(1-d)(Gamma(1+e)/Gamma(2-d+e) + Gamma(d-1-e)/Gamma(-e))
        #   = B(1-d, d-1-e) + B(1-d, 1+e)
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.uniform(0.05, 0.45)
            e = rng.uniform(0.1, 2.5)
            if abs(e - round(e)) < 1e-3 or abs(d - 1 - e - round(d - 1 - e)) < 1e-3:
                continue
            lhs = sf.gamma(1 - d) * (
                sf.gamma_ratio(1 + e, 2 - d + e) + sf.gamma_ratio(d - 1 - e, -e)
            )
            beta = lambda p, q: sf.gamma(p) * sf.gamma(q) / sf.gamma(p + q)
            rhs = beta(1 - d, d - 1 - e) + beta(1 - d, 1 + e)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("e", [0.0, 1.0, 2.0])
    def test_d_zero_with_integer_exponent(self, e):
        # 1 - d + e is an integer, a pole of the E table; at d = 0 K is the plain integral
        a, b, c, x = 0.7, 0.3, 1.9, 0.4
        val = vt.kernel_hyp2f1_moment(a, b, c, e, 0.0, x)
        with mpmath.workdps(25):
            ref = mpmath.quad(lambda u: u**e * mpmath.hyp2f1(a, b, c, u), [0, 1])
        assert val == pytest.approx(float(ref), rel=1e-14)

    def test_divergent_integrand_rejected(self):
        with pytest.raises(sf.ParameterDomainError):
            vt.kernel_hyp2f1_moment(1.0, 1.0, 1.5, 0.5, 0.3, 0.4)

    @pytest.mark.parametrize("params", list(KERNEL_HYP2F1_NEAR_1),
                             ids=["c-a-b=0.4", "c-a-b=1.651", "c-a-b=1.0003", "c-a-b=1.041"])
    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-9])
    def test_near_one_matches_stored_references(self, params, gap):
        # the front 3F2 near x = 1 is hyp_2f1's engine sum, not a power series at its term cap
        ref = KERNEL_HYP2F1_NEAR_1[params][gap]
        assert vt.kernel_hyp2f1_moment(*params, 1.0 - gap) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("params", list(KERNEL_HYP2F1_LARGE_GAP),
                             ids=["c-a-b=10", "c-a-b=8.7", "c-a-b=29"])
    @pytest.mark.parametrize("gap", [1e-4, 1e-9])
    def test_large_c_minus_a_minus_b_matches_stored_references(self, params, gap):
        ref = KERNEL_HYP2F1_LARGE_GAP[params][gap]
        assert vt.kernel_hyp2f1_moment(*params, 1.0 - gap) == pytest.approx(ref, rel=1e-13)


class TestKernelOneMinusPower:
    def test_d_zero(self):
        for p in (0, 1, 3):
            assert vt.kernel_one_minus_power(p, 0.0, 0.37) == pytest.approx(
                1.0 / (p + 1), rel=1e-12
            )

    @pytest.mark.parametrize("p,d,x", [(1, 0.25, 0.5), (2, 0.3, 0.7)])
    def test_against_split_quadrature(self, p, d, x):
        val = vt.kernel_one_minus_power(p, d, x)
        ref = split_quad(lambda u: abs(x - u) ** (-d) * (1 - u) ** (p - (p + 1) * d), x)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_random_points_high_accuracy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(0, 4))
            d = rng.uniform(0.05, 0.45)
            x = rng.uniform(0.1, 0.9)
            val = vt.kernel_one_minus_power(p, d, x)
            ref = split_quad(lambda u: abs(x - u) ** (-d) * (1 - u) ** (p - (p + 1) * d), x)
            assert val == pytest.approx(ref, abs=1e-7)


class TestApplyKernel:
    def test_identity_at_d_zero(self):
        g1f = vt.g_function(1, 0.0)
        assert vt.apply_kernel(g1f, 0.0, 0.37) == pytest.approx(1.0, abs=1e-10)

    def test_matches_g2(self):
        d, x = 0.25, 0.3
        g1f = vt.g_function(1, d)
        assert vt.apply_kernel(g1f, d, x) == pytest.approx(vt.g2(x, d), abs=1e-8)

    def test_g4_point_from_g3(self):
        d, x = 0.2, 0.6
        g3f = vt.g_function(3, d)
        assert vt.apply_kernel(g3f, d, x, abs_tol=1e-9) == pytest.approx(
            vt.g4_closed(x, d), abs=1e-6
        )


class TestCkViaOperator:
    def test_order_two_closed_value(self):
        d = 0.25
        assert vt.c_k_via_operator(1, 1, d) == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_order_three_matches_closed_form(self):
        d = 0.25
        assert vt.c_k_via_operator(1, 2, d) == pytest.approx(cu.c3_closed(d), abs=1e-7)

    def test_order_four_matches_closed_form(self):
        d = 0.25
        assert vt.c_k_via_operator(1, 3, d) == pytest.approx(
            cu.c4_closed(d).value, abs=1e-6
        )

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.4])
    def test_route_equivalence(self, d):
        assert vt.c_k_via_operator(1, 1, d) == pytest.approx(cu.c2_closed(d), abs=1e-5)
        assert vt.c_k_via_operator(1, 2, d) == pytest.approx(cu.c3_closed(d), abs=1e-5)
        assert vt.c_k_via_operator(1, 3, d) == pytest.approx(cu.c4_closed(d).value, abs=1e-5)
        assert vt.c_k_via_operator(1, 4, d) == pytest.approx(cu.c5_closed(d).value, abs=1e-4)

    def test_pairing_symmetry(self):
        # G2*G2 and G1*G3 integrate to the same c_4
        d = 0.25
        assert vt.c_k_via_operator(2, 2, d) == pytest.approx(
            vt.c_k_via_operator(1, 3, d), abs=1e-5
        )

    def test_second_pairing_order_five(self):
        d = 0.25
        assert vt.c_k_via_operator(2, 3, d) == pytest.approx(
            cu.c5_closed(d).value, abs=1e-4
        )

    @pytest.mark.parametrize("d", [1e-12, 1e-15])
    @pytest.mark.parametrize("mu,nu", [(1, 2), (2, 2), (2, 3)])
    def test_balanced_pairings_at_tiny_d(self, mu, nu, d):
        # beta = 2 - 2d sits within 2d of an integer: the E tables' near-resonant term
        assert vt.c_k_via_operator(mu, nu, d) == pytest.approx(
            cu.c_closed(mu + nu, d).value, rel=1e-12)

    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-14, -1e-14])
    def test_g4_pole_cancels_next_to_one_third(self, offset):
        # the image prefactor's pole and the ((0, 1), 3, 2) E-table resonance share one rounding
        d = 1 / 3 + offset
        assert vt.c_k_via_operator(1, 4, d) == pytest.approx(cu.c_closed(5, d).value, rel=1e-10)

    def test_affine_scan_matches_the_loop(self):
        # the prefix scan reassociates the products and sums of x_{i+1} = r_i x_i + q_i;
        # an exact zero r_i restarts the chain
        rng = np.random.default_rng(7)
        r, q = rng.uniform(-1.5, 1.5, 300), rng.uniform(-1.0, 1.0, 300)
        r[[17, 140]] = 0.0
        x, loop = 0.75, []
        for ri, qi in zip(r, q):
            x = ri * x + qi
            loop.append(x)
        np.testing.assert_allclose(vt._affine_scan(r, q, 0.75), loop, rtol=1e-13, atol=1e-15)

    def test_e_table_at_integer_beta_is_a_pole(self):
        with pytest.raises(sf.PoleError, match="beta=2.0"):
            vt._moment_table(1.0, 0.2, 1.8, 2.0, 1.6)

    def test_e_tables_are_built_without_an_fft(self, monkeypatch):
        # every table of one d, the i2 one included, comes from its recurrence in j
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft reached by an E-table build")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, refuse)
        vt._family_table.cache_clear()
        for family in (vt._G2_FAMILY, ((0, 1), 3, 2), ((-1, 2), 2, 1), "i2"):
            assert np.isfinite(vt._family_table(0.2371, family).E).all()

    def test_e_tables_are_built_without_a_fit(self, monkeypatch):
        # every large-j law is read off its table's recurrence: nothing is fitted to the entries
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.lstsq reached by an E-table build")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for d in (1e-9, 0.2371, 1 / 3 + 1e-9, 0.49):
            for family in (vt._G2_FAMILY, ((0, 1), 3, 2), ((-1, 2), 2, 1), "i2"):
                assert np.isfinite(vt._family_table.__wrapped__(d, family).E).all()
            vt._family_table.cache_clear()  # G_4 builds its weighted (d, 1) table afresh
            assert math.isfinite(vt.g4_closed(0.5, d))
        assert math.isfinite(vt.kernel_hyp2f1_moment(0.7, 0.3, 2.0, 1.4, 0.3, 1 - 1e-9))

    def test_g4_near_one_is_continuous_in_d(self):
        # the law's exponents follow d itself: no set of them switches on the last bit of d
        x, z = 1 - 1e-10, 1e-10
        values = [vt.g4_closed(x, d, one_minus_x=z)
                  for d in (math.nextafter(0.3, 0.0), 0.3, math.nextafter(0.3, 1.0))]
        assert max(values) - min(values) <= 1e-14 * abs(values[1])

    @given(st.floats(min_value=1e-9, max_value=0.45), st.sampled_from([(1, 2), (2, 2), (2, 3)]))
    @settings(max_examples=12, deadline=None)
    def test_balanced_pairings_match_the_closed_form(self, d, pairing):
        mu, nu = pairing
        assert vt.c_k_via_operator(mu, nu, d) == pytest.approx(
            cu.c_closed(mu + nu, d).value, rel=1e-12)

    @pytest.mark.parametrize("mu,nu", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4)])
    def test_each_g_is_evaluated_once_per_row(self, monkeypatch, mu, nu):
        # tanh-sinh's first sweep covers every level a route row needs, and
        # a (mu, mu) pairing squares its one evaluation
        calls = dict.fromkeys(G_NAMES, 0)
        for name in G_NAMES:
            def counted(*args, _name=name, _g=getattr(vt, name), **kwargs):
                calls[_name] += 1
                return _g(*args, **kwargs)
            monkeypatch.setattr(vt, name, counted)
        vt.c_k_via_operator(mu, nu, 0.3)
        assert calls == {name: int(name in (G_NAMES[mu - 1], G_NAMES[nu - 1]))
                         for name in G_NAMES}

    def test_unsupported_orders(self):
        with pytest.raises(ValueError):
            vt.c_k_via_operator(3, 3, 0.2)
        with pytest.raises(ValueError):
            vt.c_k_via_operator(0, 2, 0.2)


def _src_env():
    src = str(Path(rosenblatt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_import_leaves_scipy_signal_out():
    # numpy is the only runtime dependency: importing the CLI loads no scipy module
    code = ("import sys, rosenblatt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["table"],
    ["table", "--method", "vt", "--d-grid", "0.3333333333333333,0.25"],
    ["verify", "--method", "vt"],
    ["oracle"],
    ["phi"],
], ids=["table", "table-vt", "verify-vt", "oracle", "phi"])
def test_command_runs_with_scipy_blocked(argv):
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from rosenblatt.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", blocked, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
