"""Unit tests for the scalar special-function layer.

Oracles are independent of the implementation paths they check:
an arbitrary-precision Stirling-series log-Gamma, brute-force partial
sums, mpmath's hypergeometric evaluator, adaptive quadrature, and a
40-digit Gauss-Legendre rule.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from reference_values import HYP2F1_NEAR_1, PFQ_AT_1_MPMATH, TAIL_DOMINATED_MPMATH, ZETA_TAILS
from rosenblatt import cumulants
from rosenblatt import specfun as sf

mp.mp.dps = 40


def stirling_log_gamma(x: float, shift: int = 40, terms: int = 50) -> float:
    """Arbitrary-precision log Gamma by recurrence up to x+shift plus a Stirling series."""
    z = mp.mpf(x) + shift
    series = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
    for n in range(1, terms + 1):
        series += mp.bernoulli(2 * n) / (2 * n * (2 * n - 1) * z ** (2 * n - 1))
    for i in range(shift):
        series -= mp.log(abs(mp.mpf(x) + i))
    return float(series)


class TestLogGamma:
    def test_at_one(self):
        lg, sign = sf.log_gamma(1.0)
        assert lg == 0.0 and sign == 1

    def test_half_integer(self):
        lg, sign = sf.log_gamma(0.5)
        assert sign == 1
        assert lg == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_stirling_oracle(self):
        for x in [4.5, 0.1, -0.7, -3.3, 27.0, 49.5, -9.5]:
            lg, _ = sf.log_gamma(x)
            assert lg == pytest.approx(stirling_log_gamma(x), rel=1e-12, abs=1e-13)

    def test_negative_sign_pattern(self):
        assert sf.log_gamma(-0.5)[1] == -1  # Gamma(-1/2) = -2 sqrt(pi)
        assert sf.log_gamma(-1.5)[1] == 1
        assert sf.log_gamma(-2.5)[1] == -1

    def test_pole(self):
        with pytest.raises(sf.PoleError):
            sf.log_gamma(0.0)
        with pytest.raises(sf.PoleError):
            sf.log_gamma(-3.0)


class TestGammaRatio:
    def test_simple(self):
        assert sf.gamma_ratio(3.0, 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_negative_half(self):
        assert sf.gamma_ratio(1.0, -0.5) == pytest.approx(
            -1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
        )

    def test_double_pole_limit_small_d(self):
        # Gamma(2d-2)/Gamma(d-1) -> -1/4 as d -> 0 (symbolic recurrence value)
        for d in (1e-6, 1e-8):
            assert sf.gamma_ratio(2 * d - 2, d - 1) == pytest.approx(-0.25, abs=1e-5)

    def test_same_variable_pole_pair(self):
        # Gamma(2d-1)/Gamma(2d) = 1/(2d-1) holds through the d=0 double pole
        assert sf.gamma_ratio(-1.0, 0.0) == pytest.approx(-1.0, rel=1e-12)
        d = 0.3
        assert sf.gamma_ratio(2 * d - 1, 2 * d) == pytest.approx(1 / (2 * d - 1), rel=1e-12)

    def test_denominator_pole_only_gives_zero(self):
        assert sf.gamma_ratio(1.0, -2.0) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(sf.PoleError):
            sf.gamma_ratio(-2.0, 0.5)

    @given(
        st.floats(min_value=-5.7, max_value=8.0),
        st.floats(min_value=-5.2, max_value=8.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_reciprocal_identity(self, a, b):
        # gamma_ratio(a,b) * gamma_ratio(b,a) = 1 wherever both are finite and nonzero
        if sf._nonpos_int(a) or sf._nonpos_int(b):
            return
        if min(abs(a - round(a)), abs(b - round(b))) < 1e-6 and min(a, b) < 0.5:
            return  # stay away from poles where the product loses precision
        fwd = sf.gamma_ratio(a, b)
        rev = sf.gamma_ratio(b, a)
        assert fwd * rev == pytest.approx(1.0, rel=1e-9)


class TestGauss2F1At1:
    def test_zero_top_parameter(self):
        assert sf.gauss_2f1_at_1(1.7, 0.0, 2.3) == 1.0

    def test_against_direct_series(self):
        # sum the series at unit argument with the tail estimate as the oracle
        a, b, c = 1.0, 0.25, 2.5
        direct = sf.pfq_at_1(sf.HypParams((a, b), (c,)))
        closed = sf.gauss_2f1_at_1(a, b, c)
        assert closed == pytest.approx(direct.value, abs=10 * direct.error_estimate + 1e-12)

    def test_third_cumulant_family_value(self):
        d = 0.25
        val = sf.gauss_2f1_at_1(1.0, d, 3 - 2 * d)
        ref = (
            sf.gamma(3 - 2 * d) * sf.gamma(2 - 3 * d)
            / (sf.gamma(2 - 2 * d) * sf.gamma(3 - 3 * d))
        )
        assert val == pytest.approx(ref, rel=1e-13)

    def test_divergent(self):
        with pytest.raises(sf.DivergenceError):
            sf.gauss_2f1_at_1(1.5, 1.0, 2.0)

    def test_matches_pfq_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.uniform(0.1, 2.0, size=2)
            c = a + b + rng.uniform(0.3, 3.0)
            closed = sf.gauss_2f1_at_1(a, b, c)
            series = sf.pfq_at_1(sf.HypParams((a, b), (c,)))
            assert closed == pytest.approx(
                series.value, abs=10 * series.error_estimate + 1e-10 * abs(closed)
            )


class TestHyp2F1:
    def test_at_zero(self):
        assert sf.hyp_2f1(0.7, -1.3, 2.2, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x
        x = 0.5
        assert sf.hyp_2f1(1.0, 1.0, 2.0, x) == pytest.approx(-math.log1p(-x) / x, rel=1e-12)

    def test_operator_family_member_brute_force(self):
        # inner function family of the third G-function's series
        d, k = 0.3, 2
        a, b, c, x = 2 * d - 2 - k, d, 2 * d - 1 - k, 0.5
        t, s = 1.0, 1.0
        for j in range(100_000):
            t *= (a + j) * (b + j) * x / ((c + j) * (j + 1))
            s += t
        assert sf.hyp_2f1(a, b, c, x) == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("x", [0.86, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    @pytest.mark.parametrize("a, b, c", [
        (1.0, 0.25, 2.5),
        (1.1, 0.9, 2.999999),          # c - a - b = 1 - 1e-6
        (1.0, 0.249999, 3.250003),     # (1, d; 4 - 3d) at d = 0.249999
        (1.0, 0.25, 1.25),             # c - a - b = 0
        (1.0, 0.4999999, 1.5000001),   # (1, d; 2 - d) at d = 0.5 - 1e-7
        (0.7, 0.6, 1.3 + 1e-6),        # c - a - b = 1e-6
        (0.7, 0.6, 3.3 - 1e-6),        # c - a - b = 2 - 1e-6
    ])
    def test_near_unit_argument(self, a, b, c, x):
        ref = float(mp.hyp2f1(a, b, c, x))
        assert sf.hyp_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("x", [0.9, 0.9999, 1 - 1e-9])
    def test_near_unit_integer_exponent_fallback(self, x):
        # c-a-b = 2 exactly: the 1-x connection formula degenerates
        a, b, c = 1.0, -1.25, 1.75
        ref = float(mp.hyp2f1(a, b, c, x))
        assert sf.hyp_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("b, c", list(HYP2F1_NEAR_1), ids=str)
    def test_small_margins_and_integer_orders_match_stored_mpmath(self, b, c):
        # 1 - x = e down to 1e-225, carried by one_minus_x alone; HYP2F1_NEAR_1 holds
        # 320-digit values.  Margins c - b - 1 down to 0.002 and c - b at or within 4e-12 of
        # an integer, where the engine tail's Gamma pole meets its series' pole
        for e, ref in HYP2F1_NEAR_1[b, c].items():
            assert sf.hyp_2f1(1.0, b, c, 1.0 - e, e) == pytest.approx(ref, rel=1e-13, abs=0.0), e

    def test_delegates_to_gauss_at_one(self):
        assert sf.hyp_2f1(1.0, 0.2, 2.0, 1.0) == pytest.approx(
            sf.gauss_2f1_at_1(1.0, 0.2, 2.0), rel=1e-14
        )

    def test_bottom_pole_rejected(self):
        with pytest.raises(sf.PoleError):
            sf.hyp_2f1(0.5, 0.7, -2.0, 0.3)


class TestPfqAt1:
    def test_zero_top_exact(self):
        d = 0.3
        r = sf.pfq_at_1(sf.HypParams((1.0, 0.0, 2 - 2 * d), (2 - d, 3 - 2 * d)))
        assert r.value == 1.0 and r.error_estimate == 0.0

    def test_d_zero_is_zero_top(self):
        r = sf.pfq_at_1(sf.HypParams((1.0, 0.0, 2.0), (2.0, 3.0)))
        assert r.value == 1.0

    def test_divergent_margin(self):
        with pytest.raises(sf.DivergenceError):
            sf.pfq_at_1(sf.HypParams((1.0, 1.0, 1.0), (1.5, 1.4)))

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.45])
    def test_against_mpmath(self, d):
        # the references are mp.hyper at 40 digits, stored (PFQ_AT_1_MPMATH)
        fams = [
            ((1, d, 2 - 2 * d), (2 - d, 3 - 2 * d)),
            ((d, 1 - d, 3 - 3 * d), (2 - d, 4 - 4 * d)),
            ((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d)),
            ((1, d, 3 - 3 * d), (3 - 2 * d, 4 - 3 * d)),
            ((1, d, 2 - 2 * d, 3 - 3 * d), (2 - d, 3 - 2 * d, 4 - 4 * d)),
        ]
        for (top, bottom), ref in zip(fams, PFQ_AT_1_MPMATH[d]):
            r = sf.pfq_at_1(sf.HypParams(top, bottom))
            assert r.value == pytest.approx(ref, rel=2e-15)
            assert abs(r.value - ref) <= 50 * r.error_estimate + 1e-14 * abs(ref)

    @pytest.mark.parametrize("s", [0.5, 0.2, 0.1, 0.05, 0.03, 0.01])
    @pytest.mark.parametrize("a", [10.0, 20.0, 40.0])
    def test_small_margin_against_a_thomae_image(self, a, s):
        # 3F2(a,b,c; e,f; 1) at margin s is Gamma(s)Gamma(e)Gamma(f) /
        # (Gamma(a)Gamma(e+f-a-c)Gamma(e+f-a-b)) times 3F2(s, f-a, e-a;
        # e+f-a-c, e+f-a-b; 1), whose margin is a: that image's terms fall like
        # j^-(1+a), so its plain sum in mpmath is the reference
        b, c, e = a / 2 + 0.3, a / 2 + 0.6, a + 0.4
        f = a + b + c + s - e
        r = sf.pfq_at_1(sf.HypParams((a, b, c), (e, f)))
        ma, mb, mc, me, mf = (mp.mpf(v) for v in (a, b, c, e, f))
        ms = me + mf - ma - mb - mc
        top, bottom = (ms, mf - ma, me - ma), (me + mf - ma - mc, me + mf - ma - mb)
        term = total = mp.mpf(1)
        j = 0
        while abs(term) > mp.mpf(10) ** -30 * abs(total):
            term *= (top[0] + j) * (top[1] + j) * (top[2] + j) / (
                (bottom[0] + j) * (bottom[1] + j) * (j + 1))
            total += term
            j += 1
        ref = float(mp.gamma(ms) * mp.gamma(me) * mp.gamma(mf) * total / (
            mp.gamma(ma) * mp.gamma(bottom[0]) * mp.gamma(bottom[1])))
        assert r.value == pytest.approx(ref, rel=5e-14)

    @pytest.mark.parametrize("s", [0.01, 0.003])
    def test_tail_dominated_sum_carries_the_margin_exactly(self, s):
        # at margin s most of the sum is the tail, which falls like t^-s; the
        # reference is the Thomae image with 1.1 in the role of a (margin 1.1),
        # summed by mpmath (the other images agree with it to 1e-34), stored
        a, b, c, e, f = 0.8, 0.6, 1.1, 1.3, 1.2 + s
        r = sf.pfq_at_1(sf.HypParams((a, b, c), (e, f)))
        assert r.value == pytest.approx(TAIL_DOMINATED_MPMATH[s], rel=5e-15, abs=0.0)
        assert abs(r.value - TAIL_DOMINATED_MPMATH[s]) <= r.error_estimate

    def test_terminating_with_negative_bottom_allowed(self):
        # top -1 terminates before the bottom -3 can pole
        r = sf.pfq_at_1(sf.HypParams((-1.0, 0.5, 2.0), (-3.0, 1.5)))
        ref = 1.0 + (-1.0) * 0.5 * 2.0 / ((-3.0) * 1.5)
        assert r.value == pytest.approx(ref, rel=1e-14)

    def test_invalid_bottom_rejected(self):
        with pytest.raises(sf.PoleError):
            sf.pfq_at_1(sf.HypParams((0.5, 0.7, 1.2), (-1.0, 2.0)))



def cumulant_families(d):
    """The 3F2 and 4F3 parameter sets of the closed forms at d."""
    return [
        ((2 - 2 * d, 1.0, d), (3 - 2 * d, 2 - d)),
        ((d, 1 - d, 3 - 3 * d), (2 - d, 4 - 4 * d)),
        ((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d)),
        ((1.0, d, 3 - 3 * d), (3 - 2 * d, 4 - 3 * d)),
        ((1.0, d, 3 - 3 * d), (2 - d, 4 - 3 * d)),
        ((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d)),
        ((1.0, d, 2 * d - 1), (2 - d, 2 * d)),
        ((1.0, d, 2 - 2 * d, 3 - 3 * d), (2 - d, 3 - 2 * d, 4 - 4 * d)),
    ]


class TestPfqAt1Batch:
    def assert_matches_scalar(self, sets):
        results = sf.pfq_at_1_batch(sets)
        assert len(results) == len(sets)
        for got, params in zip(results, sets):
            want = sf.pfq_at_1(params)
            assert got.value == pytest.approx(want.value, rel=2e-15, abs=0.0)
            assert got.n_terms == want.n_terms
            assert got.error_estimate == pytest.approx(want.error_estimate, rel=1e-14, abs=0.0)
        return results

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cumulant_families_on_a_random_grid(self, seed):
        grid = np.random.default_rng(seed).uniform(0.0, 0.5, size=11)
        self.assert_matches_scalar(
            [sf.HypParams(top, bottom) for d in grid for top, bottom in cumulant_families(d)])

    def test_mixed_widths_and_prefix_lengths(self):
        # 2F1, 3F2 and 4F3 sets side by side (padded with the pair (1, 1)); the
        # large parameters need longer unit-table prefixes than the 128-term first row
        sets = [
            sf.HypParams((1.0, 0.3, 1.4), (1.7, 2.4)),
            sf.HypParams((1.0, 0.3, 1.4, 2.1), (1.7, 2.4, 3.3)),
            sf.HypParams((20.0, 10.3, 10.6), (20.4, 20.51)),
            sf.HypParams((40.0, 20.3, 20.6, 1.5), (40.4, 40.51, 2.5)),
            sf.HypParams((0.5, 0.25), (1.75,)),
            sf.HypParams((10.0, 5.3, 5.6), (10.4, 10.6)),
        ]
        results = self.assert_matches_scalar(sets)
        assert len({r.n_terms for r in results}) >= 3

    @pytest.mark.parametrize("bad, error", [
        (sf.HypParams((1.0, 1.0, 1.0), (1.5, 1.4)), sf.DivergenceError),   # s = -0.1
        (sf.HypParams((1.0, 1.0, 1.0), (1.5, 1.5)), sf.DivergenceError),   # s = 0
        (sf.HypParams((1.0, 1.0, 1.0), (2.0,)), sf.DivergenceError),       # p > q + 1
        (sf.HypParams((0.5, 0.7, 1.2), (-1.0, 2.0)), sf.PoleError),        # bottom pole
    ], ids=["negative-margin", "zero-margin", "too-many-tops", "bottom-pole"])
    def test_a_bad_set_raises_as_it_would_alone(self, bad, error):
        with pytest.raises(error) as alone:
            sf.pfq_at_1(bad)
        good = sf.HypParams((1.0, 0.3, 1.4), (1.7, 2.4))
        with pytest.raises(error) as batched:
            sf.pfq_at_1_batch([good, bad, good])
        assert str(batched.value) == str(alone.value)

    def test_terminating_and_factorial_sets_take_the_scalar_branches(self):
        sets = [
            sf.HypParams((-2.0, 0.5, 2.0), (1.5, 3.0)),   # terminating
            sf.HypParams((1.0, 0.3, 1.4), (1.7, 2.4)),    # series engine
            sf.HypParams((0.5,), (1.5,)),                 # 1F1: factorial decay
            sf.HypParams((1.0, 0.0, 2.0), (2.0, 3.0)),    # zero top
        ]
        assert sf.pfq_at_1_batch(sets) == [sf.pfq_at_1(p) for p in sets]

    def test_empty_batch(self):
        assert sf.pfq_at_1_batch([]) == []

    def test_engine_forms_margins_and_power_sums_once(self, monkeypatch):
        # sets with three prefix lengths: one margin and one power-sum pass size them all
        # and feed every tail
        calls = []
        for name in ("_margins", "_power_sums"):
            monkeypatch.setattr(sf, name, lambda *args, _name=name, _f=getattr(sf, name):
                                calls.append(_name) or _f(*args))
        results = sf.pfq_at_1_batch([
            sf.HypParams((1.0, 0.3, 1.4), (1.7, 2.4)),
            sf.HypParams((20.0, 10.3, 10.6), (20.4, 20.51)),
            sf.HypParams((40.0, 20.3, 20.6, 1.5), (40.4, 40.51, 2.5)),
        ])
        assert len({r.n_terms for r in results}) == 3
        assert calls == ["_margins", "_power_sums"]

    @pytest.mark.parametrize("bad, error", [
        (sf.HypParams((1.0, 1.0, 1.0), (1.5, 1.4)), sf.DivergenceError),
        (sf.HypParams((0.5, 0.7, 1.2), (-1.0, 2.0)), sf.PoleError),
        (sf.HypParams((1.0, -2.0, 1.2), (0.5, 2.0)), sf.ParameterDomainError),
    ], ids=["negative-margin", "bottom-pole", "terminating-top"])
    def test_pair_array_entry_checks_the_whole_array(self, bad, error):
        # the engine entry raises pfq_at_1_batch's errors; a terminating top, which
        # pfq_at_1_batch sums term by term, is not the engine's to sum
        good = sf.HypParams((1.0, 0.3, 1.4), (1.7, 2.4))
        pairs = np.array([list(zip(p.top, (*p.bottom, 1.0))) for p in (good, bad, good)])
        with pytest.raises(error) as entry:
            sf._pfq_at_1_pairs(pairs)
        if error is not sf.ParameterDomainError:
            with pytest.raises(error) as batched:
                sf.pfq_at_1_batch([good, bad, good])
            assert str(entry.value) == str(batched.value)


def _exact_tail_rows():
    # B_0..B_(K+2) from sum_{j<=m} C(m+1, j) B_j = 0, in exact rationals
    K = sf._TAIL_TERMS
    B = [Fraction(1)]
    for m in range(1, K + 3):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    rows = [[(-1) ** k * math.comb(k, m) * B[k - m] / (k * (k - 1)) if m <= k else Fraction(0)
             for m in range(K + 3)] for k in range(2, K + 3)]
    zeta = [B[2 * k] / math.factorial(2 * k) for k in range(1, 6)]
    return {"_LNGAMMA_ROWS": rows, "_ZETA": zeta}


@pytest.mark.parametrize("name", ["_LNGAMMA_ROWS", "_ZETA"])
def test_tail_expansion_rows_match_exact_bernoulli_numbers(name):
    # the Gamma-ratio rows, g_2 .. g_(K+2) with the last the first term left out, and
    # the Hurwitz zeta expansion's B_2k/(2k)!: literals against exact rationals
    got = np.asarray(getattr(sf, name))
    want = np.array(_exact_tail_rows()[name], dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2e-16 * np.abs(want))


UNIT_TAILS = sorted(key for key in ZETA_TAILS if isinstance(key[0], float))


@pytest.mark.parametrize("d, name", UNIT_TAILS, ids=[f"{d}-{name}" for d, name in UNIT_TAILS])
def test_unit_argument_tail_is_a_hurwitz_zeta_sum(d, name):
    # sum_(j>=128) w_j/w_128 at lam = 0 against stored 40-digit tails (ZETA_TAILS)
    top, bottom = cumulants._series(d)[name]
    sets = np.array([list(zip(top, (*bottom, 1.0)))])
    table = sf._ETable(np.ones(128), sf._UNIT.law)
    tail = sf._series_tail(table, sets, np.ones(1), np.zeros(1))[0, 0]
    assert tail == pytest.approx(ZETA_TAILS[d, name], rel=2e-14, abs=0.0)


def test_tail_of_a_tail_dominated_sum_carries_the_margin_exactly():
    # margin 0.003: the tail is about 0.996 of the sum, and its leading term is 1/s
    sets = np.array([[(0.8, 1.3), (0.6, 1.2 + 0.003), (1.1, 1.0)]])
    table = sf._ETable(np.ones(128), sf._UNIT.law)
    tail = sf._series_tail(table, sets, np.ones(1), np.zeros(1))[0, 0]
    assert tail == pytest.approx(ZETA_TAILS["margin", 0.003], rel=2e-14, abs=0.0)


def test_a_tail_at_unit_argument_evaluates_no_panel(monkeypatch, law_spy):
    # lam = 0 is a closed form: neither the lam > 0 route nor any law evaluation at a point
    monkeypatch.setattr(sf, "_UNIT", law_spy(sf._UNIT))
    sets = [sf.HypParams(top, bottom) for d in (0.05, 0.3, 0.49)
            for top, bottom in cumulant_families(d)]
    assert all(r.n_terms == 128 for r in sf.pfq_at_1_batch(sets))
    sf.pfq_at_1(sf.HypParams((40.0, 20.3, 20.6, 1.5), (40.4, 40.51, 2.5)))


def test_gauss_legendre_rule_matches_a_40_digit_rule():
    # the nodes of P_n by Newton's method in 40 digits, from the float nodes, and their
    # weights 2/((1-x^2) P_n'(x)^2); numpy's leggauss weights are 5.8e-14 off at the ends
    n = len(sf._GL_NODES)
    for x, w in zip(sf._GL_NODES, sf._GL_WEIGHTS):
        r = mp.mpf(x)
        for _ in range(3):
            p0, p1 = mp.mpf(1), r
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * r * p1 - (j - 1) * p0) / j
            slope = n * (r * p1 - p0) / (r * r - 1)
            r -= p1 / slope
        assert abs(x - r) <= 1e-16
        assert abs(w / (2 / ((1 - r * r) * slope * slope)) - 1) <= 1e-14


def terminating_sum(top, bottom, x, m):
    """The m + 1 terms of a terminating pFq, by the term ratio, in the series' own order."""
    total = t = 1.0
    for k in range(m):
        r = x / (k + 1.0)
        for a in top:
            r *= a + k
        for b in bottom:
            r /= b + k
        t *= r
        total += t
    return total


class TestPfq:
    def test_nonconvergence_at_the_term_cap(self, monkeypatch):
        # 2F1(1, 1; 2; x) = -ln(1-x)/x: at x = 0.999 the terms fall below an
        # ulp of the sum only after about 30 000 of them
        monkeypatch.setattr(sf, "_MAX_TERMS", 2048)
        with pytest.raises(sf.NonConvergenceError):
            sf._pfq_series(sf.HypParams((1.0, 1.0), (2.0,)), 0.999)

    @pytest.mark.parametrize("params, m", [
        (sf.HypParams((-2.0, 0.5), (-2.0,)), 2),  # a fourth term would divide by the zero bottom
        (sf.HypParams((-3.0, 1.5, 2.0), (0.5, -4.0)), 3),
        (sf.HypParams((1.0, -4.0, 0.3), (2.5, 1.7)), 4),
        (sf.HypParams((-7.0, 0.25, 0.5), (1.5, 2.5)), 7),
        (sf.HypParams((0.0, 1.0), (2.0,)), 0),
    ])
    @pytest.mark.parametrize("x", [1.0, 0.3, -0.7])
    def test_terminating_series_sums_exactly_its_terms(self, params, m, x):
        want = terminating_sum(params.top, params.bottom, x, m)
        assert tuple(sf._pfq_series(params, x)) == (want, 0.0, m + 1)


class TestProductBinomialIntegral:
    def test_d_zero(self):
        assert sf.product_binomial_integral(0.7, 0.2, 0.0) == 1.0

    def test_q_zero_reduces_to_power_integral(self):
        p, d = 0.6, 0.35
        ref = (1 - (1 - p) ** (1 - d)) / (p * (1 - d))
        assert sf.product_binomial_integral(p, 0.0, d) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("p, q, d", [
        (0.5, 0.25, 0.3),
        (0.5, 0.5 * 0.999999, 0.5 - 1e-7),  # both 2F1(1, d; 2 - d) arguments near 1
        (0.238, 0.191, 6e-6),  # the two-term form cancels; its 2F1 arguments are below 0.85
    ])
    def test_against_quadrature(self, p, q, d):
        ref = mp.quad(lambda z: (1 - p * z) ** (-d) * (1 - q * z) ** (-d), [0, 1])
        assert sf.product_binomial_integral(p, q, d) == pytest.approx(float(ref), rel=1e-13)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_p_q(self, p, q, d):
        v1 = sf.product_binomial_integral(p, q, d)
        v2 = sf.product_binomial_integral(q, p, d)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


class TestPrudnikovProductIntegral:
    def test_reduces_to_beta(self):
        alpha, c, c2 = 0.7, 1.3, 2.2
        val = sf.prudnikov_product_integral(alpha, 0.4, 0.0, c, 0.6, 0.0, c2)
        ref = math.gamma(alpha) * math.gamma(c) / math.gamma(alpha + c)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_fourth_cumulant_route_parameters_vs_quadrature(self):
        # role assignment with positive margin: unprimed carries the larger bottom
        d, k = 0.3, 0
        alpha = 1 - d
        a, b, c = d, 3 - 2 * d + k, 4 - 2 * d + k
        a2, b2, c2 = d, 1.0 + k, 2.0 + k
        val = sf.prudnikov_product_integral(alpha, a, b, c, a2, b2, c2)

        def integrand(x):
            return (
                x ** (alpha - 1) * (1 - x) ** (c - 1)
                * float(mp.hyp2f1(a, b, c, 1 - x))
                * float(mp.hyp2f1(a2, b2, c2, 1 - x))
            )

        ref = quad(integrand, 0, 1, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
        assert val == pytest.approx(ref, abs=1e-8)

    def test_divergent_margin_rejected(self):
        # the literal weight assignment of the same integrand has margin 2d-1 < 0
        d, k = 0.3, 0
        with pytest.raises(sf.DivergenceError):
            sf.prudnikov_product_integral(
                1 - d, d, 1.0 + k, 2.0 + k, d, 3 - 2 * d + k, 4 - 2 * d + k
            )
