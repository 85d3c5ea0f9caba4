"""Tests for the 3F2(1) transformation layer.

Every transformation is checked by value: both sides evaluated through
the series engine, which was itself validated against mpmath.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from rosenblatt import specfun as sf
from rosenblatt import thomae as th

mp.mp.dps = 30


def random_convergent_form(rng, *, bottom_gap=None):
    """A convergent 3F2(1) form whose one-term transforms stay convergent.

    bottom_gap="unit" pins one bottom at top+1 (the split pattern).
    """
    while True:
        a, b, c = rng.uniform(0.1, 1.4, size=3)
        if bottom_gap == "unit":
            e = a + 1.0
            f = b + c + rng.uniform(0.4, 2.0)
        else:
            e = a + rng.uniform(0.4, 2.0)
            f = max(b, c) + rng.uniform(0.4, 2.0)
        params = sf.HypParams((a, b, c), (e, f))
        if params.margin < 0.35 or params.margin > 4.0:
            continue
        try:
            params.validate()
        except sf.PoleError:
            continue
        return th.ThomaeForm(params)


class TestFixedTopRelation:
    def test_value_preserved_fourth_cumulant_family(self):
        d = 0.25
        form = th.ThomaeForm(sf.HypParams((1, d, 2 - 2 * d), (2 - d, 3 - 2 * d)))
        out = th.thomae_fixed_top(form)
        assert out.evaluate().value == pytest.approx(form.evaluate().value, abs=1e-10)

    def test_zero_top_gives_pure_gamma_ratio(self):
        # c = e makes the transformed series terminate at its first term
        a, b, c = 0.7, 0.4, 1.9
        e, f = c, 2.6
        form = th.ThomaeForm(sf.HypParams((a, b, c), (e, f)))
        out = th.thomae_fixed_top(form)
        assert 0.0 in out.params.top
        assert out.prefactor == pytest.approx(form.evaluate().value, rel=1e-10)

    def test_shifted_family_usage(self):
        d, k = 0.2, 1
        form = th.ThomaeForm(sf.HypParams((2 - d + k, d, 3 - 2 * d), (3 - d + k, 4 - 3 * d)))
        out = th.thomae_fixed_top(form)
        assert out.evaluate().value == pytest.approx(form.evaluate().value, rel=1e-10)

    def test_double_application_returns_to_start(self):
        d = 0.25
        form = th.ThomaeForm(sf.HypParams((1, d, 2 - 2 * d), (2 - d, 3 - 2 * d)))
        once = th.thomae_fixed_top(form)
        swapped = replace(once, params=sf.HypParams(once.params.top, once.params.bottom[::-1]))
        again = th.thomae_fixed_top(swapped)
        assert again.evaluate().value == pytest.approx(form.evaluate().value, rel=1e-11)


class TestFullRelation:
    def test_value_preserved_paper_family(self):
        d = 0.25
        form = th.ThomaeForm(sf.HypParams((1, d, d), (2 - d, 2 - d)))
        out = th.thomae_full(form)
        assert out.evaluate().value == pytest.approx(form.evaluate().value, abs=1e-10)

    def test_value_preserved_low_d(self):
        d = 0.1
        form = th.ThomaeForm(sf.HypParams((1, d, d), (2 - d, 2 - d)))
        out = th.thomae_full(form)
        assert out.evaluate().value == pytest.approx(form.evaluate().value, abs=1e-10)

    def test_a_equals_e_terminates(self):
        a = 1.3
        form = th.ThomaeForm(sf.HypParams((a, 0.4, 0.7), (a, 2.9)))
        out = th.thomae_full(form)
        assert 0.0 in out.params.top
        assert out.prefactor == pytest.approx(form.evaluate().value, rel=1e-10)


class TestSplitRelation:
    def test_paper_usage(self):
        d = 0.3
        form = th.ThomaeForm(sf.HypParams((2 * d - 1, d, 1.0), (2 * d, 2 - d)))
        split = th.thomae_split(form)
        assert split.evaluate().value == pytest.approx(form.evaluate().value, abs=1e-10)

    def test_forced_unit_c_is_flagged(self):
        # both remaining tops equal 1, so c = 1 and Gamma(1-c) poles
        form = th.ThomaeForm(sf.HypParams((0.4, 1.0, 1.0), (1.4, 2.8)))
        with pytest.raises(sf.PoleError):
            th.thomae_split(form)

    def test_pattern_required(self):
        form = th.ThomaeForm(sf.HypParams((0.4, 0.6, 1.0), (1.9, 2.8)))
        with pytest.raises(th.PatternMatchError):
            th.thomae_split(form)

    def test_degenerate_when_tops_equal(self):
        # every role assignment ends with b = a
        form = th.ThomaeForm(sf.HypParams((0.4, 0.4, 0.4), (1.4, 2.8)))
        with pytest.raises(th.DegenerateSplitError):
            th.thomae_split(form)

    def test_random_form_value_preserved(self):
        rng = np.random.default_rng(15)
        form = random_convergent_form(rng, bottom_gap="unit")
        split = th.thomae_split(form)
        assert split.evaluate().value == pytest.approx(form.evaluate().value, abs=1e-10)


def _transforms_stay_regular(form, gap=0.35):
    """Both one-term transforms keep margins and Gamma arguments away from degeneracy."""
    a, b, c = form.params.top
    e, f = form.params.bottom
    s = e + f - a - b - c
    derived = [f - a, e + f - b - c, e + f - a - c, e + f - a - b, s, a, e - b, e - c]
    return all(v >= gap for v in derived)


class TestValuePreservationSweep:
    def test_hundred_random_forms(self):
        # all three relations within 2e-9 of the direct evaluation
        rng = np.random.default_rng(99)
        tol = 2e-9
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 2000, "generator failed to produce enough regular forms"
            form = random_convergent_form(rng)
            if not _transforms_stay_regular(form):
                continue
            ref = form.evaluate().value
            for op in (th.thomae_fixed_top, th.thomae_full):
                out = op(form)
                assert abs(out.evaluate().value - ref) <= tol * max(1.0, abs(ref)), (
                    f"case {done}: {op.__name__} broke value preservation"
                )
            split_input = random_convergent_form(rng, bottom_gap="unit")
            ref = split_input.evaluate().value
            out = th.thomae_split(split_input).evaluate().value
            assert abs(out - ref) <= tol * max(1.0, abs(ref))
            done += 1


class TestShiftNegativeBottom:
    def test_zero_top_parameter_gives_zero(self):
        params = sf.HypParams((0.7, 0.0, 1.1), (1.9,))
        assert th.shift_negative_bottom(params, 2, 0.5) == 0.0

    def test_m_zero_matches_regularized_limit(self):
        top, bottom = (0.7, 1.3, 0.4), (1.9,)
        val = th.shift_negative_bottom(sf.HypParams(top, bottom), 0, 0.5)

        def regularized(eps):
            tot = mp.mpf(0)
            for k in range(0, 250):
                num = mp.mpf(1)
                for a in top:
                    num *= mp.rf(a, k)
                den = mp.rf(-eps, k) * mp.rf(bottom[0], k) * mp.factorial(k)
                tot += num / den * mp.mpf("0.5") ** k
            return float(tot / mp.gamma(-eps))

        v1, v2 = regularized(mp.mpf("1e-4")), regularized(mp.mpf("1e-5"))
        limit = v2 + (v2 - v1) / 9.0  # Richardson in eps
        assert val == pytest.approx(limit, abs=1e-8)

    def test_operator_route_chain_step(self):
        # fixed-top relation onto a -k bottom, regularized by the shift:
        # 3F2(1,d,2d-2-k; 2-d,2d-1-k; 1)
        #   = Gamma(2-2d) Gamma(2d-1-k) * (1/Gamma(-k)) 3F2(2-2d,1-d,2d-2-k; -k,2-d; 1)
        d, k = 0.2, 0
        lhs = sf.pfq_at_1(sf.HypParams((1.0, d, 2 * d - 2 - k), (2 - d, 2 * d - 1 - k))).value
        pref = sf.gamma(2 - 2 * d) * sf.gamma(2 * d - 1 - k)
        rhs = pref * th.shift_negative_bottom(
            sf.HypParams((2 - 2 * d, 1 - d, 2 * d - 2 - k), (2 - d,)), k, 1.0
        )
        assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_chain_recovers_closed_sum(self):
        # sum_k w_k 3F2(1,d,2d-2-k;2-d,2d-1-k;1) equals both closed expressions
        d = 0.2
        K = 600
        vals = []
        w = 1.0
        for k in range(K):
            f = sf.pfq_at_1(sf.HypParams((1.0, d, 2 * d - 2 - k), (2 - d, 2 * d - 1 - k)))
            vals.append(w * f.value)
            w *= (d + k) * (2 - 2 * d + k) / ((2 - d + k) * (3 - 2 * d + k))
        s = 2 - 2 * d

        def corrected(n):
            return sum(vals[:n]) + vals[n - 1] * n / s

        t1, t2 = corrected(K // 2), corrected(K)
        s_direct = t2 + (t2 - t1) / (2 ** (s + 1) - 1)

        f43 = sf.pfq_at_1(
            sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        ).value
        s_hyp = (1 - d) * sf.gamma_ratio(1 - 2 * d, 2 - 2 * d) * f43

        f1 = sf.pfq_at_1(sf.HypParams((2 - 2 * d, 1.0, d), (3 - 2 * d, 2 - d))).value
        gterm = (
            sf.gamma(2 - d) ** 2 * sf.gamma(3 - 2 * d)
            * sf.gamma_ratio(2 * d, d)
            / ((3 - 4 * d) * (1 - 2 * d) * sf.gamma(3 - 3 * d))
        )
        s_split = 2 * (1 - d) / (3 - 4 * d) * f1 + gterm

        assert s_hyp == pytest.approx(s_split, rel=1e-11)
        assert s_direct == pytest.approx(s_hyp, abs=5e-8)


class TestShiftErrors:
    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            th.shift_negative_bottom(sf.HypParams((0.5, 0.7, 1.1), (1.9,)), -1, 0.5)


class TestContiguous4F3Split:
    def test_paper_parameters(self):
        d = 0.2
        p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        direct = sf.pfq_at_1(p4).value
        (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
        total = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
        assert total == pytest.approx(direct, abs=1e-9)

    def test_terminating_top(self):
        # a zero top parameter terminates every series; the weights sum to 1
        p4 = sf.HypParams((0.3, 1.2, 0.0, 0.9), (1.3, 2.2, 2.0))
        (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
        assert w1 + w2 == pytest.approx(1.0, rel=1e-13)
        total = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
        assert total == pytest.approx(1.0, rel=1e-13)

    def test_second_d_value(self):
        d = 0.35
        p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        direct = sf.pfq_at_1(p4).value
        (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
        total = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
        assert total == pytest.approx(direct, abs=1e-9)

    def test_pattern_mismatch(self):
        with pytest.raises(th.PatternMatchError):
            th.split_4f3_contiguous(sf.HypParams((0.3, 1.2, 0.5, 0.9), (1.7, 2.4, 2.05)))


class TestAlternative4F3Split:
    @pytest.mark.parametrize("d", [0.05, 0.2, 0.45])
    def test_matches_direct_summation(self, d):
        p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        direct = sf.pfq_at_1(p4).value
        total = sum(w * sf.pfq_at_1(f).value for w, f in th.split_4f3_alternative(d))
        assert total == pytest.approx(direct, abs=1e-9)

    def test_agrees_with_contiguous_on_grid(self):
        # the identity the source leaves as an exercise, settled numerically
        for d in np.arange(0.05, 0.50, 0.05):
            p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
            (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
            va = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
            vb = sum(w * sf.pfq_at_1(f).value for w, f in th.split_4f3_alternative(d))
            assert abs(va - vb) <= 1e-8

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            th.split_4f3_alternative(0.0)
        with pytest.raises(ValueError):
            th.split_4f3_alternative(0.5)


class TestEval3F2Optimized:
    def test_optimized_evaluation_wrapper(self):
        d = 0.45
        params = sf.HypParams((1, d, 2 - 2 * d), (2 - d, 3 - 2 * d))
        ref = float(mp.hyper([1, d, 2 - 2 * d], [2 - d, 3 - 2 * d], 1))
        out = th.eval_3f2_optimized(params)
        assert out.value == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("family", [
        lambda d: ((1.0, d, 2 - 2 * d), (2 - d, 3 - 2 * d)),
        lambda d: ((2 * d - 1, d, 1.0), (2 * d, 2 - d)),
        lambda d: ((2 - 2 * d, 1.0, d), (3 - 2 * d, 2 - d)),
        lambda d: ((d, 1 - d, 2 - 2 * d), (2 - d, 4 - 4 * d)),
        lambda d: ((d, 1 - d, 3 - 3 * d), (2 - d, 4 - 4 * d)),
        lambda d: ((1.0, d, 3 - 3 * d), (2 - d, 4 - 3 * d)),
        lambda d: ((1.0, d, 3 - 3 * d), (3 - 2 * d, 4 - 3 * d)),
    ])
    def test_cumulant_families_agree_across_the_orbit(self, family):
        # the 3F2 parameter sets cumulants evaluates: each convergent one-relation
        # image, at another margin, sums to the same value
        for d in np.arange(0.05, 0.46, 0.05):
            form = th.ThomaeForm(sf.HypParams(*family(float(d))))
            ref = th.eval_3f2_optimized(form.params).value
            for op in (th.thomae_fixed_top, th.thomae_full):
                image = op(form)
                if image.margin > 0:
                    assert image.evaluate().value == pytest.approx(ref, rel=5e-14), f"d = {d}"
