"""Tests for the Monte-Carlo and quadrature ground-truth layer."""

import itertools
import math
import warnings

import numpy as np
import pytest

from rosenblatt import cumulants as cu
from rosenblatt import oracle as orc


class TestRegionCatalog:
    def test_sixteen_entries(self):
        assert len(orc.region_catalog()) == 16

    def test_multiplicities(self):
        cat = orc.region_catalog()
        assert all(s.multiplicity == 8 for s in cat if s.k == 4)
        by_order = {k: sum(s.multiplicity for s in cat if s.k == k) for k in (3, 4, 5)}
        assert by_order == {3: math.factorial(3), 4: math.factorial(4), 5: math.factorial(5)}

    def test_every_index_in_two_pairs(self):
        # reorderings of the cyclic product touch each variable exactly twice
        for spec in orc.region_catalog():
            counts = {i: 0 for i in range(1, spec.k + 1)}
            for i, j in spec.factor_pairs:
                counts[i] += 1
                counts[j] += 1
            assert all(c == 2 for c in counts.values()), spec.name

    def test_validation(self):
        with pytest.raises(ValueError):
            orc.RegionSpec("bad", 3, ((1, 2), (2, 3)), 6)
        with pytest.raises(ValueError):
            orc.RegionSpec("bad", 3, ((1, 2), (2, 3), (3, 1)), 6)


class TestMcCk:
    def test_d_zero_exact(self):
        est = orc.mc_ck(3, 0.0, 50_000, seed=42)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_matches_closed_form_order_four(self):
        d = 0.25
        est = orc.mc_ck(4, d, 1_000_000, seed=1)
        truth = cu.c4_closed(d).value
        assert abs(est.mean - truth) <= 4.0 * est.std_error

    def test_matches_closed_form_order_five(self):
        d = 0.1
        est = orc.mc_ck(5, d, 1_000_000, seed=2)
        truth = cu.c5_closed(d).value
        assert abs(est.mean - truth) <= 4.0 * est.std_error

    def test_reproducible(self):
        a = orc.mc_ck(4, 0.3, 200_000, seed=7)
        b = orc.mc_ck(4, 0.3, 200_000, seed=7)
        assert a == b

    def test_thread_count_invariance(self):
        a = orc.mc_ck(5, 0.3, 300_000, seed=99, workers=1)
        b = orc.mc_ck(5, 0.3, 300_000, seed=99, workers=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_convergence_scaling(self):
        # quadrupling n halves the standard error within 20%
        d = 0.25
        se_n = orc.mc_ck(4, d, 500_000, seed=3).std_error
        se_4n = orc.mc_ck(4, d, 2_000_000, seed=3).std_error
        assert se_n / se_4n == pytest.approx(2.0, rel=0.2)

    def test_variance_warning_near_half(self):
        with pytest.warns(UserWarning):
            orc.mc_ck(3, 0.46, 10_000, seed=5)

    def test_variance_warning_from_the_order_threshold(self):
        # order 5 has infinite variance from d = 4/10 on
        with pytest.warns(UserWarning, match="infinite variance"):
            orc.mc_ck(5, 0.41, 10_000, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orc.mc_ck(5, 0.35, 10_000, seed=5)

    def test_domain(self):
        with pytest.raises(ValueError):
            orc.mc_ck(3, 0.5, 1000, seed=0)
        with pytest.raises(ValueError):
            orc.mc_ck(1, 0.2, 1000, seed=0)


class TestMcRegion:
    def test_simplex_volume_at_d_zero(self):
        spec = orc.region_catalog()[4]  # first order-5 region
        est = orc.mc_region(spec, 0.0, 100_000, seed=11)
        assert est.mean == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert est.std_error == 0.0

    def test_order_four_regions_match_closed_forms(self):
        d = 0.25
        for spec in orc.region_catalog():
            if spec.k != 4:
                continue
            i = int(spec.name.split("-")[1])
            est = orc.mc_region(spec, d, 1_000_000, seed=123)
            truth = cu.c4_region(i, d)
            assert abs(est.mean - truth) <= 4.0 * est.std_error, spec.name

    def test_region3_order5_oracle_decides_corrected_reading(self):
        d = 0.25
        spec = next(s for s in orc.region_catalog() if s.name == "c5-3")
        est = orc.mc_region(spec, d, 2_000_000, seed=123)
        corrected = cu.c5_region(3, d)
        printed = cu.c5_region(3, d, region3_variant="printed")
        assert abs(est.mean - corrected) <= 4.0 * est.std_error
        assert abs(est.mean - printed) > 20.0 * est.std_error

    def test_weighted_sum_consistent_with_hypercube_estimate(self):
        d, n = 0.25, 400_000
        whole = orc.mc_ck(5, d, n, seed=77)
        specs = [s for s in orc.region_catalog() if s.k == 5]
        parts = [orc.mc_region(s, d, n, seed=77 + i) for i, s in enumerate(specs)]
        total = sum(p.mean * s.multiplicity for p, s in zip(parts, specs))
        spread = 3.0 * (
            whole.std_error
            + sum(p.std_error * s.multiplicity for p, s in zip(parts, specs))
        )
        assert abs(total - whole.mean) <= spread


def _reference_cyclic(x, d):
    """The cyclic integrand as k powers, one per clamped distance."""
    k = x.shape[1]
    out = np.maximum(np.abs(x[:, 0] - x[:, k - 1]), orc._EPS_CLAMP) ** (-d)
    for i in range(k - 1):
        out *= np.maximum(np.abs(x[:, i] - x[:, i + 1]), orc._EPS_CLAMP) ** (-d)
    return out


def _reference_region(x, factor_pairs, d):
    """The region integrand on np.sort's descending rows, one power per factor."""
    k = x.shape[1]
    y = np.sort(x, axis=1)[:, ::-1]
    out = np.full(x.shape[0], 1.0 / math.factorial(k))
    for i, j in factor_pairs:
        out *= np.maximum(y[:, i - 1] - y[:, j - 1], orc._EPS_CLAMP) ** (-d)
    return out


class TestIntegrands:
    TOP = 1.0 - 2.0**-53  # the largest value Generator.random returns

    @pytest.mark.parametrize("k", range(2, 9))
    def test_sorting_network_matches_np_sort(self, k):
        rng = np.random.default_rng(k)
        corners = np.array(list(itertools.product((0.0, self.TOP), repeat=k)))
        ties = rng.choice([0.0, 0.25, 0.5, self.TOP], size=(500, k))
        x = np.vstack([corners, ties, rng.random((500, k))])
        got = np.stack(orc._sorted_columns(x), axis=1)
        want = np.sort(x, axis=1)[:, ::-1]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [0.1, 0.3, 0.49])
    def test_coincident_row_stays_finite_past_nineteen_factors(self, d):
        # 24 clamped distances multiply to 2^-1272, below the doubles
        x = np.zeros((1, 24))
        want = 2.0 ** (53 * 24 * d)
        got = orc._cyclic_integrand(x, d)[0]
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-13)
        ring = tuple((i, i + 1) for i in range(1, 24)) + ((1, 24),)
        got = orc._region_integrand(x, ring, d)[0]
        assert got == pytest.approx(want / math.factorial(24), rel=1e-13)

    @pytest.mark.filterwarnings("ignore:the order-.* integrand has infinite variance")
    @pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
    def test_one_power_agrees_with_k_powers(self, d):
        seed, n = 8, 1 << 16
        cases = [(k, None) for k in range(2, 6)]
        cases += [(s.k, s) for s in orc.region_catalog()]
        for k, spec in cases:
            x = orc._chunk_rng(seed, 0).random((n, k))
            if spec is None:
                got, want = orc._cyclic_integrand(x, d), _reference_cyclic(x, d)
                est = orc.mc_ck(k, d, n, seed)
            else:
                got = orc._region_integrand(x, spec.factor_pairs, d)
                want = _reference_region(x, spec.factor_pairs, d)
                est = orc.mc_region(spec, d, n, seed)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-14, (k, spec)
            ref = orc._finish(want.sum(), np.square(want).sum(), n, seed)
            assert est.mean == pytest.approx(ref.mean, rel=1e-14), (k, spec)


class TestQuadC3:
    def test_d_zero(self):
        assert orc.quad_c3(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,tol", [(0.25, 1e-7), (0.4, 1e-6)])
    def test_matches_closed_form(self, d, tol):
        assert orc.quad_c3(d) == pytest.approx(cu.c3_closed(d), abs=tol)

    def test_domain(self):
        with pytest.raises(ValueError):
            orc.quad_c3(0.5)
