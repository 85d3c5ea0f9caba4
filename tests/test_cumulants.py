"""Tests for the closed-form cumulant layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rosenblatt import cumulants as cu
from rosenblatt import specfun as sf
from reference_values import (C5_REGIONS_6_12, C_CLOSED_SMALL_D, GRID, KAPPA_TABLES,
                              matches_4_significant)


class TestSigma:
    def test_endpoints(self):
        assert cu.sigma(0.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert cu.sigma(0.5) == 0.0

    def test_quarter(self):
        assert cu.sigma(0.25) == pytest.approx(math.sqrt(0.1875), rel=1e-15)

    def test_domain(self):
        with pytest.raises(cu.DomainError):
            cu.sigma(0.6)
        with pytest.raises(cu.DomainError):
            cu.sigma(-0.01)


class TestKappaFromC:
    def test_third_order_unit_factor(self):
        assert matches_4_significant(cu.kappa_from_c(3, 0.0, 1.0), 2.828)

    def test_fourth_order_unit_factor(self):
        assert cu.kappa_from_c(4, 0.0, 1.0) == pytest.approx(12.0, rel=1e-14)

    def test_vanishes_at_half(self):
        assert cu.kappa_from_c(4, 0.5, 123.4) == 0.0


class TestOrderTwo:
    def test_c2_value(self):
        d = 0.25
        assert cu.c2_closed(d) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_kappa2_identity(self):
        for d in (0.0, 0.1, 0.37, 0.49):
            assert cu.kappa_from_c(2, d, cu.c2_closed(d)) == pytest.approx(1.0, rel=1e-13)

    def test_report_is_exact_one(self):
        rep = cu.kappa(2, 0.37)
        assert rep.value == 1.0 and rep.error_estimate == 0.0

    def test_divergent_at_half(self):
        with pytest.raises(cu.DomainError):
            cu.c2_closed(0.5)


class TestOrderThree:
    def test_c3_at_zero(self):
        assert cu.c3_closed(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_table(self):
        for d, ref in zip(GRID, KAPPA_TABLES[3]):
            assert matches_4_significant(cu.kappa(3, d).value, ref), f"d={d}"

    def test_monotone_between_neighbors(self):
        v = cu.kappa(3, 0.33).value
        assert 1.686 < v < 2.067


class TestOrderFourRegions:
    def test_simplex_volume_shares_at_zero(self):
        for i in (1, 2, 3):
            assert cu.c4_region(i, 0.0) == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_region_sum_matches_assembled_c4(self):
        for d in np.arange(0.05, 0.50, 0.05):
            total = 8.0 * sum(cu.c4_region(i, d) for i in (1, 2, 3))
            assert total == pytest.approx(cu.c4_closed(d).value, abs=1e-8)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cu.c4_region(4, 0.2)


class TestOrderFour:
    def test_table(self):
        for d, ref in zip(GRID, KAPPA_TABLES[4]):
            assert matches_4_significant(cu.kappa(4, d).value, ref), f"d={d}"


class TestOrderFiveRegions:
    def test_simplex_volume_at_zero(self):
        assert cu.c5_region(1, 0.0) == pytest.approx(1.0 / 120.0, rel=1e-12)

    def test_duplicate_formulas_shared_exactly(self):
        for d in (0.1, 0.3):
            assert cu.c5_region(9, d) == cu.c5_region(2, d)
            assert cu.c5_region(10, d) == cu.c5_region(5, d)

    def test_further_duplicate_values(self):
        # regions 12/4 and 11/6 carry equal values through the two-term split
        for d in (0.1, 0.25, 0.4):
            assert cu.c5_region(12, d) == pytest.approx(cu.c5_region(4, d), rel=1e-12)
            assert cu.c5_region(11, d) == pytest.approx(cu.c5_region(6, d), rel=1e-12)

    def test_endpoint_poles_for_regions_6_and_12(self):
        for i in (6, 12):
            for d in (0.0, 0.5):
                with pytest.raises(cu.DomainError):
                    cu.c5_region(i, d)

    @pytest.mark.parametrize("d", sorted(C5_REGIONS_6_12))
    def test_regions_6_and_12_against_references(self, d):
        # their Gamma(2d-1) ratios and 3F2(1, d, 2d-1; 2-d, 2d; 1) keep their digits near d = 0
        for i, ref in zip((6, 12), C5_REGIONS_6_12[d]):
            assert cu.c5_region(i, d) == pytest.approx(ref, rel=2e-12, abs=0.0)

    def test_region_sum_matches_total(self):
        # the 4F3 terms cancel in the sum: 10 * sum of regions = c_5
        for d in np.arange(0.05, 0.50, 0.05):
            total = 10.0 * sum(cu.c5_region(i, d) for i in range(1, 13))
            assert total == pytest.approx(cu.c5_closed(d).value, abs=1e-7)

    def test_every_region_at_one_d_shares_one_engine_call(self, monkeypatch):
        # the seven series of all 15 regions at one d come from one batch
        batches, batch = [], cu.pfq_at_1_batch
        monkeypatch.setattr(cu, "pfq_at_1_batch",
                            lambda sets: batches.append(len(sets)) or batch(sets))
        cu._series_values.cache_clear()
        d = 0.2371
        sum(cu.c4_region(i, d) for i in (1, 2, 3))
        sum(cu.c5_region(i, d) for i in range(1, 13))
        assert batches == [7]

    def test_printed_region3_variant_breaks_the_sum(self):
        d = 0.25
        total = 10.0 * (
            sum(cu.c5_region(i, d) for i in range(1, 13) if i != 3)
            + cu.c5_region(3, d, region3_variant="printed")
        )
        assert abs(total - cu.c5_closed(d).value) > 0.1

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            cu.c5_region(3, 0.2, region3_variant="wild-guess")


class TestOrderFive:
    def test_total_at_zero_is_one(self):
        assert cu.c5_closed(0.0).value == pytest.approx(1.0, rel=1e-12)

    def test_table(self):
        for d, ref in zip(GRID, KAPPA_TABLES[5]):
            assert matches_4_significant(cu.kappa(5, d).value, ref), f"d={d}"


class TestDispatch:
    def test_order_two(self):
        assert cu.kappa(2, 0.37).value == 1.0

    def test_table_spot_values(self):
        assert matches_4_significant(cu.kappa(3, 0.05).value, 2.815)
        assert matches_4_significant(cu.kappa(5, 0.30).value, 38.32)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            cu.kappa(6, 0.2)
        with pytest.raises(ValueError):
            cu.kappa(1, 0.2)

    def test_endpoint_law(self):
        for k in (3, 4, 5):
            assert cu.kappa(k, 0.5).value == 0.0
            expect = 2 ** (k - 1) * math.factorial(k - 1) * 2 ** (-k / 2)
            assert cu.kappa(k, 0.0).value == pytest.approx(expect, abs=1e-10)

    def test_error_estimates_zero_only_when_exact(self):
        for k in (3, 4, 5):
            assert cu.kappa(k, 0.0).error_estimate == 0.0
            assert cu.kappa(k, 0.5).error_estimate == 0.0
            assert cu.kappa(k, 0.25).error_estimate > 0.0
        assert cu.kappa(2, 0.25).error_estimate == 0.0

    @pytest.mark.parametrize("k, d", sorted(C_CLOSED_SMALL_D))
    def test_small_d_within_the_stated_error(self, k, d):
        # a top parameter d = 1e-12 is summed as d, not as a terminating 0
        c = cu.c_closed(k, d)
        assert abs(c.value - C_CLOSED_SMALL_D[k, d]) <= c.error_estimate

    def test_report_method_tag(self):
        assert cu.kappa(4, 0.3).method == "closed-form"

    def test_single_route_through_kappa_from_c(self):
        for k in (3, 4, 5):
            for d in np.linspace(0.01, 0.49, 49):
                c = cu.c_closed(k, d).value
                assert cu.kappa(k, d).value == cu.kappa_from_c(k, d, c), (k, d)
        assert cu.kappa(3, 0.0).value == 2.8284271247461903
        assert cu.kappa(4, 0.0).value == 12.0
        assert cu.kappa(5, 0.0).value == 67.88225099390857
        for k in (3, 4, 5):
            assert cu.kappa(k, 0.5).value == 0.0


class TestCharacteristicFunction:
    def test_at_zero(self):
        out = cu.characteristic_function(0.0, 0.25)
        assert out.value == 1.0 + 0.0j and not out.diverged

    def test_conjugate_symmetry(self):
        a = cu.characteristic_function(0.1, 0.25, K=5)
        b = cu.characteristic_function(-0.1, 0.25, K=5)
        assert a.value.conjugate() == pytest.approx(b.value, rel=1e-14)

    def test_truncation_stability_near_origin(self):
        a5 = cu.characteristic_function(0.05, 0.25, K=5)
        a4 = cu.characteristic_function(0.05, 0.25, K=4)
        assert abs(abs(a5.value) - abs(a4.value)) < 1e-4
        assert not a5.diverged

    def test_divergence_flag_far_from_origin(self):
        out = cu.characteristic_function(50.0, 0.1, K=5)
        assert out.diverged

    def test_unsupported_truncation(self):
        with pytest.raises(ValueError):
            cu.characteristic_function(0.1, 0.2, K=6)
        with pytest.raises(ValueError):
            cu.characteristic_function(0.1, 0.2, K=1)

    def test_gaussian_limit_at_half(self):
        out = cu.characteristic_function(0.3, 0.5, K=5)
        assert out.value == pytest.approx(complex(math.exp(-0.045), 0.0), rel=1e-12)


class TestCumulantTable:
    def test_reproduces_order_three_table(self):
        reports = cu.cumulant_table(GRID, [3])
        assert len(reports) == 11
        for rep, ref in zip(reports, KAPPA_TABLES[3]):
            assert matches_4_significant(rep.value, ref)

    def test_sorted_deterministically(self):
        reports = cu.cumulant_table([0.3, 0.1], [4, 2])
        keys = [(r.order, r.d) for r in reports]
        assert keys == sorted(keys)

    def test_empty_grid(self):
        assert cu.cumulant_table([], [3, 4]) == []

    def test_equals_kappa_row_by_row(self):
        grid = [0.0, 0.5, 0.25, 1 / 3, *np.random.default_rng(5).uniform(0.0, 0.5, size=8)]
        table = cu.cumulant_table(grid, [2, 3, 4, 5])
        rows = sorted((k, float(d)) for k in (2, 3, 4, 5) for d in grid)
        assert [(r.order, r.d) for r in table] == rows
        for got, (k, d) in zip(table, rows):
            want = cu.kappa(k, d)
            assert (got.method, got.diagnostics) == (want.method, want.diagnostics)
            assert got.value == pytest.approx(want.value, rel=1e-15, abs=0.0)
            assert got.error_estimate == pytest.approx(want.error_estimate, rel=1e-14, abs=0.0)

    def test_rejects_an_unsupported_order(self):
        with pytest.raises(ValueError):
            cu.cumulant_table([0.2], [4, 6])

    @given(st.floats(min_value=0.0, max_value=0.5), st.sampled_from([3, 4, 5]))
    @settings(max_examples=30, deadline=None)
    # the smallest floats, and d where regions 6 and 12 are each wrong but their sum is not
    @example(5e-324, 5)
    @example(2.2e-16, 5)
    @example(1e-13, 5)
    @example(0.499999999999999, 5)
    def test_batched_row_agrees_with_kappa_and_the_region_sums(self, d, k):
        # the row comes out of a batch that holds other rows' series too
        table = cu.cumulant_table([0.1, d, 0.37], [3, 4, 5])
        row = next(r for r in table if (r.order, r.d) == (k, d))
        assert abs(row.value - cu.kappa(k, d).value) <= row.error_estimate
        if k == 3 or not 0.0 < d < 0.5:
            return
        c = row.value / cu.kappa_from_c(k, d, 1.0)
        if k == 4:
            assert abs(8.0 * sum(cu.c4_region(i, d) for i in (1, 2, 3)) - c) <= 1e-8
        elif 1.0 - 2.0 * d < 1e-13:
            # Gamma(2d-1) of regions 6 and 12 is within gamma_ratio's pole tolerance
            with pytest.raises(sf.PoleError):
                cu.c5_region(6, d)
        else:
            assert abs(10.0 * sum(cu.c5_region(i, d) for i in range(1, 13)) - c) <= 1e-7


class TestReportInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            cu.CumulantReport(1, 0.2, 1.0, "closed-form", 0.0)
        with pytest.raises(ValueError):
            cu.CumulantReport(3, 0.2, 1.0, "closed-form", -1.0)
