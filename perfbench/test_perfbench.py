"""Self-tests of the benchmark: seeded inputs and its own arithmetic.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench_inputs as bi
import bench_stats as bs


@pytest.mark.parametrize("workload", bi.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = bi.schedule(workload, 7, 5)
    assert bi.schedule(workload, 7, 5) == a
    assert bi.digest(bi.schedule(workload, 7, 5)) == bi.digest(a)
    b = bi.schedule(workload, 8, 5)
    assert b != a
    assert bi.digest(b) != bi.digest(a)


def test_inputs_stay_in_their_ranges():
    for grid in bi.closed_table_ops(3, 50):
        assert len(grid) == bi.TABLE_POINTS
        assert all(0.0 <= d <= 0.5 for d in grid)
        assert all(float(f"{d:.12g}") == d for d in grid)  # CSV reads d back exactly
    fixed = {bi.THIRD, *bi.DEFAULT_GRID_INTERIOR}
    for block in bi.operator_route_ops(3, 3):
        assert len(block) == 3 * (len(fixed) + bi.OPERATOR_STRATA)
        assert [k for k, _ in block] == [3, 4, 5] * (len(block) // 3)
        ds = [d for _, d in block[::3]]
        assert fixed <= set(ds)
        drawn = [d for d in ds if d not in fixed]
        assert len(drawn) == bi.OPERATOR_STRATA
        assert all(0.0 < d < bi.OPERATOR_D_MAX for d in drawn)
    ops = bi.mc_oracle_ops(3, 96)
    assert {t for kind, t, _, _ in ops if kind == "region"} == set(bi.MC_REGIONS)
    for kind, target, d, _ in ops:
        k = int(target) if kind == "ck" else bi.region_order(target)
        assert bi.MC_D_MIN <= d < bi.mc_d_max(k)


def test_stratified_draws_cover_every_stratum():
    v = np.array(bi.stratified(np.random.default_rng(0), 16, 0.0, 1.0, block=8))
    for block in (v[:8], v[8:]):
        assert sorted(np.floor(block * 8).astype(int)) == list(range(8))


def test_percentile_keeps_ten_samples_beyond():
    assert bs.min_samples(90, 10) == 100
    values = list(range(1, 101))
    assert bs.percentile(values, 90) == 90
    assert bs.samples_beyond(values, 90) == 10
    assert bs.samples_beyond(values[:99], 90) == 9
    assert bs.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        bs.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # A [0,100] holds B [10,40] and D [50,60]; B holds C [20,30].
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    parent = [-1, 0, 1, 0]
    assert list(bs.self_times(start, end, parent)) == [60, 20, 10, 10]


def test_centered_mean_cuts_the_window_at_the_ends():
    assert bs.centered_mean([1.0, 2.0, 3.0, 4.0, 5.0], 1) == [1.5, 2.0, 3.0, 4.0, 4.5]
    assert bs.centered_mean([2.0], 2) == [2.0]


def test_failures_count_against_attempts():
    t = bs.Tally()
    t.record(True)
    t.record(False, "raised")
    t.record(False, "check failed")
    t.record(True)
    assert (t.attempted, t.failed, t.succeeded) == (4, 2, 2)
    assert t.failures == ["raised", "check failed"]


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bi.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
