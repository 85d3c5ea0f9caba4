"""The names the traced benchmark wraps must exist where it looks them up.

`perfbench` replaces module attributes (such as `cumulants.kappa` or
`veillette_taqqu.g3`) by span-recording wrappers.  Attaching every
workload's instrumentation here fails at once when a name it wraps is
deleted or renamed; no benchmark operation is run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from rosenblatt import cumulants as cu  # noqa: E402
from rosenblatt import veillette_taqqu as vt  # noqa: E402


@pytest.mark.parametrize("name", ["closed_table", "operator_route", "mc_oracle"])
def test_workload_instrumentation_attaches_and_restores(name, tmp_path):
    wl = bench_workloads.build(name, str(tmp_path))
    tracer = bench_trace.Tracer()
    try:
        wl.instrument(tracer)
        assert tracer._patches
        for module, attr, original in tracer._patches:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    assert not tracer._patches


@pytest.mark.parametrize("order,x", [(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5),
                                     (4, np.array([0.1, 0.5, 0.9]))],
                         ids=["order1", "order2", "order3", "order4", "order4-array"])
def test_g_function_evaluations_reach_the_g_eval_span(order, x, tmp_path):
    # g_function must look g1..g4_closed up at call time, where the wrapper
    # sits; a node array is one evaluation
    tracer = bench_trace.Tracer()
    try:
        bench_workloads.build("operator_route", str(tmp_path)).instrument(tracer)
        with tracer.operation("probe"):
            vt.g_function(order, 0.25)(x)
    finally:
        tracer.restore()
    assert tracer.summary()["veillette_taqqu.g_eval"]["calls"] == 1


def test_closed_path_reaches_the_thomae_and_series_spans(tmp_path):
    # a closed path that bypassed the wrapped names would report 0 for these layers
    tracer = bench_trace.Tracer()
    try:
        bench_workloads.build("closed_table", str(tmp_path)).instrument(tracer)
        with tracer.operation("probe"):
            cu.kappa(5, 0.3)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["thomae.eval_3f2_optimized"]["calls"] > 0
    assert summary["specfun.pfq_at_1"]["calls"] > 0


def test_g4_at_a_fresh_d_reaches_the_table_spans(tmp_path):
    # G_4 at a new d builds four tables, the _G2_FAMILY one and then its weighted table's
    # three parts as one batch, and makes three engine calls: the start sums of each batch
    # and the evaluation
    tracer = bench_trace.Tracer()
    vt._family_table.cache_clear()
    try:
        bench_workloads.build("operator_route", str(tmp_path)).instrument(tracer)
        with tracer.operation("probe"):
            vt.g4_closed(0.5, 0.2371)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["veillette_taqqu.e_table_build"]["calls"] == 4
    assert summary["veillette_taqqu.series_dot"]["calls"] == 3
