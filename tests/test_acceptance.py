"""Acceptance suite: every criterion at its stated tolerance, full scale.

Each test prints one PASS line per criterion (visible under pytest -s);
a failed assertion marks the criterion red.  Monte-Carlo gates run at
fixed seeds so the whole suite is deterministic.
"""

import io
import time

import numpy as np
import pytest

from rosenblatt import cli
from rosenblatt import cumulants as cu
from rosenblatt import oracle as orc
from rosenblatt import specfun as sf
from rosenblatt import thomae as th
from rosenblatt import veillette_taqqu as vt
from reference_values import GRID, KAPPA_TABLES, matches_4_significant


def _closed_c(k: int, d: float) -> float:
    return {2: lambda: cu.c2_closed(d),
            3: lambda: cu.c3_closed(d),
            4: lambda: cu.c4_closed(d).value,
            5: lambda: cu.c5_closed(d).value}[k]()


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    for k, refs in KAPPA_TABLES.items():
        for d, ref in zip(GRID, refs):
            value = cu.kappa(k, d).value
            assert matches_4_significant(value, ref), (
                f"kappa_{k}({d}) = {value:.6g}, table says {ref}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"table reproduction took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: 33 table values at 4 significant figures "
          f"in {elapsed:.2f}s")


def test_criterion_2_endpoint_laws():
    for k in (3, 4, 5):
        assert cu.kappa(k, 0.5).value == 0.0
    assert cu.kappa(3, 0.0).value == pytest.approx(2.828, abs=0.001)
    assert cu.kappa(4, 0.0).value == pytest.approx(12.00, abs=0.005)
    assert cu.kappa(5, 0.0).value == pytest.approx(67.88, abs=0.01)
    print("\nPASS criterion 2: endpoint laws at both ends of the d range")


def test_criterion_3_oracle_agreement_defining_integral():
    start = time.perf_counter()
    n = 10_000_000
    worst = 0.0
    for k in (3, 4, 5):
        for d in (0.10, 0.25, 0.40):
            est = orc.mc_ck(k, d, n, seed=2024)
            dev = abs(est.mean - _closed_c(k, d)) / est.std_error
            worst = max(worst, dev)
            assert dev <= 3.0, f"c_{k}({d}): {dev:.2f} sigma at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle agreement took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: nine 10^7-sample gates, worst {worst:.2f} sigma, "
          f"{elapsed:.0f}s")


def test_criterion_4_per_region_agreement_and_typo_resolution():
    n = 10_000_000
    worst = 0.0
    for spec in orc.region_catalog():
        if spec.k == 3:
            continue
        i = int(spec.name.split("-")[1])
        for d in (0.15, 0.30):
            est = orc.mc_region(spec, d, n, seed=4096 + i)
            truth = (cu.c4_region(i, d) if spec.k == 4 else cu.c5_region(i, d))
            dev = abs(est.mean - truth) / est.std_error
            worst = max(worst, dev)
            assert dev <= 3.0, f"{spec.name} at d={d}: {dev:.2f} sigma"
            if spec.name == "c5-3":
                rejected = cu.c5_region(3, d, region3_variant="printed")
                bad_dev = abs(est.mean - rejected) / est.std_error
                assert bad_dev > 3.0, "the printed region-3 reading must fail"
    print(f"\nPASS criterion 4: 15 regions x 2 d-values within 3 sigma "
          f"(worst {worst:.2f}); exactly one region-3 reading survives")


def test_criterion_5_route_equivalence():
    for d in (0.1, 0.25, 0.4):
        for k in (2, 3, 4):
            mu, nu = (1, 1) if k == 2 else (1, k - 1)
            dev = abs(vt.c_k_via_operator(mu, nu, d) - _closed_c(k, d))
            assert dev <= 1e-5, f"c_{k}({d}) operator route off by {dev:.2e}"
        dev5 = abs(vt.c_k_via_operator(1, 4, d) - _closed_c(5, d))
        assert dev5 <= 1e-4, f"c_5({d}) operator route off by {dev5:.2e}"
    pairing = abs(vt.c_k_via_operator(2, 2, 0.25) - vt.c_k_via_operator(1, 3, 0.25))
    assert pairing <= 1e-5
    print("\nPASS criterion 5: operator route matches closed forms "
          "(k=2..5, three d values; both order-4 pairings)")


def test_criterion_6_operator_pointwise_consistency():
    xs = np.linspace(0.05, 0.95, 10)
    for d in (0.1, 0.25, 0.4):
        g1f = vt.g_function(1, d)
        g2f = vt.g_function(2, d)
        for x in xs:
            assert abs(vt.apply_kernel(g1f, d, float(x), abs_tol=1e-9)
                       - vt.g2(float(x), d)) <= 1e-6
            assert abs(vt.apply_kernel(g2f, d, float(x), abs_tol=1e-9)
                       - vt.g3(float(x), d)) <= 1e-6
    g3f = vt.g_function(3, 0.25)
    for x in np.linspace(0.15, 0.85, 5):
        assert abs(vt.apply_kernel(g3f, 0.25, float(x), abs_tol=1e-8)
                   - vt.g4_closed(float(x), 0.25)) <= 1e-6
    print("\nPASS criterion 6: kernel images match the closed G functions "
          "pointwise to 1e-6")


def _random_regular_form(rng, unit_gap=False):
    while True:
        a, b, c = rng.uniform(0.1, 1.4, size=3)
        e = a + 1.0 if unit_gap else a + rng.uniform(0.4, 2.0)
        f = b + c + rng.uniform(0.4, 2.0) if unit_gap else max(b, c) + rng.uniform(0.4, 2.0)
        s = e + f - a - b - c
        derived = (f - a, e + f - b - c, e + f - a - c, e + f - a - b, s, a,
                   e - b, e - c, abs(b - a), abs(1 - c), abs(b - c))
        if s < 0.35 or min(derived) < 0.3:
            continue
        return th.ThomaeForm(sf.HypParams((a, b, c), (e, f)))


def test_criterion_7_thomae_suite():
    rng = np.random.default_rng(777)
    cfg = sf.EvalConfig(rel_tol=1e-11)
    for _ in range(100):
        form = _random_regular_form(rng)
        ref = form.evaluate(cfg).value
        assert abs(th.thomae_fixed_top(form).evaluate(cfg).value - ref) <= 1e-9
        assert abs(th.thomae_full(form).evaluate(cfg).value - ref) <= 1e-9
        split_form = _random_regular_form(rng, unit_gap=True)
        ref = split_form.evaluate(cfg).value
        assert abs(th.thomae_split(split_form).evaluate(cfg).value - ref) <= 1e-9
    for d in np.arange(0.05, 0.50, 0.05):
        p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
        va = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
        vb = sum(w * sf.pfq_at_1(f).value for w, f in th.split_4f3_alternative(float(d)))
        assert abs(va - vb) <= 1e-8
    print("\nPASS criterion 7: 100 random forms preserved under all three "
          "relations; the two 4F3 decompositions agree on the nine-point grid")


def test_criterion_8_kernel_integral_closed_forms():
    from scipy.integrate import quad

    rng = np.random.default_rng(2718)
    for _ in range(10):
        d = rng.uniform(0.05, 0.45)
        x = rng.uniform(0.15, 0.85)
        e = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.1, 1.2)
        c = a + b + rng.uniform(0.5, 2.0)
        val = vt.kernel_hyp2f1_moment(a, b, c, e, d, x)

        def f(u):
            return abs(x - u) ** (-d) * u**e * sf.hyp_2f1(a, b, c, u)

        ref = (quad(f, 0, x, epsabs=1e-11, epsrel=1e-11, limit=300)[0]
               + quad(f, x, 1, epsabs=1e-11, epsrel=1e-11, limit=300)[0])
        assert abs(val - ref) <= 1e-7, f"moment integral off by {abs(val - ref):.2e}"
    for _ in range(10):
        d = rng.uniform(0.05, 0.45)
        x = rng.uniform(0.1, 0.9)
        p = int(rng.integers(0, 4))
        val = vt.kernel_one_minus_power(p, d, x)

        def g(u):
            return abs(x - u) ** (-d) * (1 - u) ** (p - (p + 1) * d)

        ref = (quad(g, 0, x, epsabs=1e-11, epsrel=1e-11, limit=300)[0]
               + quad(g, x, 1, epsabs=1e-11, epsrel=1e-11, limit=300)[0])
        assert abs(val - ref) <= 1e-7
    print("\nPASS criterion 8: both kernel integrals match split adaptive "
          "quadrature at 10 random points each")


def test_criterion_9_determinism_across_thread_counts():
    outputs = []
    for workers in ("1", "2", "4"):
        buffer = io.StringIO()
        args = cli.build_parser().parse_args([
            "oracle", "--orders", "4", "--d-grid", "0.25",
            "--samples", "2000000", "--seed", "31337", "--workers", workers,
        ])
        cli.cmd_oracle(args, buffer)
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]
    direct = [orc.mc_ck(5, 0.3, 1_500_000, seed=5, workers=w) for w in (1, 2, 4)]
    assert direct[0] == direct[1] == direct[2]
    print("\nPASS criterion 9: oracle output bit-identical across 1/2/4 workers")
