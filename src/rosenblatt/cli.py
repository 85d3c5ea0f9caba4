"""Command-line front end: cumulant tables, cross-method verification,
Monte-Carlo oracle runs, and characteristic-function evaluation.

Report rows are emitted as CSV (columns order,d,value,method,
error_estimate,seed,n_samples, values at 12 significant digits) or as
JSON mirroring the report fields.  Exit codes: 0 success / all checks
pass, 1 computation or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import cumulants as cu
from . import oracle as orc
from . import specfun as sf
from . import thomae as th
from . import veillette_taqqu as vt

DEFAULT_GRID = tuple(round(0.05 * i, 2) for i in range(11))
VERIFY_GRID = (0.0, 0.1, 0.25, 0.4, 0.5)


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    d_grid: tuple[float, ...]
    orders: tuple[int, ...]
    method: str = "closed"
    mc_samples: int = 1_000_000
    seed: int = 12345
    output_format: str = "csv"
    output_path: str | None = None
    rel_tol: float | None = None
    theta_grid: tuple[float, ...] = ()
    region: str | None = None
    region3_variant: str = "corrected"
    workers: int | None = None

    def validate(self) -> None:
        if any(not (0.0 <= d <= 0.5) for d in self.d_grid):
            raise UsageError("every d must lie in [0, 0.5]")
        if any(k not in (2, 3, 4, 5) for k in self.orders):
            raise UsageError("orders must be drawn from {2, 3, 4, 5}")
        if self.method not in ("closed", "vt", "mc", "all"):
            raise UsageError(f"unknown method {self.method!r}")
        if self.mc_samples < 1:
            raise UsageError("--samples must be positive")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.output_format!r}")
        regions = sorted(s.name for s in orc.region_catalog())
        if self.region is not None and self.region not in regions:
            raise UsageError(f"unknown region {self.region!r}; choose from {regions}")

    @property
    def eval_config(self) -> sf.EvalConfig:
        if self.rel_tol is None:
            return sf.DEFAULT_CONFIG
        return sf.EvalConfig(rel_tol=self.rel_tol)


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"could not parse float list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"could not parse integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("order", "d", "value", "method", "error_estimate", "seed", "n_samples")


def _fmt(value) -> str:
    return f"{value:.12g}"


def write_reports(reports: list[cu.CumulantReport], fmt: str, stream) -> None:
    if fmt == "json":
        payload = [
            {
                "order": r.order,
                "d": r.d,
                "value": r.value,
                "method": r.method,
                "error_estimate": r.error_estimate,
                "diagnostics": r.diagnostics,
            }
            for r in reports
        ]
        json.dump(payload, stream, indent=2)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([
            r.order,
            _fmt(r.d),
            _fmt(r.value),
            r.method,
            _fmt(r.error_estimate),
            r.diagnostics.get("seed", ""),
            r.diagnostics.get("n_samples", ""),
        ])


def read_reports_csv(stream) -> list[cu.CumulantReport]:
    """Parse a table emitted by write_reports (the round-trip contract)."""
    rows = list(csv.reader(stream))
    if rows and tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    out = []
    for row in rows[1:]:
        diagnostics = {}
        if row[5]:
            diagnostics["seed"] = int(row[5])
        if row[6]:
            diagnostics["n_samples"] = int(row[6])
        out.append(cu.CumulantReport(
            int(row[0]), float(row[1]), float(row[2]), row[3], float(row[4]),
            diagnostics,
        ))
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _vt_report(k: int, d: float, cfg: RunConfig) -> cu.CumulantReport:
    abs_tol = vt.default_abs_tol(k)
    c_k = vt.c_k_via_operator(1, k - 1, d, abs_tol=abs_tol)
    # 100 tolerances: a stated bound, not the quadrature's own error estimate
    return cu.CumulantReport(
        k, d, cu.kappa_from_c(k, d, c_k), cu.METHOD_VT, cu.kappa_from_c(k, d, abs_tol * 100),
        {"quad_abs_tol": abs_tol},
    )


def _mc_report(k: int, d: float, cfg: RunConfig) -> cu.CumulantReport:
    est = orc.mc_ck(k, d, cfg.mc_samples, cfg.seed, workers=cfg.workers)
    return cu.CumulantReport(
        k, d, cu.kappa_from_c(k, d, est.mean), cu.METHOD_MC,
        cu.kappa_from_c(k, d, est.std_error),
        {"seed": est.seed, "n_samples": est.n_samples},
    )


def cmd_table(cfg: RunConfig, stream) -> int:
    methods = ("closed", "vt", "mc") if cfg.method == "all" else (cfg.method,)
    reports = []
    for k in sorted(cfg.orders):
        for d in sorted(cfg.d_grid):
            for m in methods:
                if m == "closed":
                    reports.append(cu.kappa(k, d, cfg.eval_config))
                elif m == "vt":
                    reports.append(_vt_report(k, d, cfg))
                else:
                    reports.append(_mc_report(k, d, cfg))
    write_reports(reports, cfg.output_format, stream)
    return 0


def cmd_oracle(cfg: RunConfig, stream) -> int:
    reports = []
    if cfg.region is not None:
        spec = next(s for s in orc.region_catalog() if s.name == cfg.region)
        for d in sorted(cfg.d_grid):
            est = orc.mc_region(spec, d, cfg.mc_samples, cfg.seed, workers=cfg.workers)
            reports.append(cu.CumulantReport(
                spec.k, d, est.mean, cu.METHOD_MC, est.std_error,
                {"seed": est.seed, "n_samples": est.n_samples, "region": spec.name},
            ))
    else:
        for k in sorted(cfg.orders):
            for d in sorted(cfg.d_grid):
                est = orc.mc_ck(k, d, cfg.mc_samples, cfg.seed, workers=cfg.workers)
                reports.append(cu.CumulantReport(
                    k, d, est.mean, cu.METHOD_MC, est.std_error,
                    {"seed": est.seed, "n_samples": est.n_samples},
                ))
    write_reports(reports, cfg.output_format, stream)
    return 0


def cmd_phi(cfg: RunConfig, stream) -> int:
    K = max(cfg.orders) if cfg.orders else 5
    thetas = cfg.theta_grid or tuple(np.linspace(-0.2, 0.2, 9))
    rows = []
    for d in sorted(cfg.d_grid):
        for theta in thetas:
            out = cu.characteristic_function(theta, d, K, cfg.eval_config)
            rows.append((d, theta, out.value.real, out.value.imag, out.diverged))
    if cfg.output_format == "json":
        json.dump(
            [
                {"d": d, "theta": t, "real": re, "imag": im, "diverged": flag}
                for d, t, re, im, flag in rows
            ],
            stream, indent=2,
        )
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("d", "theta", "real", "imag", "diverged"))
        for d, t, re, im, flag in rows:
            writer.writerow([_fmt(d), _fmt(t), _fmt(re), _fmt(im), int(flag)])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class _CheckLog:
    stream: object
    failures: int = 0

    def record(self, name: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        if not passed:
            self.failures += 1
        self.stream.write(f"{status} {name}: {detail}\n")


def _interior(grid) -> list[float]:
    return [d for d in grid if 0.0 < d < 0.5]


def cmd_verify(cfg: RunConfig, stream) -> int:
    log = _CheckLog(stream)
    orders = sorted(set(cfg.orders) & {2, 3, 4, 5}) or [2, 3, 4, 5]
    interior = _interior(cfg.d_grid) or ([] if cfg.method == "closed" else [0.25])

    # endpoint laws, pure closed forms (kappa_2 stays 1 everywhere)
    if 0.5 in cfg.d_grid or not _interior(cfg.d_grid):
        dev = max((abs(cu.kappa(k, 0.5).value) for k in orders if k >= 3), default=0.0)
        log.record("endpoint-kappa-at-half", dev == 0.0, f"max |kappa_k(0.5)| = {dev:g}")
    if 0.0 in cfg.d_grid:
        dev = max(
            abs(cu.kappa(k, 0.0).value - 2 ** (k - 1) * math.factorial(k - 1) * 2 ** (-k / 2))
            for k in orders
        )
        log.record("endpoint-kappa-at-zero", dev <= 1e-10, f"max deviation = {dev:.3g}")

    # region sums against the assembled totals
    dev4 = dev5 = 0.0
    for d in interior:
        dev4 = max(dev4, abs(
            8.0 * sum(cu.c4_region(i, d, cfg.eval_config) for i in (1, 2, 3))
            - cu.c4_closed(d, cfg.eval_config).value
        ))
        dev5 = max(dev5, abs(
            10.0 * sum(
                cu.c5_region(i, d, cfg.eval_config,
                             region3_variant=cfg.region3_variant)
                for i in range(1, 13)
            )
            - cu.c5_closed(d, cfg.eval_config).value
        ))
    if interior:
        log.record("region-sum-order-4", dev4 <= 1e-8, f"max |8*sum - c4| = {dev4:.3g}")
        log.record("region-sum-order-5", dev5 <= 1e-7, f"max |10*sum - c5| = {dev5:.3g}")

    # transformation value preservation and the two 4F3 decompositions
    rng = np.random.default_rng(cfg.seed)
    series_cfg = sf.EvalConfig(rel_tol=1e-10)
    dev = 0.0
    done = 0
    while done < 20:
        a, b, c = rng.uniform(0.2, 1.2, size=3)
        e = a + rng.uniform(0.6, 1.8)
        f = b + c + rng.uniform(0.6, 1.8)
        s = e + f - a - b - c
        derived = (f - a, e + f - b - c, e + f - a - c, e + f - a - b, s, a, e - b, e - c)
        if min(derived) < 0.35:  # keep transformed margins comfortably convergent
            continue
        form = th.ThomaeForm(sf.HypParams((a, b, c), (e, f)))
        ref = form.evaluate(series_cfg).value
        for op in (th.thomae_fixed_top, th.thomae_full):
            dev = max(dev, abs(op(form).evaluate(series_cfg).value - ref))
        done += 1
    log.record("thomae-value-preservation", dev <= 1e-9, f"max deviation = {dev:.3g}")

    dev = 0.0
    for d in np.arange(0.05, 0.50, 0.05):
        p4 = sf.HypParams((2 * d - 1, 2 - 2 * d, 1.0, d), (2 * d, 3 - 2 * d, 2 - d))
        (w1, f1), (w2, f2) = th.split_4f3_contiguous(p4)
        va = w1 * sf.pfq_at_1(f1).value + w2 * sf.pfq_at_1(f2).value
        vb = sum(w * sf.pfq_at_1(f).value for w, f in th.split_4f3_alternative(float(d)))
        dev = max(dev, abs(va - vb))
    log.record("4f3-decompositions-agree", dev <= 1e-8, f"max deviation = {dev:.3g}")

    # closed vs operator route
    if cfg.method in ("vt", "all"):
        dev_by_k = {}
        for d in interior:
            for k in orders:
                ck = vt.c_k_via_operator(1, k - 1, d)
                dev = abs(ck - cu.c_closed(k, d, cfg.eval_config).value)
                dev_by_k[k] = max(dev_by_k.get(k, 0.0), dev)
        for k, dev in sorted(dev_by_k.items()):
            tol = 1e-4 if k == 5 else 1e-5
            log.record(f"closed-vs-operator-k{k}", dev <= tol, f"max |diff| = {dev:.3g}")

    # closed vs Monte-Carlo, 3 sigma gates
    if cfg.method in ("mc", "all"):
        for k in orders:
            worst = 0.0
            for d in interior:
                est = orc.mc_ck(k, d, cfg.mc_samples, cfg.seed, workers=cfg.workers)
                truth = cu.c_closed(k, d, cfg.eval_config).value
                sigma_dev = abs(est.mean - truth) / max(est.std_error, 1e-300)
                worst = max(worst, sigma_dev)
            log.record(f"closed-vs-mc-k{k}", worst <= 3.0, f"max deviation = {worst:.2f} sigma")
        # the order-5 region-3 reading, decided by the oracle
        spec = next(s for s in orc.region_catalog() if s.name == "c5-3")
        d = interior[0] if interior else 0.25
        est = orc.mc_region(spec, d, cfg.mc_samples, cfg.seed, workers=cfg.workers)
        truth = cu.c5_region(3, d, cfg.eval_config, region3_variant=cfg.region3_variant)
        sigma_dev = abs(est.mean - truth) / max(est.std_error, 1e-300)
        log.record("region3-order5-reading", sigma_dev <= 3.0,
                   f"deviation = {sigma_dev:.2f} sigma (variant {cfg.region3_variant})")

    stream.write(f"{'OK' if log.failures == 0 else 'FAILED'}: "
                 f"{log.failures} failing check(s)\n")
    return 0 if log.failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenblatt",
        description="Cumulants of the Rosenblatt distribution: closed forms, "
                    "operator-recursion and Monte-Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table", "emit cumulant values over a d-grid"),
        ("verify", "run the cross-method verification checks"),
        ("oracle", "run Monte-Carlo estimates of the defining integrals"),
        ("phi", "evaluate the truncated characteristic function"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d-grid", default=None,
                       help="comma-separated d values in [0, 0.5]")
        p.add_argument("--orders", default=None,
                       help="comma-separated cumulant orders from {2,3,4,5}")
        p.add_argument("--out", dest="output_path", default=None,
                       help="output path (default stdout)")
        # each subcommand registers only the flags it reads
        if name in ("table", "verify"):
            p.add_argument("--method", default="closed" if name == "table" else "all",
                           choices=("closed", "vt", "mc", "all"))
        if name != "phi":
            p.add_argument("--samples", dest="mc_samples", type=int, default=1_000_000,
                           help="Monte-Carlo sample count")
            p.add_argument("--seed", type=int, default=12345)
            p.add_argument("--workers", type=int, default=None)
        if name != "verify":
            p.add_argument("--format", dest="output_format", default="csv",
                           choices=("csv", "json"))
        if name != "oracle":
            p.add_argument("--tol", dest="rel_tol", type=float, default=None,
                           help="series relative tolerance override")
        if name == "phi":
            p.add_argument("--theta-grid", default=None,
                           help="comma-separated theta values")
        if name == "oracle":
            p.add_argument("--region", default=None,
                           help="estimate one named simplex region (e.g. c5-3)")
        if name == "verify":
            p.add_argument("--region3-variant", default="corrected",
                           choices=("corrected", "printed"))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the parsed flags; a flag the subcommand lacks keeps its default."""
    options = dict(vars(args))
    d_grid, orders = options.pop("d_grid"), options.pop("orders")
    if d_grid is None:
        grid = VERIFY_GRID if args.command == "verify" else DEFAULT_GRID
    else:
        grid = _parse_floats(d_grid)
    if orders is None:
        orders = (2, 3, 4, 5) if args.command in ("verify", "phi") else (3, 4, 5)
    else:
        orders = _parse_ints(orders)
    theta_grid = _parse_floats(options.pop("theta_grid", None) or "")
    cfg = RunConfig(d_grid=grid, orders=orders, theta_grid=theta_grid, **options)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help, with argparse's exit code
        return exc.code
    try:
        cfg = config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = {
        "table": cmd_table,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "phi": cmd_phi,
    }[cfg.command]
    buffer = io.StringIO()
    try:
        code = runner(cfg, buffer)
    except (sf.SpecialFunctionError, ValueError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    text = buffer.getvalue()
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
