"""Command-line front end: cumulant tables, cross-method verification,
Monte-Carlo oracle runs, and characteristic-function evaluation.

argparse is the only configuration layer: each flag's type converts
and checks its value, and the subcommands read the parsed namespace.
Report rows are emitted as CSV (columns order,d,value,method,
error_estimate,seed,n_samples, values at 12 significant digits, d too
unless they miss its float) or as JSON mirroring the report fields.
Exit codes: 0 success / all checks pass, 1 computation or verification
failure, 2 usage error (argparse's).
An operator or Monte-Carlo row that cannot be computed fails alone: table
leaves it out with a stderr line, verify fails that row's check.
"""

from __future__ import annotations

import argparse
import csv
import math
import io
import json
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cumulants as cu
from . import oracle as orc
from . import specfun as sf
from . import thomae as th
from . import veillette_taqqu as vt
from .quadrature import QuadratureError

DEFAULT_GRID = tuple(round(0.05 * i, 2) for i in range(11))
VERIFY_GRID = (0.0, 0.1, 0.25, 0.4, 0.5)
ORACLE_GRID = DEFAULT_GRID[:-1]  # the oracle's domain is [0, 0.5): c_k diverges at 0.5
# what a computation raises for inputs it cannot serve; fails one row, or the command
_COMPUTATION_ERRORS = (sf.SpecialFunctionError, QuadratureError, ValueError, ArithmeticError)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("order", "d", "value", "method", "error_estimate", "seed", "n_samples")


def _fmt(value) -> str:
    return f"{value:.12g}"


def _fmt_d(d) -> str:  # 12 digits where they read back to the same float, in full otherwise
    return _fmt(d) if float(_fmt(d)) == d else repr(float(d))


def _emit(records: list[dict], fmt: str, stream, header, row) -> None:
    """records as indented JSON, or as CSV: the header, then row(record) for each."""
    if fmt == "json":
        json.dump(records, stream, indent=2)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(row(r) for r in records)


def _report_row(r: dict) -> list:
    return [r["order"], _fmt_d(r["d"]), _fmt(r["value"]), r["method"], _fmt(r["error_estimate"]),
            r["diagnostics"].get("seed", ""), r["diagnostics"].get("n_samples", "")]


def write_reports(reports: list[cu.CumulantReport], fmt: str, stream) -> None:
    records = [{"order": r.order, "d": r.d, "value": r.value, "method": r.method,
                "error_estimate": r.error_estimate, "diagnostics": r.diagnostics}
               for r in reports]
    _emit(records, fmt, stream, CSV_COLUMNS, _report_row)


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

def _pairing(k: int) -> tuple[int, int]:
    """The operator route's balanced pairing (mu, nu) of c_k = int_0^1 G_mu G_nu.

    For k <= 5 it never needs G_4, the route's slowest and least accurate
    factor, whose closed-form assembly poles near d = 1/3.
    """
    return k // 2, k - k // 2


def _vt_report(k: int, d: float) -> cu.CumulantReport:
    abs_tol = vt.default_abs_tol(k)
    c_k = vt.c_k_via_operator(*_pairing(k), d)
    # 100 tolerances: a stated bound, not the quadrature's own error estimate
    return cu.CumulantReport(
        k, d, cu.kappa_from_c(k, d, c_k), cu.METHOD_VT, cu.kappa_from_c(k, d, abs_tol * 100),
        {"quad_abs_tol": abs_tol, "pairing": list(_pairing(k))},
    )


def _mc_report(k: int, d: float, args: argparse.Namespace) -> cu.CumulantReport:
    est = orc.mc_ck(k, d, args.mc_samples, args.seed, workers=args.workers)
    return cu.CumulantReport(
        k, d, cu.kappa_from_c(k, d, est.mean), cu.METHOD_MC,
        cu.kappa_from_c(k, d, est.std_error),
        {"seed": est.seed, "n_samples": est.n_samples},
    )


def cmd_table(args: argparse.Namespace, stream) -> int:
    methods = ("closed", "vt", "mc") if args.method == "all" else (args.method,)
    # sigma vanishes at d = 0.5, where only the closed form's limit is defined
    closed_grid = args.d_grid if "closed" in methods else [d for d in args.d_grid if d == 0.5]
    closed = {(r.order, r.d): r for r in cu.cumulant_table(closed_grid, args.orders)}
    reports = []
    failed = 0
    for k in sorted(args.orders):
        for d in sorted(args.d_grid):
            for m in methods if d < 0.5 else ("closed",):
                if m == "closed":
                    reports.append(closed[k, d])
                    continue
                # a vt or mc row that raises is left out, with its reason on stderr
                try:
                    reports.append(_vt_report(k, d) if m == "vt" else _mc_report(k, d, args))
                except _COMPUTATION_ERRORS as exc:
                    failed += 1
                    print(f"row failed: order {k}, d={d}, method {m}: {exc}", file=sys.stderr)
    write_reports(reports, args.output_format, stream)
    if failed:
        print(f"computation failed: {failed} of {failed + len(reports)} rows",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace, stream) -> int:
    if args.region is None:
        targets = [(k, partial(orc.mc_ck, k), {}) for k in sorted(args.orders)]
    else:
        spec = next(s for s in orc.region_catalog() if s.name == args.region)
        targets = [(spec.k, partial(orc.mc_region, spec), {"region": spec.name})]
    reports = []
    for k, estimate, extra in targets:
        for d in sorted(args.d_grid):
            est = estimate(d, args.mc_samples, args.seed, workers=args.workers)
            reports.append(cu.CumulantReport(
                k, d, est.mean, cu.METHOD_MC, est.std_error,
                {"seed": est.seed, "n_samples": est.n_samples, **extra},
            ))
    write_reports(reports, args.output_format, stream)
    return 0


def cmd_phi(args: argparse.Namespace, stream) -> int:
    K = max(args.orders) if args.orders else 5
    thetas = args.theta_grid or tuple(np.linspace(-0.2, 0.2, 9))
    header = ("d", "theta", "real", "imag", "diverged")
    rows = []
    for d in sorted(args.d_grid):
        for theta in thetas:
            out = cu.characteristic_function(theta, d, K)
            rows.append(dict(zip(header, (d, theta, out.value.real, out.value.imag,
                                          out.diverged))))
    _emit(rows, args.output_format, stream, header,
          lambda r: [_fmt_d(r["d"]), _fmt(r["theta"]), _fmt(r["real"]), _fmt(r["imag"]),
                     int(r["diverged"])])
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


def cmd_verify(args: argparse.Namespace, stream) -> int:
    log = _CheckLog(stream)
    orders = sorted(set(args.orders)) or [2, 3, 4, 5]
    interior = _interior(args.d_grid) or ([] if args.method == "closed" else [0.25])

    # endpoint laws, pure closed forms (kappa_2 stays 1 everywhere)
    if 0.5 in args.d_grid or not _interior(args.d_grid):
        dev = max((abs(cu.kappa(k, 0.5).value) for k in orders if k >= 3), default=0.0)
        log.record("endpoint-kappa-at-half", dev == 0.0, f"max |kappa_k(0.5)| = {dev:g}")
    if 0.0 in args.d_grid:
        dev = max(
            abs(cu.kappa(k, 0.0).value - 2 ** (k - 1) * math.factorial(k - 1) * 2 ** (-k / 2))
            for k in orders
        )
        log.record("endpoint-kappa-at-zero", dev <= 1e-10, f"max deviation = {dev:.3g}")

    # region sums against the assembled totals
    dev4 = dev5 = 0.0
    for d in interior:
        dev4 = max(dev4, abs(
            8.0 * sum(cu.c4_region(i, d) for i in (1, 2, 3)) - cu.c4_closed(d).value
        ))
        dev5 = max(dev5, abs(
            10.0 * sum(cu.c5_region(i, d) for i in range(1, 13))
            - cu.c5_closed(d).value
        ))
    if interior:
        log.record("region-sum-order-4", dev4 <= 1e-8, f"max |8*sum - c4| = {dev4:.3g}")
        log.record("region-sum-order-5", dev5 <= 1e-7, f"max |10*sum - c5| = {dev5:.3g}")

    # transformation value preservation and the two 4F3 decompositions
    rng = np.random.default_rng(args.seed)
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
        ref = form.evaluate().value
        for op in (th.thomae_fixed_top, th.thomae_full):
            dev = max(dev, abs(op(form).evaluate().value - ref))
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
    if args.method in ("vt", "all"):
        dev_by_k, failed_by_k = {}, {}
        for d in interior:
            for k in orders:
                try:
                    ck = vt.c_k_via_operator(*_pairing(k), d)
                except _COMPUTATION_ERRORS as exc:
                    failed_by_k.setdefault(k, []).append(f"d={d} failed: {exc}")
                    continue
                dev = abs(ck - cu.c_closed(k, d).value)
                dev_by_k[k] = max(dev_by_k.get(k, 0.0), dev)
        for k in sorted(dev_by_k.keys() | failed_by_k.keys()):
            tol = 1e-4 if k == 5 else 1e-5
            dev = dev_by_k.get(k)
            failures = failed_by_k.get(k, [])
            detail = ([] if dev is None else [f"max |diff| = {dev:.3g}"]) + failures
            log.record(f"closed-vs-operator-k{k}", not failures and dev <= tol,
                       "; ".join(detail))

    # closed vs Monte-Carlo, 3 sigma gates
    if args.method in ("mc", "all"):
        for k in orders:
            worst = 0.0
            for d in interior:
                est = orc.mc_ck(k, d, args.mc_samples, args.seed, workers=args.workers)
                truth = cu.c_closed(k, d).value
                sigma_dev = abs(est.mean - truth) / max(est.std_error, 1e-300)
                worst = max(worst, sigma_dev)
            log.record(f"closed-vs-mc-k{k}", worst <= 3.0, f"max deviation = {worst:.2f} sigma")
        # the order-5 region-3 reading, decided by the oracle; the printed
        # reading's deviation is shown, not gated (small --samples may not resolve it)
        spec = next(s for s in orc.region_catalog() if s.name == "c5-3")
        d = interior[0] if interior else 0.25
        est = orc.mc_region(spec, d, args.mc_samples, args.seed, workers=args.workers)
        corrected, printed = (
            abs(est.mean - cu.c5_region(3, d, region3_variant=v)) / max(est.std_error, 1e-300)
            for v in ("corrected", "printed"))
        log.record("region3-order5-reading", corrected <= 3.0,
                   f"corrected {corrected:.2f} sigma, printed {printed:.2f} sigma")

    stream.write(f"{'OK' if log.failures == 0 else 'FAILED'}: "
                 f"{log.failures} failing check(s)\n")
    return 0 if log.failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _checked(cast, ok, what: str, *, many: bool = False):
    """An argparse type: cast one value, or with many a comma-separated list
    ("" gives ()), and reject it unless every value passes ok."""
    def convert(text: str):
        if many and not text.strip():
            return ()
        try:
            values = tuple(cast(v) for v in (text.split(",") if many else [text]))
        except ValueError:
            values = None
        if values is None or not all(ok(v) for v in values):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values if many else values[0]
    return convert


_D_LIST = _checked(float, lambda d: 0.0 <= d <= 0.5, "d values in [0, 0.5]", many=True)
_ORACLE_D_LIST = _checked(float, lambda d: 0.0 <= d < 0.5, "d values in [0, 0.5)", many=True)
_ORDER_LIST = _checked(int, lambda k: k in (2, 3, 4, 5), "orders from {2, 3, 4, 5}", many=True)
_FLOAT_LIST = _checked(float, lambda x: True, "comma-separated numbers", many=True)
_POSITIVE_INT = _checked(int, lambda n: n > 0, "a positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenblatt",
        description="Cumulants of the Rosenblatt distribution: closed forms, "
                    "operator-recursion and Monte-Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("table", cmd_table, "emit cumulant values over a d-grid"),
        ("verify", cmd_verify, "run the cross-method verification checks"),
        ("oracle", cmd_oracle, "run Monte-Carlo estimates of the defining integrals"),
        ("phi", cmd_phi, "evaluate the truncated characteristic function"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        grid = {"verify": VERIFY_GRID, "oracle": ORACLE_GRID}.get(name, DEFAULT_GRID)
        d_list, domain = (_ORACLE_D_LIST, "[0, 0.5)") if name == "oracle" else (_D_LIST, "[0, 0.5]")
        p.add_argument("--d-grid", type=d_list, default=grid,
                       help=f"comma-separated d values in {domain}")
        p.add_argument("--orders", type=_ORDER_LIST,
                       default=(2, 3, 4, 5) if name in ("verify", "phi") else (3, 4, 5),
                       help="comma-separated cumulant orders from {2,3,4,5}")
        p.add_argument("--out", dest="output_path", default=None,
                       help="output path (default stdout)")
        # each subcommand registers only the flags it reads
        if name in ("table", "verify"):
            p.add_argument("--method", default="closed" if name == "table" else "all",
                           choices=("closed", "vt", "mc", "all"))
        if name != "phi":
            p.add_argument("--samples", dest="mc_samples", type=_POSITIVE_INT,
                           default=1_000_000, help="Monte-Carlo sample count")
            p.add_argument("--seed", type=int, default=12345)
            p.add_argument("--workers", type=_POSITIVE_INT, default=None)
        if name != "verify":
            p.add_argument("--format", dest="output_format", default="csv",
                           choices=("csv", "json"))
        if name == "phi":
            p.add_argument("--theta-grid", type=_FLOAT_LIST, default=(),
                           help="comma-separated theta values")
        if name == "oracle":
            p.add_argument("--region", default=None, metavar="REGION",
                           choices=[s.name for s in orc.region_catalog()],
                           help="estimate one named simplex region (e.g. c5-3)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help, with argparse's exit code
        return exc.code
    buffer = io.StringIO()
    try:
        code = args.run(args, buffer)
    except _COMPUTATION_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    text = buffer.getvalue()
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
