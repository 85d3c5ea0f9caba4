"""Black-box tests of the command-line interface."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rosenblatt
from rosenblatt import cli
from rosenblatt import cumulants as cu
from rosenblatt import specfun as sf
from rosenblatt import veillette_taqqu as vt
from rosenblatt.quadrature import QuadratureError
from reference_values import KAPPA_TABLES, matches_4_significant


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestTable:
    def test_default_grid_reproduces_order3_table(self, capsys):
        code, out = run_cli(capsys, "table", "--orders", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(cli.CSV_COLUMNS)
        assert len(rows) == 11
        for row, ref in zip(rows, KAPPA_TABLES[3]):
            assert matches_4_significant(float(row[2]), ref)

    def test_empty_grid(self, capsys):
        code, out = run_cli(capsys, "table", "--d-grid", "", "--orders", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows == []

    def test_fifth_cumulant_spot_value(self, capsys):
        code, out = run_cli(capsys, "table", "--orders", "5", "--d-grid", "0.25")
        _, rows = parse_csv(out)
        assert code == 0 and matches_4_significant(float(rows[0][2]), 48.51)

    def test_usage_error_exit_2(self, capsys):
        assert cli.main(["table", "--d-grid", "0.7"]) == 2

    def test_help_prints_and_returns_0(self, capsys):
        assert cli.main(["table", "--help"]) == 0
        assert "--d-grid" in capsys.readouterr().out

    def test_operator_rows_record_the_tolerance_used(self, capsys):
        code, out = run_cli(capsys, "table", "--method", "vt", "--orders", "3,5",
                            "--d-grid", "0.2", "--format", "json")
        assert code == 0
        for rec in json.loads(out):
            assert rec["diagnostics"]["quad_abs_tol"] == vt.default_abs_tol(rec["order"])

    def test_balanced_pairing_passes_the_g4_pole(self, capsys):
        d = "0.3333333333333333"
        code, out = run_cli(capsys, "table", "--method", "vt", "--orders", "5",
                            "--d-grid", d, "--format", "json")
        assert code == 0
        (rec,) = json.loads(out)
        assert rec["diagnostics"]["pairing"] == [2, 3]
        _, closed = parse_csv(run_cli(capsys, "table", "--orders", "5", "--d-grid", d)[1])
        assert rec["value"] == pytest.approx(float(closed[0][2]), rel=1e-10)

    def test_all_methods_on_the_default_grid(self, capsys):
        code, out = run_cli(capsys, "table", "--method", "all", "--samples", "20000")
        assert code == 0
        _, rows = parse_csv(out)
        # 3 orders x (10 interior-or-zero d x 3 methods + the closed-form row at d = 0.5)
        assert len(rows) == 93
        assert [r[3] for r in rows if r[1] == "0.5"] == ["closed-form"] * 3

    def test_json_mirrors_report_fields(self, capsys):
        code, out = run_cli(capsys, "table", "--orders", "4", "--d-grid", "0.3",
                            "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(payload) == 1
        rec = payload[0]
        assert set(rec) == {"order", "d", "value", "method", "error_estimate", "diagnostics"}
        assert rec["method"] == "closed-form"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = cli.main(["table", "--orders", "3", "--d-grid", "0.2",
                         "--out", str(target)])
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert "\r" not in text  # LF endings
        _, rows = parse_csv(text)
        assert matches_4_significant(float(rows[0][2]), 2.548)

    def test_computation_failure_exit_1(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise sf.NonConvergenceError("series did not converge")

        monkeypatch.setattr(cu, "kappa", fail)
        code, out = run_cli(capsys, "table", "--orders", "3", "--d-grid", "0.2")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("d", ["1e-12", "1e-15"])
    def test_operator_rows_at_tiny_d_hold_their_stated_error(self, capsys, d):
        args = ("table", "--orders", "3,4,5", "--d-grid", d, "--format", "json")
        code, out = run_cli(capsys, *args, "--method", "vt")
        assert code == 0
        closed = json.loads(run_cli(capsys, *args)[1])
        for vt_row, closed_row in zip(json.loads(out), closed):
            assert abs(vt_row["value"] - closed_row["value"]) <= vt_row["error_estimate"]
            assert vt_row["value"] == pytest.approx(closed_row["value"], rel=1e-12)

    def test_operator_failure_below_rounding_of_the_pole(self, capsys):
        # at d = 1e-17 the E tables' beta = 2 - 2d rounds to the integer 2
        code = cli.main(["table", "--method", "vt", "--orders", "5", "--d-grid", "1e-17"])
        captured = capsys.readouterr()
        assert code == 1 and parse_csv(captured.out) == (list(cli.CSV_COLUMNS), [])
        assert captured.err.splitlines() == [
            "row failed: order 5, d=1e-17, method vt: E table pole: beta=2.0 is an integer",
            "computation failed: 1 of 1 rows"]

    def test_quadrature_failure_exit_1(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("tanh-sinh did not reach abs_tol=1e-08 within 9 refinements")

        monkeypatch.setattr(vt, "c_k_via_operator", fail)
        code = cli.main(["table", "--method", "vt", "--orders", "5", "--d-grid", "0.2",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and json.loads(captured.out) == []
        assert captured.err.splitlines() == [
            "row failed: order 5, d=0.2, method vt: "
            "tanh-sinh did not reach abs_tol=1e-08 within 9 refinements",
            "computation failed: 1 of 1 rows"]

    def test_one_failing_operator_row_leaves_the_others(self, capsys):
        # G_1^2 = (1-x)^(-2d)/(1-d) keeps more than 1e-10 of its mass below
        # tanh-sinh's t-cap from d ~ 0.485, so the k = 2 row at 0.49 fails
        code = cli.main(["table", "--method", "vt", "--orders", "2,3", "--d-grid", "0.3,0.49"])
        captured = capsys.readouterr()
        _, rows = parse_csv(captured.out)
        assert code == 1
        assert [(r[0], r[1], r[3]) for r in rows] == [
            ("2", "0.3", cu.METHOD_VT), ("3", "0.3", cu.METHOD_VT), ("3", "0.49", cu.METHOD_VT)]
        assert captured.err.splitlines() == [
            "row failed: order 2, d=0.49, method vt: "
            "tanh-sinh did not reach abs_tol=1e-10 within 9 refinements",
            "computation failed: 1 of 4 rows"]

    def test_one_failing_monte_carlo_row_leaves_the_closed_rows(self, capsys, monkeypatch):
        mc_ck = cli.orc.mc_ck

        def fail_at(k, d, *args, **kwargs):
            if d == 0.2:
                raise ValueError("no samples at d=0.2")
            return mc_ck(k, d, *args, **kwargs)

        monkeypatch.setattr(cli.orc, "mc_ck", fail_at)
        code = cli.main(["table", "--method", "all", "--orders", "3", "--d-grid", "0.1,0.2",
                         "--samples", "1000"])
        captured = capsys.readouterr()
        _, rows = parse_csv(captured.out)
        assert code == 1
        assert [(r[1], r[3]) for r in rows] == [
            ("0.1", cu.METHOD_CLOSED), ("0.1", cu.METHOD_VT), ("0.1", cu.METHOD_MC),
            ("0.2", cu.METHOD_CLOSED), ("0.2", cu.METHOD_VT)]
        assert captured.err.splitlines() == [
            "row failed: order 3, d=0.2, method mc: no samples at d=0.2",
            "computation failed: 1 of 6 rows"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_grid_output_equals_the_per_row_path(self, capsys, fmt):
        code, out = run_cli(capsys, "table", "--format", fmt)
        buffer = io.StringIO()
        cli.write_reports([cu.kappa(k, d) for k in (3, 4, 5) for d in cli.DEFAULT_GRID],
                          fmt, buffer)
        assert code == 0 and out == buffer.getvalue()

    def test_closed_rows_sum_every_series_in_one_engine_call(self, capsys, monkeypatch):
        # 11 interior d: five c_5 series each, c_4's being one of them, 55 sets in
        # one batch, one pass of the series engine and no per-row evaluation
        batches, engine = [], []
        batch, dot = cu._pfq_at_1_pairs, sf._series_dot
        monkeypatch.setattr(cu, "_pfq_at_1_pairs",
                            lambda sets: batches.append(len(sets)) or batch(sets))
        monkeypatch.setattr(sf, "_series_dot",
                            lambda *args, **kwargs: engine.append(args) or dot(*args, **kwargs))
        grid = ",".join(str(round(0.04 * i + 0.03, 2)) for i in range(11))
        code, out = run_cli(capsys, "table", "--orders", "3,4,5", "--d-grid", grid)
        assert code == 0 and len(parse_csv(out)[1]) == 33
        assert batches == [55] and len(engine) == 1

    def test_d_prints_as_computed(self, capsys):
        # 0.499999999999999 reads back as 0.5 from 12 digits, so it prints in full
        code, out = run_cli(capsys, "table", "--orders", "3", "--d-grid", "0.499999999999999,0.3")
        assert code == 0 and [row[1] for row in parse_csv(out)[1]] == ["0.3", "0.499999999999999"]
        code, out = run_cli(capsys, "phi", "--d-grid", "0.499999999999999", "--theta-grid", "0.5")
        assert code == 0 and parse_csv(out)[1][0][0] == "0.499999999999999"

    def test_default_grid_d_column_is_unchanged(self, capsys):
        # every default d reads back from 12 digits, so it keeps that form: 0, not 0.0
        code, out = run_cli(capsys, "table")
        grid = ["0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5"]
        assert code == 0 and [row[1] for row in parse_csv(out)[1]] == grid * 3

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(capsys, "table", "--orders", "3,4", "--d-grid", "0.1,0.3")
        reports = cli.read_reports_csv(io.StringIO(out))
        assert len(reports) == 4
        buffer = io.StringIO()
        cli.write_reports(reports, "csv", buffer)
        assert buffer.getvalue() == out  # stable at the printed 12-digit precision


class TestOracle:
    def test_exact_case(self, capsys):
        code, out = run_cli(capsys, "oracle", "--orders", "3", "--d-grid", "0",
                            "--samples", "100000", "--seed", "42")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == 1.0 and float(rows[0][4]) == 0.0
        assert rows[0][5] == "42" and rows[0][6] == "100000"

    def test_repeat_invocations_bit_identical(self, capsys):
        args = ("oracle", "--orders", "4", "--d-grid", "0.25",
                "--samples", "200000", "--seed", "1")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_named_region(self, capsys):
        code, out = run_cli(capsys, "oracle", "--region", "c4-2", "--d-grid", "0.2",
                            "--samples", "100000", "--seed", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "4"

    def test_unknown_region(self, capsys):
        assert cli.main(["oracle", "--region", "c9-1", "--d-grid", "0.2"]) == 2

    def test_default_grid_stops_short_of_half(self, capsys):
        code, out = run_cli(capsys, "oracle", "--samples", "20000")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 30 and max(float(r[1]) for r in rows) == 0.45


@pytest.mark.parametrize("argv", [
    ("table", "--d-grid", "0.1,x"),
    ("table", "--d-grid", "-0.1"),
    ("table", "--orders", "6"),
    ("table", "--orders", "3,x"),
    ("phi", "--theta-grid", "x"),
    ("table", "--samples", "0"),
    ("table", "--workers", "0"),
    ("table", "--method", "bogus"),
    ("table", "--format", "xml"),
    ("oracle", "--region", "c9-1"),
    ("oracle", "--d-grid", "0.4,0.5"),  # c_k diverges at d = 0.5, outside the oracle's domain
])
def test_usage_errors_exit_2_and_write_nothing(capsys, tmp_path, argv):
    target = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert f"argument {argv[1]}:" in captured.err


@pytest.mark.parametrize("command", ["table", "verify", "phi"])
def test_tol_is_a_usage_error(capsys, command):
    # no subcommand reads a series tolerance: series sum to rounding level
    assert cli.main([command, "--tol", "1e-10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --tol" in captured.err


class TestPhi:
    def test_at_zero(self, capsys):
        code, out = run_cli(capsys, "phi", "--d-grid", "0.25", "--theta-grid", "0")
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == 0.0

    def test_conjugate_symmetric_grid(self, capsys):
        code, out = run_cli(capsys, "phi", "--d-grid", "0.25",
                            "--theta-grid=-0.1,0.1")
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), rel=1e-12)
        assert float(rows[0][3]) == pytest.approx(-float(rows[1][3]), rel=1e-12)

    def test_unflagged_near_origin(self, capsys):
        code, out = run_cli(capsys, "phi", "--d-grid", "0.25",
                            "--theta-grid", "0.05", "--orders", "5")
        _, rows = parse_csv(out)
        assert rows[0][4] == "0"

    def test_flag_phi_does_not_read_is_a_usage_error(self, capsys):
        assert cli.main(["phi", "--d-grid", "0.25", "--theta-grid", "0", "--seed", "1"]) == 2


class TestVerify:
    def test_endpoint_only_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--method", "closed", "--d-grid", "0.5")
        assert code == 0
        assert "PASS endpoint-kappa-at-half" in out

    def test_region3_check_passes_and_shows_the_printed_reading_off(self, capsys):
        code, out = run_cli(capsys, "verify", "--method", "mc", "--d-grid", "0.3",
                            "--samples", "150000")
        line = next(line for line in out.splitlines() if "region3-order5-reading" in line)
        corrected, printed = map(float, re.fullmatch(
            r"PASS region3-order5-reading: corrected (\S+) sigma, printed (\S+) sigma",
            line).groups())
        assert code == 0
        assert corrected <= 3.0 < printed

    def test_region3_variant_flag_is_a_usage_error(self, capsys):
        assert cli.main(["verify", "--method", "closed", "--region3-variant", "printed"]) == 2

    def test_full_method_run_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--d-grid", "0.0,0.25,0.5",
            "--samples", "150000",
        )
        assert code == 0
        assert out.strip().endswith("0 failing check(s)")

    def test_failing_operator_row_fails_its_check_only(self, capsys):
        code, out = run_cli(capsys, "verify", "--method", "vt", "--orders", "2,3",
                            "--d-grid", "0.3,0.49")
        lines = out.splitlines()
        assert code == 1
        k2 = next(line for line in lines if "closed-vs-operator-k2" in line)
        assert k2.startswith("FAIL closed-vs-operator-k2: max |diff| = ")
        assert k2.endswith("; d=0.49 failed: "
                           "tanh-sinh did not reach abs_tol=1e-10 within 9 refinements")
        # the other checks still run and pass
        passed = [line.split(":")[0] for line in lines if line.startswith("PASS ")]
        assert passed == ["PASS region-sum-order-4", "PASS region-sum-order-5",
                          "PASS thomae-value-preservation", "PASS 4f3-decompositions-agree",
                          "PASS closed-vs-operator-k3"]
        assert lines[-1] == "FAILED: 1 failing check(s)"

    def test_failing_region_sum_fails_its_check_only(self, capsys):
        # region 6 raises within 1e-13 of d = 0.5; the other checks still run
        code, out = run_cli(capsys, "verify", "--method", "closed",
                            "--d-grid", "0.499999999999999")
        lines = out.splitlines()
        assert code == 1
        assert lines[1] == ("FAIL region-sum-order-5: d=0.499999999999999 failed: "
                            "Gamma(2d-1) of region 6 is not cancelled at d=0.499999999999999")
        assert [line.split(":")[0] for line in lines if line.startswith("PASS ")] == [
            "PASS region-sum-order-4", "PASS thomae-value-preservation",
            "PASS 4f3-decompositions-agree"]
        assert lines[-1] == "FAILED: 1 failing check(s)"

    def test_console_script_entry(self):
        # the subprocess does not see pytest's pythonpath setting
        src = str(Path(rosenblatt.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "rosenblatt.cli", "table", "--orders", "3",
             "--d-grid", "0.25"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "2.34786577232" in proc.stdout
