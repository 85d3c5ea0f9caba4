"""`tools/bench_snapshot.py pairs` and `run` on a throwaway repository, with a stubbed runner.

The runner is the one part replaced: the parent is unpacked from git
archive and removed, both trees are compiled, and the verdicts are
computed and written as they are for a real benchmark.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_snapshot  # noqa: E402


def git(root, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=root, check=True, capture_output=True, text=True).stdout


@pytest.fixture
def repo(tmp_path):
    # two commits: the parent's package says version 1, the change's version 2
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": [
        {"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]}))
    (root / "src" / "version.py").write_text("VERSION = 1\n")
    git(root, "init", "-q")
    git(root, "add", ".")
    git(root, "commit", "-q", "-m", "parent")
    (root / "src" / "version.py").write_text("VERSION = 2\n")
    git(root, "commit", "-q", "-am", "change")
    return root


def test_pairs_alternate_the_sides_and_write_their_verdicts(repo, tmp_path, monkeypatch, capsys):
    calls = []

    def measure(tree, item, seed, seconds):
        side = "change" if "2" in (tree / "src" / "version.py").read_text() else "parent"
        calls.append((side, item))
        assert seconds == 3  # the run length BENCHMARK.json gives
        if item == "closed_table":  # the change is 10% faster in every pair, p50 the same
            return {"ops_per_s": (110.0 if side == "change" else 100.0) + len(calls) / 100,
                    "op_p50_ms": 2.0}
        return {"wall_s": 0.1}

    monkeypatch.setattr(bench_snapshot, "_measure", measure)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": []}))
    section = bench_snapshot.pairs("HEAD~1", 3, 4, ["closed_table"], out, root=repo)

    per_side = 1 + len(bench_snapshot.COMMANDS)
    assert [calls[i][0] for i in range(0, len(calls), per_side)] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    verdicts = {(m["item"], m["metric"]): (m["won"], m["verdict"]) for m in section["metrics"]}
    assert verdicts["closed_table", "ops_per_s"] == (4, "better")
    assert verdicts["closed_table", "op_p50_ms"] == (0, "no clear change")
    assert verdicts["rosenblatt table", "wall_s"] == (0, "no clear change")
    assert section["parent"] == git(repo, "rev-parse", "HEAD~1").strip()
    assert section["change"] == git(repo, "rev-parse", "HEAD").strip()
    assert json.loads(out.read_text()) == {"runs": [], "pairs": section}
    # no worktree was added, the temporary directory is gone, and the change's tree was compiled
    assert git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert not list((tmp_path / "tmp").iterdir())
    assert list((repo / "src" / "__pycache__").glob("version.*.pyc"))

    # compare prints the verdict beside the single-run figure; its flag and status stay
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    runs = [{"workload": "closed_table", "trace": 0,
             "result": {"metrics": {"ops_per_s": {"value": 100.0}}}}]
    old.write_text(json.dumps({"runs": runs}))
    runs[0]["result"]["metrics"]["ops_per_s"]["value"] = 110.0
    new.write_text(json.dumps({"runs": runs, "pairs": section}))
    capsys.readouterr()
    assert bench_snapshot.compare(old, new) == 0
    assert "pairs: won 4/4, median +10.0%: better" in capsys.readouterr().out


def stub_run(monkeypatch) -> list:
    """run with perfbench and the command timings stubbed, so no benchmark or tier-1 process
    starts: the list of perfbench's (workload, trace, seconds) calls."""
    calls = []

    def perfbench(tree, workload, seed, seconds, trace):
        calls.append((workload, trace, seconds))
        work = tree / "perfbench" / ".work"
        work.mkdir(parents=True, exist_ok=True)
        (work / f"run-{workload}-seed{seed}-trace0.json").write_text('{"wall_clock": {"ops": 1}}')
        return 1.0, ["perfbench/run.py"], {"seed": seed}, {"metrics": {"ops_per_s": {"value": 1}}}

    monkeypatch.setattr(bench_snapshot, "_perfbench", perfbench)
    monkeypatch.setattr(bench_snapshot, "time_commands", lambda: ([], {"wall_s": 0.0}))
    return calls


def test_run_takes_its_run_length_from_the_benchmark(repo, tmp_path, monkeypatch):
    calls = stub_run(monkeypatch)
    out = tmp_path / "BENCH.json"
    assert bench_snapshot.run(out, 5, root=repo) == 0
    assert calls == [(w, trace, 3) for w in bench_snapshot.WORKLOADS for trace in (0, 1)]
    data = json.loads(out.read_text())
    assert data["seconds"] == 3 and data["commit"] == git(repo, "rev-parse", "HEAD").strip()
    assert [r.get("wall_clock") for r in data["runs"]] == [{"ops": 1}, None] * 3


def test_run_marks_a_dirty_tree_in_its_commit(repo, tmp_path, monkeypatch):
    # an uncommitted edit: the file names HEAD with -dirty, as pairs names its change side
    stub_run(monkeypatch)
    (repo / "src" / "version.py").write_text("VERSION = 3\n")
    out = tmp_path / "BENCH.json"
    assert bench_snapshot.run(out, 5, root=repo) == 0
    head = git(repo, "rev-parse", "HEAD").strip()
    assert json.loads(out.read_text())["commit"] == f"{head}-dirty"


def test_run_keeps_the_pairs_section_its_file_holds(repo, tmp_path, monkeypatch):
    # pairs --out first, run on the same file after: one file with both sections
    stub_run(monkeypatch)
    out = tmp_path / "BENCH.json"
    section = {"parent": "abc", "n": 10, "metrics": []}
    out.write_text(json.dumps({"pairs": section}))
    assert bench_snapshot.run(out, 5, root=repo) == 0
    data = json.loads(out.read_text())
    assert data["pairs"] == section and len(data["runs"]) == 2 * len(bench_snapshot.WORKLOADS)


def test_compare_names_a_file_without_runs(tmp_path, capsys):
    # a file that pairs --out started holds only its pairs section
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"runs": []}))
    new.write_text(json.dumps({"pairs": {"n": 10, "metrics": []}}))
    assert bench_snapshot.compare(old, new) == 2
    assert str(new) in capsys.readouterr().err
