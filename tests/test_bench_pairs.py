"""`tools/bench_snapshot.py pairs` on a throwaway repository, with a stubbed runner.

The runner is the one part replaced: the parent is checked out with git
worktree add and removed, both trees are compiled, and the verdicts are
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
    # the worktree and its temporary directory are gone, and the change's tree was compiled
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
