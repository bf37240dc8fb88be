"""tests/ab_time.py times two trees, every round in a fresh process, and
compares what they write, and refuses a tree that a copy under another name
would not isolate."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tests" / "ab_time.py"


def ab_time(parent: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(parent), str(ROOT), *args],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_writes_identical_out_dirs_and_forecasts():
    done = ab_time(ROOT, "--workload", "lr-pipeline", "--command", "deploy", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["parent", "change"]
    assert "rounds" in lines[2]
    assert lines[-1] == "out_dirs identical"


def test_an_absolute_import_is_refused_with_its_line(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    util = tmp_path / "src" / "robustcast" / "_util.py"
    lines = util.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(3, "from robustcast import exceptions\n")
    util.write_text("".join(lines), encoding="utf-8")
    done = ab_time(tmp_path, "--workload", "lr-pipeline", "--command", "train", "--rounds", "2")
    assert done.returncode == 1
    assert f"{util}:4: an absolute robustcast import" in done.stderr


def test_every_round_runs_in_a_fresh_process(tmp_path):
    # the parent tree's cli records the id of each process that imports it
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pids = tmp_path / "pids.txt"
    cli = tmp_path / "src" / "robustcast" / "cli.py"
    lines = cli.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("from __future__")) + 1
    lines.insert(at, f"import os\nwith open({str(pids)!r}, 'a') as _f:\n"
                     "    _f.write(f'{os.getpid()}\\n')\n")
    cli.write_text("".join(lines), encoding="utf-8")
    done = ab_time(tmp_path, "--workload", "lr-pipeline", "--command", "train", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    assert len(set(pids.read_text(encoding="utf-8").split())) >= 2
