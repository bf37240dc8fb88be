"""Compare what two checkouts of this repository write, byte for byte:

    python tests/compare_outputs.py PARENT CHANGE

Each checkout runs `train`, `evaluate` and `report` on the three
perfbench/workloads/*.json at seeds 1-3 with --jobs 1 and --jobs 2 (given
to train and evaluate, the commands that take it), and on
configs/paper-synthetic.json at seed 1 with --jobs 2 (57 commands). A
checkout runs its own src/robustcast, with one BLAS thread, in a fresh
temporary directory that holds copies of its configs, so every path the
commands see or print is relative. Prints every out_dir file and every
command output (exit code, stdout, stderr) that differs between the two
checkouts, with its differing lines, and exits 1 if there is any;
standard library only.
"""
from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("eval-grid", "lr-pipeline", "nn-train")


def runs() -> list[tuple[str, str, int, int]]:
    """(config path relative to a checkout, run name, seed, jobs) of each run."""
    found = [(f"perfbench/workloads/{name}.json", f"{name}-s{seed}-j{jobs}", seed, jobs)
             for name in WORKLOADS for seed in (1, 2, 3) for jobs in (1, 2)]
    return found + [("configs/paper-synthetic.json", "paper-synthetic-s1-j2", 1, 2)]


def run_checkout(checkout: Path, work: Path) -> dict[str, bytes]:
    """Every command output and out_dir file of one checkout's runs, by
    name: `<run>/<command>.{code,stdout,stderr}` and `<run>/out/<file>`."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    found: dict[str, bytes] = {}
    for config, name, seed, jobs in runs():
        (work / config).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(checkout / config, work / config)
        out = f"runs/{name}"
        for command in ("train", "evaluate", "report"):
            jobs_flag = [] if command == "report" else ["--jobs", str(jobs)]
            argv = [sys.executable, "-m", "robustcast", command, "--config", config,
                    "--seed", str(seed), *jobs_flag, "--out", out]
            done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            print(f"{checkout}: exit {done.returncode}: {' '.join(argv[3:])}", flush=True)
            found[f"{name}/{command}.code"] = str(done.returncode).encode()
            found[f"{name}/{command}.stdout"] = done.stdout
            found[f"{name}/{command}.stderr"] = done.stderr
        for path in sorted((work / out).rglob("*")):
            if path.is_file():
                found[f"{name}/out/{path.relative_to(work / out)}"] = path.read_bytes()
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for i, checkout in enumerate(map(Path, argv)):
            work = Path(tmp) / str(i)
            work.mkdir()
            outputs.append(run_checkout(checkout, work))
    parent, change = outputs
    differ = [key for key in sorted(set(parent) | set(change))
              if parent.get(key) != change.get(key)]
    for key in differ:
        sides = ["missing" if key not in side else f"{len(side[key])} bytes"
                 for side in (parent, change)]
        print(f"differs: {key} (parent {sides[0]}, change {sides[1]})")
        lines = [side.get(key, b"").decode("utf-8", "replace").splitlines()
                 for side in (parent, change)]
        for line in difflib.unified_diff(*lines, "parent", "change", n=0, lineterm=""):
            print(f"    {line}")
    print(f"{len(differ)} of {len(set(parent) | set(change))} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
