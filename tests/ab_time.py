"""Time two checkouts of this repository against each other, every round in
a fresh process:

    python tests/ab_time.py PARENT CHANGE --workload W --command train|evaluate|deploy
        [--rounds N] [--seed S]

Each checkout's src/robustcast is copied into one temporary directory under
a package name of its own (rc_parent, rc_change, names of equal length);
every import inside the package must be relative, and the script stops with
an error naming the line of an absolute `robustcast` import. Each side and
round runs in its own `sys.executable` child, which imports that side's
tree from the temporary directory, runs the command and reports its time,
so neither side's allocations warm the other's heap. One BLAS thread is set
before numpy loads.

A command runs the workload perfbench/workloads/W.json of CHANGE at the seed
(default 1) with --jobs 1, each side writing its own out_dir:
- train: `robustcast train`, timed in every round;
- evaluate: one untimed train, then `robustcast evaluate` timed in every
  round;
- deploy: one untimed train, then every round loads the first learned
  artifact (*learned_h*.json), so its plan cache starts empty, and serves
  DEPLOY_ROWS seeded rows, each at a seeded pattern, through
  predict_deployed twice; the time is the median call of the second pass,
  whose plans are all cached, and the child writes its forecasts.

Rounds alternate which side runs first. The script prints each side's
median and quartiles, the change's median relative to the parent's, and in
how many rounds the change was faster. It then compares the two out_dirs
file by file (after the last round, so an evaluate run compares its
evaluate outputs too) and, for deploy, the last round's forecasts bit for
bit, and exits 1 if anything differs. What a comparison of two checkouts
carries besides the code and the process, such as the environment, is left
out. Standard library and numpy only.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

DEPLOY_ROWS = 2000
ABSOLUTE_IMPORT = re.compile(r"^[ \t]*(from|import)[ \t]+robustcast\b", re.MULTILINE)
CHILD = "--child"


def copy_tree(checkout: Path, name: str, into: Path) -> None:
    """checkout's src/robustcast copied into `into` as the package `name`."""
    src = checkout / "src" / "robustcast"
    for path in sorted(src.glob("*.py")):
        match = ABSOLUTE_IMPORT.search(path.read_text(encoding="utf-8"))
        if match:
            line = path.read_text(encoding="utf-8").count("\n", 0, match.start()) + 1
            sys.exit(f"{path}:{line}: an absolute robustcast import; a copy under another "
                     "name would import the installed package instead")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))


class Side:
    """One checkout's package in the temporary directory, its out_dir, its
    forecasts file and its timings."""

    def __init__(self, label: str, work: Path, config: Path, seed: int):
        self.label, self.times = label, []
        self.out, self.forecasts = work / f"out_{label}", work / f"forecasts_{label}"
        self.child = [sys.executable, str(Path(__file__).resolve()), CHILD, str(work),
                      f"rc_{label}", str(config), str(seed), str(self.out), str(self.forecasts)]

    def run(self, command: str) -> float:
        """The time the command took in a fresh child process."""
        done = subprocess.run([*self.child, command], capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(done.stderr.strip() or f"{self.label}: `{command}` exited "
                     f"{done.returncode}")
        return float(done.stdout.split()[-1])


def deploy_case(part, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """DEPLOY_ROWS rows and patterns, each maskable bit missing w.p. 0.3."""
    rng = np.random.default_rng(seed)
    arch = part.arch
    X = rng.uniform(-1.0, 1.0, (DEPLOY_ROWS, arch.input_dim))
    bits = np.zeros((DEPLOY_ROWS, arch.input_dim), dtype=np.uint8)
    bits[:, list(arch.maskable)] = rng.random((DEPLOY_ROWS, len(arch.maskable))) < 0.3
    return X, bits


def child(work: str, name: str, config: str, seed: str, out: str, forecasts: str,
          command: str) -> int:
    """Run one side's command once and print its time: seconds for train and
    evaluate, microseconds per call for deploy."""
    sys.path.insert(0, work)
    cli = importlib.import_module(f"{name}.cli")
    partition = importlib.import_module(f"{name}.partition")
    if command != "deploy":
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", config, "--seed", seed, "--out", out,
                             "--jobs", "1"])
        elapsed = time.perf_counter() - start
        if code != 0:
            sys.exit(f"{name}: `{command}` exited {code}")
        print(elapsed)
        return 0
    part = partition.load_artifact(sorted(Path(out).glob("*learned_h*.json"))[0])
    X, bits = deploy_case(part, int(seed))
    for _ in range(2):
        preds = np.empty(len(X))
        calls = []
        for i in range(len(X)):
            start = time.perf_counter_ns()
            preds[i] = partition.predict_deployed(part, X[i], bits[i])
            calls.append(time.perf_counter_ns() - start)
    Path(forecasts).write_bytes(preds.tobytes())
    print(statistics.median(calls) / 1e3)
    return 0


def differing_files(a: Path, b: Path) -> list[str]:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    return [str(n) for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


def main() -> int:
    if sys.argv[1:2] == [CHILD]:
        return child(*sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--command", required=True, choices=("train", "evaluate", "deploy"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("quartiles need --rounds 2 or more")
    config = (args.change / "perfbench" / "workloads" / f"{args.workload}.json").resolve()
    with tempfile.TemporaryDirectory(prefix="ab_time_") as tmp:
        work = Path(tmp)
        sides = []
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            copy_tree(checkout.resolve(), f"rc_{label}", work)
            sides.append(Side(label, work, config, args.seed))
        if args.command != "train":
            for side in sides:
                side.run("train")
        for r in range(args.rounds):
            for side in (sides if r % 2 == 0 else sides[::-1]):
                side.times.append(side.run(args.command))

        unit = "us per call" if args.command == "deploy" else "s"
        for side in sides:
            q1, med, q3 = statistics.quantiles(side.times, n=4, method="inclusive")
            print(f"{side.label}: median {med:.6g} {unit} [{q1:.6g}, {q3:.6g}]")
        parent, change = sides
        wins = sum(c < p for p, c in zip(parent.times, change.times))
        ratio = statistics.median(change.times) / statistics.median(parent.times) - 1.0
        print(f"change vs parent: {ratio:+.1%}, change faster in {wins}/{args.rounds} rounds")

        differ = differing_files(parent.out, change.out)
        if args.command == "deploy" and \
                parent.forecasts.read_bytes() != change.forecasts.read_bytes():
            differ.append("the deployed forecasts")
        for name in differ:
            print(f"differs: {name}")
        print(f"out_dirs {'differ' if differ else 'identical'}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
