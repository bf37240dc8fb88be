"""Time two checkouts of this repository against each other in one process:

    python tests/ab_time.py PARENT CHANGE --workload W --command train|evaluate|deploy
        [--rounds N] [--seed S]

Each checkout's src/robustcast is copied into a temporary directory under a
package name of its own (rc_parent, rc_change), so both trees import side
by side in this process; every import inside the package must be relative,
and the script stops with an error naming the line of an absolute
`robustcast` import. One BLAS thread is set before numpy loads.

A command runs the workload perfbench/workloads/W.json of CHANGE at the seed
(default 1) with --jobs 1, each side writing its own out_dir:
- train: `robustcast train`, timed in every round;
- evaluate: one untimed train, then `robustcast evaluate` timed in every
  round;
- deploy: one untimed train, then every round serves DEPLOY_ROWS seeded
  rows, each at a seeded pattern, through predict_deployed on a fresh copy
  of the first learned artifact (*learned_h*.json) twice; the time is the
  median call of the second pass, whose plans are all cached.

Rounds alternate which side runs first. The script prints each side's
median and quartiles, the change's median relative to the parent's, and in
how many rounds the change was faster. It then compares the two out_dirs
file by file (after the last round, so an evaluate run compares its
evaluate outputs too) and, for deploy, the forecasts bit for bit, and exits
1 if anything differs. Timing both trees in one process leaves out what a
comparison of two checkouts carries besides the code: the paths, the
environment and the allocator state of separate processes. Standard library
and numpy only.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

DEPLOY_ROWS = 2000
ABSOLUTE_IMPORT = re.compile(r"^[ \t]*(from|import)[ \t]+robustcast\b", re.MULTILINE)


def load_tree(checkout: Path, name: str, into: Path):
    """The package `name`: checkout's src/robustcast copied into `into`."""
    src = checkout / "src" / "robustcast"
    for path in sorted(src.glob("*.py")):
        match = ABSOLUTE_IMPORT.search(path.read_text(encoding="utf-8"))
        if match:
            line = path.read_text(encoding="utf-8").count("\n", 0, match.start()) + 1
            sys.exit(f"{path}:{line}: an absolute robustcast import; a copy under another "
                     "name would import the installed package instead")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


class Side:
    """One checkout's package, its out_dir and its timings."""

    def __init__(self, label: str, pkg, work: Path, config: Path, seed: int):
        self.label, self.times = label, []
        self.out = work / f"out_{label}"
        self.cli = importlib.import_module(f"{pkg.__name__}.cli")
        self.partition = importlib.import_module(f"{pkg.__name__}.partition")
        self.args = ["--config", str(config), "--seed", str(seed), "--out", str(self.out)]
        self.part = self.forecasts = None

    def run(self, command: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([command, *self.args, "--jobs", "1"])
        if code != 0:
            sys.exit(f"{self.label}: `{command}` exited {code}")

    def learned(self):
        path = sorted(self.out.glob("*learned_h*.json"))[0]
        return self.partition.load_artifact(path)


def deploy_case(part, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """DEPLOY_ROWS rows and patterns, each maskable bit missing w.p. 0.3."""
    rng = np.random.default_rng(seed)
    arch = part.arch
    X = rng.uniform(-1.0, 1.0, (DEPLOY_ROWS, arch.input_dim))
    bits = np.zeros((DEPLOY_ROWS, arch.input_dim), dtype=np.uint8)
    bits[:, list(arch.maskable)] = rng.random((DEPLOY_ROWS, len(arch.maskable))) < 0.3
    return X, bits


def time_round(side: Side, command: str, case) -> float:
    gc.collect()
    if command != "deploy":
        start = time.perf_counter()
        side.run(command)
        return time.perf_counter() - start
    part = dataclasses.replace(side.part)  # an empty plan cache
    X, bits = case
    for _ in range(2):
        out = np.empty(len(X))
        calls = []
        for i in range(len(X)):
            start = time.perf_counter_ns()
            out[i] = side.partition.predict_deployed(part, X[i], bits[i])
            calls.append(time.perf_counter_ns() - start)
    side.forecasts = out
    return statistics.median(calls) / 1e3


def differing_files(a: Path, b: Path) -> list[str]:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    return [str(n) for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


def main() -> int:
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
        sys.path.insert(0, str(work))
        sides = [Side(label, load_tree(checkout.resolve(), f"rc_{label}", work), work, config,
                      args.seed)
                 for label, checkout in (("parent", args.parent), ("change", args.change))]
        case = None
        if args.command != "train":
            for side in sides:
                side.run("train")
        if args.command == "deploy":
            for side in sides:
                side.part = side.learned()
            case = deploy_case(sides[0].part, args.seed)
        for r in range(args.rounds):
            for side in (sides if r % 2 == 0 else sides[::-1]):
                side.times.append(time_round(side, args.command, case))

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
                parent.forecasts.tobytes() != change.forecasts.tobytes():
            differ.append("the deployed forecasts")
        for name in differ:
            print(f"differs: {name}")
        print(f"out_dirs {'differ' if differ else 'identical'}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
