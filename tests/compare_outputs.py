"""Compare what two checkouts of this repository write, byte for byte:

    python tests/compare_outputs.py PARENT CHANGE

Each checkout runs `train`, `evaluate` and `report` on the three
perfbench/workloads/*.json at seeds 1-3 with --jobs 1 and --jobs 2 (given
to train and evaluate, the commands that take it), on
configs/paper-synthetic.json at seed 1 with --jobs 2, and on a small plain
run of all seven methods at seed 1 with --jobs 2 (60 commands); it runs
`train` alone on one small run without a grid block per partition.mode at
seed 1 with --jobs 2 (3 commands; `evaluate` needs a grid block); and it
runs `synth`, which writes the generated series as it is, on the three
workloads at seeds 1-3 and on configs/paper-synthetic.json at seed 1 (10
commands). The
small runs' configs (GENERATED) are written by this script, so both
checkouts run the same files. A checkout runs its own src/robustcast, with
one BLAS thread, in a fresh temporary directory that holds copies of its
configs, so every path the commands see or print is relative. Each
checkout's own load_artifact also reads every out_dir artifact (*.json) and
writes `digest` of what it returns as one more output,
`<run>/out/<file>.loaded`: an artifact whose encoding alone changed differs
in its bytes and not in its digest. The 73 commands give 561 outputs per
checkout: 219 command outputs, 217 out_dir files (125 of them artifacts)
and 125 digests. Prints every out_dir file, digest and
command output (exit code, stdout, stderr) that differs between the two
checkouts, with its differing lines, and exits 1 if there is any; standard
library only. A differing line longer than LONG characters, such as an
artifact's one line of JSON, is shown as the offset of its first differing
character and CONTEXT characters around it.
"""
from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("eval-grid", "lr-pipeline", "nn-train")
METHODS = ["imp-persistence", "imp-mean", "rf-learned", "arf-learned", "rf-fixed", "arf-fixed",
           "retrain-oracle"]
LONG, CONTEXT = 200, 60
ROOT = Path(__file__).resolve().parents[1]


def small(**overrides) -> dict:
    """A run config over 2 plants and 400 periods with short training."""
    return {
        "seed": 1,
        "data": {"synth": {"n_plants": 2, "n_periods": 400, "ar_coefficient": 0.95,
                           "cross_plant_correlation": 0.5, "noise_std": 0.4}},
        "max_lag": 1,
        "horizons": [1, 2],
        "family": "lr",
        "train": {"learning_rate": 0.02, "max_iters": 30, "patience": 10, "batch_size": 64},
        "partition": {"mode": "learned", "q_max": 3, "epsilon": 0.0},
        **overrides,
    }


# the configs this script writes, by path relative to a work directory: a
# plain run of every method (under "adaptive": false, only each method's name
# fixes its models' adaptivity), and runs without a grid block, which train
# the partition of their mode and adaptivity
GENERATED = {
    "generated/plain-all-methods.json": small(
        adaptive=False, grid={"p01": [0.2], "p11": [0.5], "methods": METHODS, "runs": 2}),
    "generated/no-grid-learned.json": small(family="nn", hidden=[3, 2], adaptive=True),
    "generated/no-grid-fixed.json": small(
        adaptive=False, partition={"mode": "fixed", "q_max": 3, "epsilon": 0.0, "budget": 1}),
    "generated/no-grid-nominal.json": small(
        adaptive=False, partition={"mode": "nominal", "q_max": 3, "epsilon": 0.0}),
}


def runs() -> list[tuple[str, str, int, int | None]]:
    """(config path relative to a checkout or, for GENERATED, to a work
    directory, run name, seed, jobs) of each run; jobs is None for a `synth`
    run, as synth takes no --jobs."""
    found = [(f"perfbench/workloads/{name}.json", f"{name}-s{seed}-j{jobs}", seed, jobs)
             for name in WORKLOADS for seed in (1, 2, 3) for jobs in (1, 2)]
    found += [("configs/paper-synthetic.json", "paper-synthetic-s1-j2", 1, 2)]
    found += [(config, f"{Path(config).stem}-s1-j2", 1, 2) for config in GENERATED]
    found += [(f"perfbench/workloads/{name}.json", f"{name}-s{seed}-synth", seed, None)
              for name in WORKLOADS for seed in (1, 2, 3)]
    return found + [("configs/paper-synthetic.json", "paper-synthetic-s1-synth", 1, None)]


def run_checkout(checkout: Path, work: Path) -> dict[str, bytes]:
    """Every command output and out_dir file of one checkout's runs, by
    name: `<run>/<command>.{code,stdout,stderr}` and `<run>/out/<file>`."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    found: dict[str, bytes] = {}
    artifacts: dict[str, str] = {}  # the key of each *.json digest, and its path
    for config, name, seed, jobs in runs():
        (work / config).parent.mkdir(parents=True, exist_ok=True)
        if config in GENERATED:
            (work / config).write_text(json.dumps(GENERATED[config]), encoding="utf-8")
        else:
            shutil.copyfile(checkout / config, work / config)
        out = f"runs/{name}"
        if jobs is None:
            commands = ("synth",)
        elif "grid" in json.loads((work / config).read_text(encoding="utf-8")):
            commands = ("train", "evaluate", "report")
        else:
            commands = ("train",)
        for command in commands:
            jobs_flag = ["--jobs", str(jobs)] if command in ("train", "evaluate") else []
            argv = [sys.executable, "-m", "robustcast", command, "--config", config,
                    "--seed", str(seed), *jobs_flag, "--out", out]
            done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            print(f"{checkout}: exit {done.returncode}: {' '.join(argv[3:])}", flush=True)
            found[f"{name}/{command}.code"] = str(done.returncode).encode()
            found[f"{name}/{command}.stdout"] = done.stdout
            found[f"{name}/{command}.stderr"] = done.stderr
        for path in sorted((work / out).rglob("*")):
            if path.is_file():
                key = f"{name}/out/{path.relative_to(work / out)}"
                found[key] = path.read_bytes()
                if path.suffix == ".json":
                    artifacts[f"{key}.loaded"] = str(path.relative_to(work))
    code = (f"import sys; sys.path.append({str(ROOT)!r}); "
            "from tests.compare_outputs import print_digests; print_digests(sys.argv[1:])")
    done = subprocess.run([sys.executable, "-c", code, *artifacts.values()], cwd=work, env=env,
                          capture_output=True, check=True)
    digests = json.loads(done.stdout)
    found.update({key: digests[path].encode() for key, path in artifacts.items()})
    return found


def _sha256(params) -> str:
    """The sha256 of a parameter set's block names, shapes and bytes."""
    h = hashlib.sha256()
    for name, block in params.arrays.items():
        h.update(f"{name}{block.shape}".encode())
        h.update(block.tobytes())
    return h.hexdigest()


def digest(artifact) -> str:
    """What a loaded artifact holds, read from the objects load_artifact
    returns, not from the file: its kind and layout; a bare model's set; a
    fixed partition's subsets, each set and loss; a learned partition's
    budget, config, leaf ids, splits (leaf, feature, whether it trained an
    adversarial fit) and subsets, each with its bounds and both sets. A set
    is shown as the sha256 of its blocks (_sha256), a number by its repr."""
    from robustcast.partition import FixedPartition, Partition

    kind = {Partition: "learned", FixedPartition: "fixed"}.get(type(artifact), "model")
    lines = [f"kind {kind}", f"layout {json.dumps(dataclasses.asdict(artifact.arch))}"]
    if kind == "model":
        lines.append(f"params {_sha256(artifact)}")
    elif kind == "fixed":
        lines += [f"subset {c}: loss {s.loss!r} params {_sha256(s.params)}"
                  for c, s in enumerate(artifact.subsets)]
    else:
        lines += [f"budget {artifact.budget}",
                  f"config {json.dumps(dataclasses.asdict(artifact.config))}",
                  f"leaf_ids {artifact.leaf_ids}"]
        lines += [f"split {k}: leaf {s.leaf} feature {s.feature} adv {s.adv is not None}"
                  for k, s in enumerate(artifact.splits, 1)]
        lines += [f"subset {sid}: LB {s.lower_bound!r} UB {s.upper_bound!r} "
                  f"opt {_sha256(s.params_opt)} adv {_sha256(s.params_adv)}"
                  for sid, s in enumerate(artifact.subsets)]
    return "\n".join(lines) + "\n"


def print_digests(paths: list[str]) -> None:
    """Print, as one JSON object keyed by path, the digest of the artifact
    at each path, or the error loading it raises, as this process's
    robustcast reads it."""
    from robustcast.exceptions import RobustcastError
    from robustcast.partition import load_artifact

    found = {}
    for path in paths:
        try:
            found[path] = digest(load_artifact(path))
        except RobustcastError as exc:
            found[path] = f"load error {type(exc).__name__}: {exc}\n"
    print(json.dumps(found))


def near_difference(line: str, other: str) -> str:
    """line, or when it is longer than LONG characters, the offset of its
    first character that differs from other (its counterpart in the other
    checkout) and the CONTEXT characters of line around that offset."""
    if len(line) <= LONG:
        return line
    at = next((k for k, (a, b) in enumerate(zip(line, other)) if a != b),
              min(len(line), len(other)))
    start = max(0, at - CONTEXT // 2)
    return f"[{len(line)} characters, first difference at {at}] {line[start:start + CONTEXT]}"


def diff_lines(parent: list[str], change: list[str]) -> list[str]:
    """The unified diff of two files' lines without context, each long line
    cut by near_difference against the line at its place on the other side
    of its hunk (or against nothing)."""
    lines = list(difflib.unified_diff(parent, change, "parent", "change", n=0, lineterm=""))
    out, hunk = lines[:2], []
    for line in [*lines[2:], "@@"]:
        if not line.startswith("@@"):
            hunk.append(line)
            continue
        sides = {sign: [text[1:] for text in hunk if text[0] == sign] for sign in "-+"}
        for sign, other in (("-", sides["+"]), ("+", sides["-"])):
            out += [sign + near_difference(text, other[k] if k < len(other) else "")
                    for k, text in enumerate(sides[sign])]
        out.append(line)
        hunk = []
    return out[:-1]


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
        for line in diff_lines(*lines):
            print(f"    {line}")
    print(f"{len(differ)} of {len(set(parent) | set(change))} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
