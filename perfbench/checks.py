"""Correctness checks for benchmark runs.

* ``config_problems``: every key of a workload config must land, with the
  same value, in the ``RunConfig`` that ``robustcast.cli.parse_run_config``
  returns; a key the parser ignores would make a workload run something other
  than what its file says.
* ``output_problems``: structural checks of what ``robustcast train`` /
  ``evaluate`` wrote (row counts, finite positive nrmse, leaf counts within
  ``q_max``, no tree cut short by a leaf whose upper bound lies below its
  lower bound) for any seed, plus, for the reference seed, exact learned-tree
  splits and leaf counts and nrmse values within ``NRMSE_REL_TOL`` of the
  stored reference.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# Relative tolerance on every reference nrmse: far above float noise from a
# different BLAS kernel, far below any change in what the program computes.
NRMSE_REL_TOL = 1e-4

# JSON key path in a run config -> attribute path in the parsed RunConfig.
CONFIG_FIELDS = {
    "seed": "seed",
    "out_dir": "out_dir",
    "data.csv": "csv_path",
    "data.synth.n_plants": "synth.n_plants",
    "data.synth.n_periods": "synth.n_periods",
    "data.synth.ar_coefficient": "synth.ar_coefficient",
    "data.synth.cross_plant_correlation": "synth.cross_plant_correlation",
    "data.synth.noise_std": "synth.noise_std",
    "data.synth.obs_noise_std": "synth.obs_noise_std",
    "data.synth.seed": "synth.seed",
    "target_plant": "target_plant",
    "max_lag": "max_lag",
    "horizons": "horizons",
    "family": "family",
    "adaptive": "adaptive",
    "hidden": "hidden",
    "split.train_frac": "train_frac",
    "split.val_frac": "val_frac",
    "train.learning_rate": "train.learning_rate",
    "train.max_iters": "train.max_iters",
    "train.patience": "train.patience",
    "train.batch_size": "train.batch_size",
    "train.weight_decay": "train.weight_decay",
    "train.shuffle": "train.shuffle",
    "partition.mode": "partition_mode",
    "partition.q_max": "partition.max_subsets",
    "partition.epsilon": "partition.epsilon",
    "partition.budget": "budget",
    "grid.p01": "grid_p01",
    "grid.p11": "grid_p11",
    "grid.methods": "grid_methods",
    "grid.runs": "grid_runs",
    "q_sweep.q_list": "qsweep_list",
    "q_sweep.p01": "qsweep_p01",
    "q_sweep.p11": "qsweep_p11",
    "q_sweep.method": "qsweep_method",
}


def _leaves(obj: dict, prefix: str = ""):
    for key, value in obj.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _leaves(value, path + ".")
        else:
            yield path, value


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


def config_problems(config: dict) -> list[str]:
    from robustcast.cli import parse_run_config

    cfg = parse_run_config(config)
    problems = []
    for key, value in _leaves(config):
        field = CONFIG_FIELDS.get(key)
        if field is None:
            problems.append(f"config key {key} has no RunConfig field")
            continue
        parsed = _plain(_resolve(cfg, field))
        if parsed != _plain(value):
            problems.append(f"config key {key}={value!r} parsed as {field}={parsed!r}")
    return problems


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _positive_finite(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0.0


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= NRMSE_REL_TOL * abs(ref)


def _learned_artifacts(config: dict, out_dir: Path):
    """(name, parsed JSON) of each learned artifact the grid evaluates."""
    for method in config["grid"]["methods"]:
        if not method.endswith("-learned"):
            continue
        for h in config["horizons"]:
            name = f"{method}_h{h}"
            yield name, json.loads((out_dir / f"{name}.json").read_text(encoding="utf-8"))


def learned_trees(config: dict, out_dir: Path) -> dict[str, dict]:
    """Leaf count and per-subset split feature of each learned artifact."""
    return {
        name: {
            "leaves": len(obj["leaf_ids"]),
            "split_features": {
                sid: s["split_feature"]
                for sid, s in sorted(obj["subsets"].items(), key=lambda kv: int(kv[0]))
                if s["split_feature"] is not None
            },
        }
        for name, obj in _learned_artifacts(config, out_dir)
    }


def bound_inversions(config: dict, out_dir: Path) -> list[dict]:
    """Every learned subset, in the grid's artifacts and the Q sweep's, whose
    upper bound lies below its lower bound. ``ended_growth`` marks an
    inverted leaf of a tree that stopped below its ``max_subsets``: a negative
    gap passes the epsilon stopping test (ROADMAP item 5), so such a tree is
    cut short and would read as a much faster train."""
    artifacts = list(_learned_artifacts(config, out_dir))
    if "q_sweep" in config:
        method = config["q_sweep"].get("method", "arf-learned")
        for q in config["q_sweep"]["q_list"]:
            for h in config["horizons"]:
                path = out_dir / f"{method}_q{q}_h{h}.json"
                artifacts.append((path.stem, json.loads(path.read_text(encoding="utf-8"))))
    found = []
    for name, obj in artifacts:
        leaves = {str(i) for i in obj["leaf_ids"]}
        cut_short = len(leaves) < obj["config"]["max_subsets"]
        found += [
            {"artifact": name, "subset": int(sid), "LB": s["LB"], "UB": s["UB"],
             "ended_growth": cut_short and sid in leaves}
            for sid, s in obj["subsets"].items()
            if s["UB"] < s["LB"]
        ]
    return found


def output_problems(config: dict, out_dir: Path, reference: dict | None) -> list[str]:
    problems: list[str] = []
    grid = config["grid"]
    horizons = config["horizons"]
    cells = len(grid["p01"]) * len(grid["p11"])
    q_max = config.get("partition", {}).get("q_max", 10)

    header, rows = _read_csv(out_dir / "grid.csv")
    if header != ["method", "h", "p01", "p11", "run", "nrmse"]:
        problems.append(f"grid.csv header {header}")
    want = len(grid["methods"]) * len(horizons) * cells * grid["runs"]
    if len(rows) != want:
        problems.append(f"grid.csv has {len(rows)} rows, expected {want}")
    problems += [f"grid.csv nrmse {r[-1]!r} not finite positive" for r in rows if not _positive_finite(r[-1])]

    _, summary = _read_csv(out_dir / "summary.csv")
    want = len(grid["methods"]) * len(horizons) * cells
    if len(summary) != want:
        problems.append(f"summary.csv has {len(summary)} rows, expected {want}")
    problems += [f"summary.csv runs {r[-1]} != {grid['runs']}" for r in summary if r[-1] != str(grid["runs"])]

    qrows = {}
    if "q_sweep" in config:
        _, qcsv = _read_csv(out_dir / "qsweep.csv")
        qrows = {int(r[0]): r for r in qcsv}
        for q in config["q_sweep"]["q_list"]:
            if q not in qrows:
                problems.append(f"qsweep.csv has no row for Q={q}")
            elif not _positive_finite(qrows[q][1]):
                problems.append(f"qsweep.csv Q={q} mean_nrmse {qrows[q][1]!r} not finite positive")

    trees = learned_trees(config, out_dir)
    problems += [
        f"{name} has {t['leaves']} leaves, q_max is {q_max}"
        for name, t in trees.items()
        if not 1 <= t["leaves"] <= q_max
    ]
    problems += [
        f"{i['artifact']} stopped growing with leaf {i['subset']} inverted: "
        f"UB {i['UB']:.6g} below LB {i['LB']:.6g}"
        for i in bound_inversions(config, out_dir)
        if i["ended_growth"]
    ]

    if reference is None:
        return problems
    if trees != reference["trees"]:
        problems.append(f"learned trees {trees} differ from reference {reference['trees']}")
    got = {tuple(r[:5]): float(r[5]) for r in rows if _positive_finite(r[5])}
    for *key, ref in reference["grid"]:
        value = got.get(tuple(key))
        if value is None or not _close(value, ref):
            problems.append(f"grid.csv {','.join(key)} nrmse {value} vs reference {ref}")
    for q, ref in reference.get("qsweep", {}).items():
        row = qrows.get(int(q))
        if row is None or not _positive_finite(row[1]) or not _close(float(row[1]), ref):
            problems.append(f"qsweep.csv Q={q} mean_nrmse {row and row[1]} vs reference {ref}")
    return problems


def reference_from_outputs(config: dict, out_dir: Path, seed: int) -> dict:
    """The values ``output_problems`` compares against, read from one run."""
    _, rows = _read_csv(out_dir / "grid.csv")
    ref = {
        "seed": seed,
        "nrmse_rel_tol": NRMSE_REL_TOL,
        "trees": learned_trees(config, out_dir),
        "grid": [[*r[:5], float(r[5])] for r in rows],
    }
    if "q_sweep" in config:
        _, qcsv = _read_csv(out_dir / "qsweep.csv")
        ref["qsweep"] = {r[0]: float(r[1]) for r in qcsv}
    return ref
