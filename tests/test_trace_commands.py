"""The traffic claim for the kernel modules: run by the CLI on two tiny
configs, every statement of models, training and adversarial runs except
error paths and greedy_split_feature's empty-scope return. The statements
are listed by tests/trace_commands.py and matched by their text, so the
test does not move with line numbers."""
import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).with_name("trace_commands.py")
MODULES = ("adversarial", "models", "training")
METHODS = ["imp-persistence", "imp-mean", "rf-learned", "arf-learned", "rf-fixed", "arf-fixed",
           "retrain-oracle"]


def tiny_config(out_dir: Path, family: str, shuffle: bool) -> dict:
    """Two plants (four maskable features), three epochs, every method: the
    plain and adaptive models of the family, learned and fixed partitions
    and the retrain oracle, with a positive weight decay."""
    config = {
        "seed": 1,
        "out_dir": str(out_dir),
        "data": {"synth": {"n_plants": 2, "n_periods": 300, "ar_coefficient": 0.95,
                           "cross_plant_correlation": 0.5, "noise_std": 0.4, "seed": 3}},
        "target_plant": 0,
        "max_lag": 1,
        "horizons": [1],
        "family": family,
        "adaptive": True,
        "split": {"train_frac": 0.5, "val_frac": 0.2},
        "train": {"learning_rate": 0.01, "max_iters": 3, "patience": 3, "batch_size": 32,
                  "weight_decay": 0.001, "shuffle": shuffle},
        "partition": {"mode": "learned", "q_max": 3, "epsilon": 0.0, "budget": 2},
        "grid": {"p01": [0.2], "p11": [0.5], "methods": METHODS, "runs": 1},
    }
    if family == "nn":
        config["hidden"] = [3, 2]
    return config


def unrun_by_module(output: str) -> dict[str, list[tuple[bool, str]]]:
    """The tool's listing: per module, each unrun statement's error mark and
    text."""
    listed, module = {}, None
    for line in output.splitlines():
        header = re.match(r"(\w+): \d+ of \d+ statements never ran", line)
        if header:
            module = header.group(1)
            listed[module] = []
            continue
        entry = re.match(r"  [ \d]{4} (err|   ) (.*)$", line)
        if module and entry:
            listed[module].append((entry.group(1) == "err", entry.group(2)))
    return listed


def test_only_error_paths_and_the_empty_scope_return_go_unrun(tmp_path):
    commands = []
    for family, shuffle in (("nn", True), ("lr", False)):
        path = tmp_path / f"{family}.json"
        config = tiny_config(tmp_path / family, family, shuffle)
        path.write_text(json.dumps(config), encoding="utf-8")
        commands += [f"train --config {path}", f"evaluate --config {path}"]
    modules = [arg for name in MODULES for arg in ("--module", name)]
    done = subprocess.run([sys.executable, str(TOOL), *commands, *modules], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [f"exit 0: {command}" for command in commands] == \
        [line for line in done.stdout.splitlines() if line.startswith("exit ")]
    listed = unrun_by_module(done.stdout)
    assert sorted(listed) == sorted(MODULES)
    assert {name: [text for error, text in entries if not error]
            for name, entries in listed.items()} == \
        {"adversarial": ["return None"], "models": [], "training": []}
    # the error paths are listed too, so the listing is not empty by accident
    assert all(any(error for error, _ in entries) for entries in listed.values())
