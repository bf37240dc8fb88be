"""Print repr(parse_run_config(c)) for a fixed set of run configs, one line
each, so that two checkouts of the parser can be compared line by line:

    PYTHONPATH=src python tests/print_run_configs.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/print_run_configs.py > before.txt
    diff before.txt after.txt

The configs: the benchmark workloads, the README's run config, and
configs that leave out the grid, read a CSV, give an nn a partial train
block, or hold only a Q sweep.
"""
import json
from pathlib import Path

from robustcast.cli import parse_run_config

ROOT = Path(__file__).resolve().parents[1]
SYNTH = {"synth": {"n_plants": 2, "n_periods": 50}}


def configs() -> dict[str, dict]:
    found = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8").split("### Run config", 1)[1]
    found["readme"] = json.loads(readme.split("```json", 1)[1].split("```", 1)[0])
    found["no-grid"] = {"data": SYNTH}
    found["csv"] = {"data": {"csv": "series.csv"}, "seed": -4, "horizons": [1, 3],
                    "partition": {"mode": "fixed", "budget": 3}}
    found["nn-partial-train"] = {"data": SYNTH, "family": "nn", "hidden": [8, 8],
                                 "train": {"patience": 3, "shuffle": True},
                                 "grid": {"p01": [0, 0.2], "runs": 2}}
    found["q-sweep-only"] = {"data": SYNTH, "seed": 5, "q_sweep": {"q_list": [1, 2]}}
    found["two-plant"] = {"seed": 7, "data": {"synth": {"n_plants": 2, "n_periods": 900,
                                                        "noise_std": 0.4, "seed": 3}},
                          "max_lag": 1, "split": {"train_frac": 0.5, "val_frac": 0.2},
                          "partition": {"q_max": 2, "epsilon": 0},
                          "grid": {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean"]}}
    return found


if __name__ == "__main__":
    for name, config in configs().items():
        print(f"{name}: {parse_run_config(config)!r}")
