"""The traffic claim for every module of the package but `__init__`,
`exceptions` (import runs all of both) and `__main__`: run by the CLI's
four commands on tiny configs, every statement of each runs except error
paths and the statements NOT_RUN lists. The statements are listed by
tests/trace_commands.py and matched by their text, so the test does not
move with line numbers."""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).with_name("trace_commands.py")
MODULES = ("_util", "adversarial", "cli", "dataio", "evaluation", "missingness", "models",
           "partition", "training")
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


# The non-error statements that no command runs, by text.
NOT_RUN = {
    "_util": [],
    "adversarial": [],
    "cli": [
        # _kind_name's branches only build the message of a mistyped key
        "if isinstance(kind, list):",
        'return f"a list, each item {_kind_name(kind[0])}"',
        "if isinstance(kind, tuple):",
        'return " or ".join("null" if k is None else _kind_name(k) for k in kind)',
        'return {int: "an integer", float: "a finite number", bool: "true or false",',
        # the guard runs only when cli.py is run as a script
        "sys.exit(main())",
    ],
    # dm_test's body: a library API the README documents, which no command calls
    "evaluation": [
        "a = np.asarray(loss_a, dtype=np.float64)",
        "b = np.asarray(loss_b, dtype=np.float64)",
        "if a.shape != b.shape or a.ndim != 1:",
        "n = a.size",
        "if n < 30:",
        "d = a - b",
        "mean_d = d.mean()",
        "centered = d - mean_d",
        "gamma0 = float(np.mean(centered**2))",
        "variance = gamma0",
        "for k in range(1, min(lag, n - 1) + 1):",
        "gamma_k = float(np.mean(centered[k:] * centered[:-k]))",
        "variance += 2.0 * (1.0 - k / (lag + 1.0)) * gamma_k",
        "if variance <= 1e-300 * max(1.0, mean_d**2):",
        "return DMResult(statistic=0.0, p_value=1.0, degenerate=True)",
        "stat = mean_d / math.sqrt(variance / n)",
        "p = math.erfc(abs(stat) / math.sqrt(2.0))",
        "return DMResult(statistic=float(stat), p_value=float(p), degenerate=False)",
    ],
    "dataio": [],
    "missingness": [
        # bits_of: bits of another dtype than uint8 (every pattern the
        # commands build is uint8), and the lines that build the message of
        # a refused pattern
        "if not ((bits == 0) | (bits == 1)).all():",
        "bits = bits.astype(np.uint8)",
        "flat = bits.reshape(-1, width)",
        "if flat.max() > 1:",
        "bad = np.flatnonzero((flat > allowed).any(axis=0))",
    ],
    "models": [],
    "partition": [
        # Partition.fixed: a subset's equality constraints, a library API the
        # README documents, which the acceptance tests read; no file stores
        # them
        "subset = self.subsets[sid]",
        "bits = subset.opt_pattern.bits",
        "return {j: int(bits[j]) for j in self.arch.maskable if j not in subset.free}",
        # _leaf_of, locate_rows and predict_deployed: routing and forecasting
        # one row at a time, a library API the README documents and the
        # benchmark's deploy step calls; the commands score whole test sets
        # (predict_deployed_rows)
        "route, sid = partition._route, 0",
        "while route[sid] is not None:",
        "feature, avail, miss = route[sid]",
        "sid = miss if bits[feature] else avail",
        "return sid",
        "return _walk_rows(partition, _pattern_bits(partition.arch, bits, ndim=2))",
        "bits = _pattern_bits(partition.arch, pattern, ndim=1)",
        "try:",
        "x = np.asarray(x, dtype=np.float64)",
        "if x is None or x.shape != bits.shape:",
        "subset = partition.subsets[_leaf_of(partition, bits)]",
        "use_opt = bits.tobytes() == subset.opt_pattern.key()",
        "return float(_predict_bits(subset.params_opt if use_opt else subset.params_adv, x, bits))",
    ],
    "training": [],
}


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


def test_only_error_paths_and_the_listed_statements_go_unrun(tmp_path):
    configs = {family: tiny_config(tmp_path / family, family, shuffle)
               for family, shuffle in (("nn", True), ("lr", False))}
    # lr sweeps a learned method that its grid does not score
    configs["lr"]["grid"]["methods"].remove("rf-learned")
    configs["lr"]["q_sweep"] = {"q_list": [1, 2], "p01": 0.2, "p11": 0.5, "method": "rf-learned"}
    # a series read from the file synth writes, and no grid block: train
    # grows the partition of the run config's mode
    configs["csv"] = {**configs["lr"], "out_dir": str(tmp_path / "csv"),
                      "data": {"csv": str(tmp_path / "synth" / "synthetic.csv")},
                      "partition": {"mode": "fixed", "budget": 1}}
    del configs["csv"]["grid"], configs["csv"]["q_sweep"]
    # noise on the synthetic measurements
    configs["nn"]["data"]["synth"]["obs_noise_std"] = 0.1
    # a series file without a weather column, with a blank line, and a grid
    # of imp-mean only, whose two runs evaluate with --jobs 2: map_jobs's
    # pool runs in the traced process, its workers' work goes unseen
    bare = tmp_path / "bare.csv"
    rows = [f"{t},{0.5 + 0.3 * math.sin(t / 7)},{0.5 + 0.3 * math.cos(t / 5)}" for t in range(300)]
    bare.write_text("\n".join(["period,plant_0,plant_1", *rows[:150], "", *rows[150:]]) + "\n",
                    encoding="utf-8")
    configs["bare"] = {**configs["csv"], "out_dir": str(tmp_path / "bare"),
                       "data": {"csv": str(bare)},
                       "grid": {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean"], "runs": 2}}
    path = {}
    for name, config in configs.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(config), encoding="utf-8")
    commands = [f"{command} --config {path['nn']}" for command in ("train", "evaluate", "report")]
    commands += [f"{command} --config {path['lr']} --seed 2"
                 for command in ("train", "evaluate", "report")]
    commands += [f"synth --config {path['lr']} --out {tmp_path / 'synth'}",
                 f"train --config {path['csv']}", f"train --config {path['bare']}",
                 f"evaluate --config {path['bare']} --jobs 2"]
    modules = [arg for name in MODULES for arg in ("--module", name)]
    done = subprocess.run([sys.executable, str(TOOL), *commands, *modules], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [f"exit 0: {command}" for command in commands] == \
        [line for line in done.stdout.splitlines() if line.startswith("exit ")]
    listed = unrun_by_module(done.stdout)
    assert sorted(listed) == sorted(MODULES)
    assert {name: [text for error, text in entries if not error]
            for name, entries in listed.items()} == NOT_RUN
    # the error paths are listed too, so the listing is not empty by accident
    assert all(any(error for error, _ in entries) for entries in listed.values())
