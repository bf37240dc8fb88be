import base64
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustcast import cli
from robustcast._util import derive_seed
from robustcast.cli import load_run_config, main, parse_run_config, resolve_run_config
from robustcast.exceptions import ConfigError
from robustcast.dataio import gen_synthetic, load_csv, save_csv, RawSeries, SynthConfig
from robustcast.evaluation import METHODS
from robustcast.partition import (
    Partition, PartitionConfig, learn_partition, load_artifact, partition_to_json,
)
from robustcast.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def base_config(out_dir, **overrides):
    config = {
        "seed": 7,
        "out_dir": str(out_dir),
        "data": {
            "synth": {
                "n_plants": 2,
                "n_periods": 900,
                "ar_coefficient": 0.95,
                "cross_plant_correlation": 0.5,
                "noise_std": 0.4,
                "seed": 3,
            }
        },
        "target_plant": 0,
        "max_lag": 1,
        "horizons": [1],
        "family": "lr",
        "adaptive": True,
        "split": {"train_frac": 0.5, "val_frac": 0.2},
        "train": {"learning_rate": 0.01, "max_iters": 30, "patience": 8, "batch_size": 64},
        "partition": {"mode": "learned", "q_max": 2, "epsilon": 0.0},
        "grid": {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean"], "runs": 2},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestSynth:
    def test_writes_deterministic_csv_that_roundtrips(self, tmp_path):
        config = base_config(tmp_path / "out")
        path = write_config(tmp_path, config)
        assert main(["synth", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "synthetic.csv").read_bytes()
        assert main(["synth", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "synthetic.csv").read_bytes() == first
        raw = load_csv(tmp_path / "out" / "synthetic.csv")
        assert raw.n_periods == 900
        assert raw.n_plants == 2

    def test_invalid_config_exits_2(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["data"]["synth"]["ar_coefficient"] = 2.0
        path = write_config(tmp_path, config)
        assert main(["synth", "--config", str(path)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_without_data_source_exits_2(self, tmp_path):
        config = base_config(tmp_path / "out")
        del config["data"]["synth"]
        path = write_config(tmp_path, config)
        assert main(["synth", "--config", str(path)]) == 2


class TestRunConfig:
    def test_readme_config_reaches_the_run_config(self):
        text = README.read_text(encoding="utf-8").split("### Run config", 1)[1]
        obj = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
        cfg = parse_run_config(obj)
        assert cfg.synth == SynthConfig(**obj["data"]["synth"])
        assert cfg.synth.obs_noise_std == 0.3
        assert cfg.train == TrainConfig(**obj["train"])
        top = ("seed", "out_dir", "target_plant", "max_lag", "family", "adaptive")
        assert [getattr(cfg, k) for k in top] == [obj[k] for k in top]
        assert (list(cfg.horizons), list(cfg.hidden)) == (obj["horizons"], obj["hidden"])
        split = obj["split"]
        assert (cfg.train_frac, cfg.val_frac) == (split["train_frac"], split["val_frac"])
        part = obj["partition"]
        assert (cfg.partition_mode, cfg.partition.max_subsets, cfg.partition.epsilon, cfg.budget) \
            == (part["mode"], part["q_max"], part["epsilon"], part["budget"])
        grid = obj["grid"]
        assert (list(cfg.grid_p01), list(cfg.grid_p11), list(cfg.grid_methods), cfg.grid_runs) \
            == (grid["p01"], grid["p11"], grid["methods"], grid["runs"])
        qs = obj["q_sweep"]
        assert (list(cfg.qsweep_list), cfg.qsweep_p01, cfg.qsweep_p11) \
            == (qs["q_list"], qs["p01"], qs["p11"])

    @pytest.mark.parametrize("key, value", [
        (("adaptive",), "false"),
        (("train", "shuffle"), "no"),
        (("max_lag",), 1.5),
        (("max_lag",), True),
        (("horizons",), [1, 2.0]),
        (("train", "learning_rate"), "0.01"),
        (("split", "val_frac"), False),
        (("grid", "p01"), ["0.2"]),
    ])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, key, value):
        config = base_config(tmp_path / "out")
        target = config
        for name in key[:-1]:
            target = target[name]
        target[key[-1]] = value
        with pytest.raises(ConfigError, match=key[-1]):
            parse_run_config(config)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        (("train", "learning_rate"), float("nan")),
        (("partition", "epsilon"), float("nan")),
        (("split", "train_frac"), float("nan")),
        (("data", "synth", "noise_std"), float("nan")),
        (("train", "weight_decay"), float("inf")),
        (("grid", "p01"), [0.2, float("-inf")]),
    ])
    def test_a_number_that_is_not_finite_exits_2(self, tmp_path, key, value):
        config = base_config(tmp_path / "out")
        target = config
        for name in key[:-1]:
            target = target[name]
        target[key[-1]] = value
        with pytest.raises(ConfigError, match=f"{key[-1]} must be .*finite"):
            parse_run_config(config)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_numbers_may_be_integers_and_budget_null(self):
        config = base_config("out")
        config["train"]["weight_decay"] = 0
        config["partition"]["budget"] = None
        cfg = parse_run_config(config)
        assert cfg.train.weight_decay == 0 and cfg.budget is None

    def test_absent_keys_take_the_config_class_defaults(self):
        config = base_config("out")
        del config["train"], config["partition"]
        cfg = parse_run_config(config)
        assert cfg.train == TrainConfig()
        assert cfg.partition == PartitionConfig()
        config.update(family="nn", train={"patience": 3}, partition={"epsilon": 0.5})
        cfg = parse_run_config(config)
        assert cfg.train == TrainConfig(patience=3, weight_decay=1e-5)
        assert cfg.partition == PartitionConfig(epsilon=0.5)

    def test_resolve_fills_every_default(self):
        # each default reaches every out_dir, so a changed default must fail here
        config = {"data": {"synth": {"n_plants": 2, "n_periods": 50}}}
        expected = {
            "seed": 0, "out_dir": "runs/out", "target_plant": 0, "max_lag": 2, "horizons": [1],
            "family": "lr", "adaptive": True, "hidden": [50, 50, 50, 50],
            "data": {"csv": None, "synth": {
                "n_plants": 2, "n_periods": 50, "ar_coefficient": 0.97,
                "cross_plant_correlation": 0.5, "noise_std": 0.2, "obs_noise_std": 0.0, "seed": 0}},
            "split": {"train_frac": 0.5, "val_frac": 0.15},
            "train": {"learning_rate": 0.001, "max_iters": 1000, "patience": 20,
                      "batch_size": 512, "weight_decay": 0.0, "shuffle": False},
            "partition": {"mode": "learned", "q_max": 10, "epsilon": 0.001, "budget": None},
            "grid": None, "q_sweep": None,
        }
        assert resolve_run_config(config) == expected
        config["family"] = expected["family"] = "nn"
        expected["train"]["weight_decay"] = 1e-5
        assert resolve_run_config(config) == expected
        config.update(seed=4, grid={}, q_sweep={"q_list": [1]})
        expected["seed"] = expected["data"]["synth"]["seed"] = 4
        expected["grid"] = {"p01": [0.05, 0.1, 0.2], "p11": [0.0, 0.8, 0.9],
                            "methods": ["imp-persistence", "arf-learned"], "runs": 10}
        expected["q_sweep"] = {"q_list": [1], "p01": 0.2, "p11": 0.9, "method": "arf-learned"}
        assert resolve_run_config(config) == expected

    def test_readme_defaults_are_what_the_resolver_fills_in(self):
        text = README.read_text(encoding="utf-8").split("### Defaults", 1)[1]
        given, resolved = (json.loads(block.split("```", 1)[0])
                           for block in text.split("```json")[1:3])
        assert resolve_run_config(given) == resolved

    def test_readme_reproduction_config_is_the_committed_file(self):
        text = README.read_text(encoding="utf-8").split("## Reproduction", 1)[1]
        path = README.parent / "configs" / "paper-synthetic.json"
        assert text.split("```json\n", 1)[1].split("```", 1)[0] == path.read_text(encoding="utf-8")
        cfg = load_run_config(path, None, None)
        assert (cfg.horizons, cfg.synth.n_plants, cfg.grid_runs) == ((1, 4, 16), 3, 3)
        assert cfg.grid_methods == ("imp-persistence", "imp-mean", "rf-learned", "arf-learned",
                                    "retrain-oracle")

    @pytest.mark.parametrize("name", ["eval-grid", "lr-pipeline", "nn-train"])
    def test_benchmark_configs_reach_the_run_config(self, name):
        obj = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
        cfg = parse_run_config(obj)
        assert cfg.synth == SynthConfig(**obj["data"]["synth"])
        assert cfg.train == TrainConfig(**obj["train"])
        top = ("seed", "out_dir", "target_plant", "max_lag", "family", "adaptive")
        assert [getattr(cfg, k) for k in top] == [obj[k] for k in top]
        assert list(cfg.horizons) == obj["horizons"]
        assert list(cfg.hidden) == obj.get("hidden", list(cfg.hidden))
        assert (cfg.train_frac, cfg.val_frac) == tuple(obj["split"].values())
        part, grid = obj["partition"], obj["grid"]
        assert (cfg.partition.max_subsets, cfg.partition.epsilon, cfg.budget) \
            == (part["q_max"], part["epsilon"], part.get("budget"))
        assert (list(cfg.grid_p01), list(cfg.grid_p11), list(cfg.grid_methods), cfg.grid_runs) \
            == (grid["p01"], grid["p11"], grid["methods"], grid["runs"])

    @pytest.mark.parametrize("block", [(), ("data",), ("data", "synth"), ("train",),
                                       ("split",), ("partition",), ("grid",)])
    def test_unknown_key_exits_2(self, tmp_path, block):
        config = base_config(tmp_path / "out")
        target = config
        for key in block:
            target = target[key]
        target["bogus"] = 1
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("q_sweep", {"q_list": [1, 2], "method": "arf-fixed"}, "q_sweep.method"),
        ("q_sweep", {"q_list": [1, 2], "method": "imp-mean"}, "q_sweep.method"),
        ("q_sweep", {"q_list": [1, 2], "method": "nonsense"}, "q_sweep.method"),
        ("q_sweep", {"q_list": []}, "q_sweep.q_list"),
        ("q_sweep", {"q_list": [2, 0]}, "q_sweep.q_list"),
        ("q_sweep", {"q_list": [-1]}, "q_sweep.q_list"),
        ("grid", {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean", "nonsense"], "runs": 1},
         "nonsense"),
        ("grid", {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean"], "runs": 0}, "grid.runs"),
        ("grid", {"p01": [1.5], "p11": [0.5], "methods": ["imp-mean"], "runs": 1}, "p01=1.5"),
        ("grid", {"p01": [0.2], "p11": [-0.1], "methods": ["imp-mean"], "runs": 1}, "p11=-0.1"),
        ("grid", {"p01": [], "p11": [0.5], "methods": ["imp-mean"], "runs": 1}, "grid.p01"),
        ("grid", {"p01": [0.2], "p11": [0.5], "methods": [], "runs": 1}, "grid.methods"),
        ("horizons", [], "horizons"),
        ("q_sweep", {"q_list": [1, 2], "p01": 2.0}, "p01=2.0"),
        # a repeated value would fold two cells into one summary row
        ("horizons", [1, 1], "horizons"),
        ("grid", {"p01": [0.2, 0.2], "p11": [0.5], "methods": ["imp-mean"], "runs": 1},
         "grid.p01"),
        ("grid", {"p01": [0.2], "p11": [0.5, 0.5], "methods": ["imp-mean"], "runs": 1},
         "grid.p11"),
        ("grid", {"p01": [0.2], "p11": [0.5], "methods": ["imp-mean", "imp-mean"], "runs": 1},
         "grid.methods"),
        # a repeated Q would cut and write the same sweep artifact twice
        ("q_sweep", {"q_list": [2, 2]}, "q_sweep.q_list"),
        ("data", {"synth": {"n_periods": 900}}, "missing config key data.synth.n_plants"),
        ("data", {"synth": {"n_plants": 2}}, "missing config key data.synth.n_periods"),
        ("q_sweep", {"p01": 0.2}, "missing config key q_sweep.q_list"),
    ])
    def test_config_that_would_fail_after_training_exits_2(self, tmp_path, key, value, match):
        config = base_config(tmp_path / "out", **{key: value})
        with pytest.raises(ConfigError, match=match):
            parse_run_config(config)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("form", ["--seed -1", "run seed -3", "synth seed -5"])
    def test_negative_synthetic_seed_exits_2(self, tmp_path, capsys, form):
        config = base_config(tmp_path / "out")
        argv = []
        if form == "--seed -1":
            argv = ["--seed", "-1"]
        elif form == "run seed -3":
            config["seed"] = -3  # the synth seed follows it
            del config["data"]["synth"]["seed"]
        else:
            config["data"]["synth"]["seed"] = -5
        path = write_config(tmp_path, config)
        for command in ("synth", "train"):
            capsys.readouterr()
            assert main([command, "--config", str(path), *argv]) == 2
            assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_run_seed_with_a_csv_source_runs(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        save_csv(gen_synthetic(SynthConfig(2, 600, 0.95, 0.5, 0.4, seed=3)), csv_path)
        config = base_config(tmp_path / "out", data={"csv": str(csv_path)}, seed=-3)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path), "--seed", "-1"]) == 0

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "file/sub"])
    def test_out_dir_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command, under):
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        path = write_config(tmp_path, base_config(taken / "sub" if under else taken))
        assert main([command, "--config", str(path)]) == 2
        assert "cannot be a directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "kept"

    # the first four are refused when the config is parsed, the others once
    # the data are loaded, before out_dir is made; the series has 2 plants
    # and 2 * (max_lag + 1) = 4 maskable features
    @pytest.mark.parametrize("edit, match", [
        (lambda c: c.update(horizons=[0]), "horizons must be >= 1"),
        (lambda c: c.update(max_lag=-1), "max_lag must be >= 0"),
        (lambda c: c["partition"].update(budget=-1), "partition.budget must be >= 0"),
        (lambda c: c.update(target_plant=-1), "target_plant must be >= 0"),
        (lambda c: c.update(target_plant=9), "target_plant 9 out of range"),
        (lambda c: c["partition"].update(budget=99), "partition.budget 99 exceeds"),
        (lambda c: c.update(data={"csv": "no-such-series.csv"}), "data file not found"),
        (lambda c: c.update(data={"csv": "."}), "cannot read data file .: Is a directory"),
        (lambda c: c.update(family="nn", hidden=[]), "a network needs at least one hidden layer"),
        (lambda c: c.update(family="nn", hidden=[0]), "hidden widths must be positive"),
        (lambda c: c.update(family="nn", hidden=[50, -1]), "hidden widths must be positive"),
    ], ids=["horizon 0", "max_lag -1", "budget -1", "target_plant -1", "target_plant 9",
            "budget 99", "missing data.csv", "data.csv a directory", "nn hidden []",
            "nn hidden [0]", "nn hidden [50, -1]"])
    def test_value_out_of_range_for_the_run_or_its_data_exits_2(self, tmp_path, capsys, edit,
                                                                 match):
        out = tmp_path / "out"
        config = base_config(out)
        edit(config)
        path = write_config(tmp_path, config)
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and match in err
        assert not out.exists()


class TestTrain:
    def test_diverged_training_exits_4(self, tmp_path, capsys):
        config = base_config(tmp_path / "out", family="nn", hidden=[8, 8])
        config["train"]["learning_rate"] = 1e200
        path = write_config(tmp_path, config)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(path)]) == 4
        assert "loss is" in capsys.readouterr().err

    def test_jobs_below_one_exits_2(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["train", "--config", str(path), "--jobs", "0"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "report"])
    def test_jobs_is_refused_where_nothing_runs_in_parallel(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as refused:
            main([command, "--config", str(path), "--jobs", "2"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_learned_mode_writes_partition_and_bounds(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(
            out, grid={"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 2}
        ))
        assert main(["train", "--config", str(path)]) == 0
        artifact = load_artifact(out / "arf-learned_h1.json")
        assert isinstance(artifact, Partition)
        assert len(artifact.leaf_ids) <= 2
        bounds = (out / "bounds_arf-learned_h1.txt").read_text()
        assert bounds.startswith("subset,split_feature,UB,LB,relgap_pct")

    def test_fixed_mode_emits_budget_plus_one_subsets(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(
            out,
            partition={"mode": "fixed", "q_max": 2, "epsilon": 0.0, "budget": 3},
            grid={"p01": [0.2], "p11": [0.5], "methods": ["rf-fixed"], "runs": 1},
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        artifact = load_artifact(out / "rf-fixed_h1.json")
        assert len(artifact.subsets) == 4

    def test_each_method_name_fixes_its_models_adaptivity(self, tmp_path):
        # with a grid block, "adaptive" picks nothing: arf-* models adapt,
        # rf-* models and the base model do not
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "rf-learned", "imp-mean"],
                "runs": 1}
        path = write_config(tmp_path, base_config(out, adaptive=False, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        assert [load_artifact(out / f"{stem}_h1.json").arch.adaptive
                for stem in ("arf-learned", "rf-learned", "base")] == [True, False, False]

    def test_planted_dominant_feature_recovers_two_level_tree(self, tmp_path):
        # plant_0 carries the signal, plant_1 nearly duplicates it, plant_2 is
        # junk: the tree must split on plant_0's feature first, leave its
        # available side alone, and split the missing side on plant_1.
        rng = np.random.default_rng(11)
        t_periods = 1400
        level = np.empty(t_periods)
        level[0] = 0.0
        for t in range(1, t_periods):
            level[t] = 0.995 * level[t - 1] + 0.12 * rng.standard_normal()
        signal = 1 / (1 + np.exp(-level))
        twin = np.clip(signal + 0.05 * rng.standard_normal(t_periods), 0, 1)
        junk = rng.uniform(0, 1, t_periods)
        raw = RawSeries(
            timestamps=np.arange(t_periods),
            values=np.column_stack([signal, twin, junk]),
        )
        csv_path = tmp_path / "planted.csv"
        save_csv(raw, csv_path)
        out = tmp_path / "out"
        config = base_config(
            out,
            data={"csv": str(csv_path)},
            max_lag=0,
            partition={"mode": "learned", "q_max": 3, "epsilon": 0.0},
            train={"learning_rate": 0.02, "max_iters": 400, "patience": 40, "batch_size": 128},
            grid={"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1},
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        part = load_artifact(out / "arf-learned_h1.json")
        assert sorted(part.leaf_ids) == [1, 3, 4]
        assert [(split.leaf, split.feature) for split in part.splits] == [(0, 0), (2, 1)]
        # the second split is on the missing side of the first
        assert part.fixed(4) == {0: 1, 1: 1}

    def test_oversized_retrain_oracle_exits_2_before_training(self, tmp_path, capsys):
        # the lr-pipeline data shape: 4 plants at lags 0-2 give 12 maskable features
        out = tmp_path / "out"
        config = base_config(out, max_lag=2, grid={
            "p01": [0.2], "p11": [0.5], "methods": ["retrain-oracle", "imp-mean"], "runs": 1,
        })
        config["data"]["synth"]["n_plants"] = 4
        path = str(write_config(tmp_path, config))
        assert main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: retrain oracle limited to 10 maskable features")
        assert "the data have 12" in err
        assert not out.exists()
        # evaluate refuses it where it builds the oracle, before it looks for
        # the imp-mean artifact, which no train wrote
        assert main(["evaluate", "--config", path]) == 2
        assert "retrain oracle limited to 10" in capsys.readouterr().err

    def test_out_dir_does_not_depend_on_jobs(self, tmp_path):
        # budget 2 trains two fixed subsets and the grid has two cells, so
        # --jobs 2 takes both process-pool paths
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            config = base_config(
                out,
                partition={"mode": "learned", "q_max": 2, "epsilon": 0.0, "budget": 2},
                grid={"p01": [0.2, 0.4], "p11": [0.5], "methods": ["arf-fixed", "arf-learned"],
                      "runs": 1},
                q_sweep={"q_list": [1, 2], "p01": 0.2, "p11": 0.5},
            )
            path = write_config(tmp_path, config, name=f"jobs{jobs}.json")
            for command in ("train", "evaluate"):
                assert main([command, "--config", str(path), "--jobs", jobs]) == 0
            outs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"arf-fixed_h1.json", "arf-learned_q2_h1.json", "qsweep.csv"} <= set(outs["1"])
        assert outs["1"] == outs["2"]

    def test_rerun_is_deterministic(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(
            out, grid={"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        ))
        assert main(["train", "--config", str(path)]) == 0
        first = (out / "arf-learned_h1.json").read_bytes()
        assert main(["train", "--config", str(path)]) == 0
        assert (out / "arf-learned_h1.json").read_bytes() == first


class TestEvaluate:
    def test_the_oracle_fits_plain_models_under_an_adaptive_run_config(self, tmp_path):
        config = base_config(
            tmp_path / "out",
            grid={"p01": [0.2], "p11": [0.5], "methods": ["retrain-oracle"], "runs": 1},
        )
        cfg = parse_run_config(config)
        assert cfg.adaptive
        oracle = cli._load_artifacts(cfg, cli._horizon_data(cfg, cli._load_raw(cfg)))
        assert oracle[("retrain-oracle", 1)].arch.adaptive is False

    def test_zero_missingness_matches_no_missing_baseline(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(
            out,
            grid={"p01": [0.0], "p11": [0.5], "methods": ["imp-persistence"], "runs": 2},
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        rows = (out / "grid.csv").read_text().strip().split("\n")[1:]
        values = {float(r.split(",")[-1]) for r in rows}
        assert len(values) == 1  # every run identical: the mask is all zeros

    def test_missing_artifact_exits_2(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(
            out, grid={"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        )
        path = write_config(tmp_path, config)
        assert main(["evaluate", "--config", str(path)]) == 2

    def test_corrupt_artifact_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = base_config(
            out, grid={"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "arf-learned_h1.json"
        artifact.write_bytes(artifact.read_bytes()[:100])
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(artifact) in err
        assert not (out / "grid.csv").exists()

    def test_artifact_feature_mismatch_exits_2(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        config["max_lag"] = 3  # changes p, so trained artifacts no longer fit
        path2 = write_config(tmp_path, config, name="config2.json")
        assert main(["evaluate", "--config", str(path2)]) == 2

    @pytest.mark.parametrize("case", ["base holds a partition", "sweep point holds a fixed one",
                                      "sweep point of another width", "sweep point of another Q"])
    def test_artifact_of_the_wrong_kind_or_width_exits_2(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        config = base_config(
            out,
            grid={"p01": [0.2], "p11": [0.5], "methods": ["imp-mean", "arf-learned", "arf-fixed"],
                  "runs": 1},
            q_sweep={"q_list": [1, 2], "p01": 0.2, "p11": 0.5},
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        if case == "base holds a partition":
            source, name, match = out / "arf-learned_h1.json", "base_h1.json", "Partition"
        elif case == "sweep point holds a fixed one":
            source, name, match = out / "arf-fixed_h1.json", "arf-learned_q1_h1.json", "FixedPartition"
        elif case == "sweep point of another Q":
            source, name = out / "arf-learned_q1_h1.json", "arf-learned_q2_h1.json"
            match = "holds another partition config: max_subsets 1 (run config: 2)"
        else:
            narrow = base_config(tmp_path / "narrow", max_lag=0, q_sweep=config["q_sweep"])
            assert main(["train", "--config", str(write_config(tmp_path, narrow, "n.json"))]) == 0
            name = "arf-learned_q1_h1.json"
            match = "holds a model of another layout: input_dim 4 (run config: 6)"
            source = tmp_path / "narrow" / name
        target = out / name
        target.write_bytes(source.read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(target) in err and match in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("case", ["w one float short of its shape",
                                      "w one float longer than its shape", "w deleted"])
    def test_malformed_parameter_block_exits_3(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "base_h1.json"
        obj = json.loads(artifact.read_text(encoding="utf-8"))
        blocks = obj["params"][0]
        w = np.frombuffer(base64.b64decode(blocks["w"]))
        if case == "w deleted":
            del blocks["w"]
        else:
            w = w[:-1] if case == "w one float short of its shape" else np.append(w, 0.0)
            blocks["w"] = base64.b64encode(w.tobytes()).decode("ascii")
        artifact.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(artifact) in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("case", ["subsets a list", "subset id x"])
    def test_malformed_learned_file_exits_3(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "arf-learned_h1.json"
        obj = json.loads(artifact.read_text(encoding="utf-8"))
        if case == "subsets a list":
            obj["subsets"] = list(obj["subsets"].values())
        else:
            obj["subsets"]["x"] = obj["subsets"].pop("0")
        artifact.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(artifact) in err
        assert not (out / "grid.csv").exists()

    def test_inconsistent_learned_or_fixed_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "arf-fixed"], "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0

        edits = {
            "arf-learned_h1.json": [
                lambda obj: obj["subsets"]["0"].update(LB=float("nan")),
                lambda obj: obj["config"].update(max_subsets=1.5),
            ],
            "arf-fixed_h1.json": [
                lambda obj: obj.update(losses=[], params=[]),
                lambda obj: obj["losses"].__setitem__(1, "x"),
            ],
        }
        for name, cases in edits.items():
            artifact = out / name
            original = artifact.read_text(encoding="utf-8")
            for edit in cases:
                obj = json.loads(original)
                edit(obj)
                artifact.write_text(json.dumps(obj), encoding="utf-8")
                capsys.readouterr()
                assert main(["evaluate", "--config", str(path)]) == 3
                err = capsys.readouterr().err
                assert err.startswith("data error:") and str(artifact) in err
            artifact.write_text(original, encoding="utf-8")
        assert not (out / "grid.csv").exists()

    def test_a_file_mixing_layouts_exits_3(self, tmp_path, capsys):
        # an arf-learned file whose last table entry holds a plain set's blocks
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "rf-learned"], "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        artifact, plain = out / "arf-learned_h1.json", out / "rf-learned_h1.json"
        obj = json.loads(artifact.read_text(encoding="utf-8"))
        obj["params"][-1] = json.loads(plain.read_text(encoding="utf-8"))["params"][-1]
        artifact.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(artifact) in err
        assert "lr blocks must be ['w', 'D'], got ['w']" in err
        assert not (out / "grid.csv").exists()

    def test_a_table_holding_a_set_more_than_its_fits_exits_3(self, tmp_path, capsys):
        # a set nothing in the file uses, appended to each kind of artifact
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "arf-fixed", "imp-mean"],
                "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        for name in ("arf-learned_h1.json", "arf-fixed_h1.json", "base_h1.json"):
            artifact = out / name
            original = artifact.read_text(encoding="utf-8")
            obj = json.loads(original)
            obj["params"].append(obj["params"][-1])
            artifact.write_text(json.dumps(obj), encoding="utf-8")
            capsys.readouterr()
            assert main(["evaluate", "--config", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(artifact) in err
            assert "its table holds" in err
            artifact.write_text(original, encoding="utf-8")
        assert not (out / "grid.csv").exists()

    def test_learned_file_whose_inherited_copy_disagrees_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "arf-learned_h1.json"
        original = artifact.read_text(encoding="utf-8")
        # subset 2 is the first split's missing child: it keeps the root's UB;
        # the split's adv flag states whether subset 1 keeps it too, and so
        # which of the table's sets are whose
        for doubled in (True, False):
            obj = json.loads(original)
            if doubled:
                obj["subsets"]["2"]["UB"] *= 2
            else:
                obj["splits"][0]["adv"] = not obj["splits"][0]["adv"]
            artifact.write_text(json.dumps(obj), encoding="utf-8")
            capsys.readouterr()
            assert main(["evaluate", "--config", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(artifact) in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("case", ["another family", "another adaptivity",
                                      "another hidden width", "another budget",
                                      "a fixed file of another budget",
                                      "a fixed file one subset short", "another q_max",
                                      "another epsilon"])
    def test_artifact_of_another_family_or_adaptivity_exits_2(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "rf-learned"], "runs": 1}
        if case.startswith("a fixed file"):
            grid["methods"] = ["arf-fixed"]
        config = base_config(out, grid=grid)
        if case == "another hidden width":
            config.update(family="nn", hidden=[3])
        if "budget" in case:
            config["partition"] = {**config["partition"], "budget": 1}
        assert main(["train", "--config", str(write_config(tmp_path, config))]) == 0
        target = out / f"{grid['methods'][0]}_h1.json"
        if "budget" in case:
            config["partition"] = {**config["partition"], "budget": 2}
            match = "holds another uncertainty set: budget 1 (run config: 2)"
        elif case == "another q_max":
            config["partition"] = {**config["partition"], "q_max": 3}
            match = "holds another partition config: max_subsets 2 (run config: 3)"
        elif case == "another epsilon":
            config["partition"] = {**config["partition"], "epsilon": 0.5}
            match = "holds another partition config: epsilon 0.0 (run config: 0.5)"
        elif case == "another family":
            config.update(family="nn", hidden=[3])
            match = "holds a model of another layout: family lr (run config: nn)"
        elif case == "another hidden width":
            config.update(hidden=[7, 7])
            match = "holds a model of another layout: hidden (3,) (run config: (7, 7))"
        elif case == "a fixed file one subset short":
            # a fixed file states its budget by its fit count
            obj = json.loads(target.read_text(encoding="utf-8"))
            budget = len(obj["losses"]) - 1
            obj["losses"].pop()
            obj["params"].pop()
            target.write_text(json.dumps(obj), encoding="utf-8")
            match = f"holds another uncertainty set: budget {budget - 1} (run config: {budget})"
        else:
            target.write_bytes((out / "rf-learned_h1.json").read_bytes())
            match = "holds a model of another layout: adaptive False (run config: True)"
        path = write_config(tmp_path, config, name="evaluate.json")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(target) in err and match in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_trains_and_evaluates(self, tmp_path, method):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": [method], "runs": 2}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        rows = [r.split(",") for r in (out / "grid.csv").read_text().strip().split("\n")[1:]]
        assert [r[:5] for r in rows] == [[method, "1", "0.2", "0.5", str(run)] for run in (0, 1)]
        assert all(np.isfinite(float(r[5])) for r in rows)

    def test_success_exit_zero_and_reports_written(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        assert (out / "grid.csv").exists()
        assert (out / "summary.csv").exists()

    def test_seed_override_changes_results(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        first = (out / "grid.csv").read_text()
        assert main(["train", "--config", str(path), "--seed", "99"]) == 0
        assert main(["evaluate", "--config", str(path), "--seed", "99"]) == 0
        assert (out / "grid.csv").read_text() != first


HEADER = "method,h,p01,p11,run,nrmse"
AT = "where evaluate writes the row for (method, h, p01, p11, run) = "


class TestUnreadableInput:
    """Each file the commands read, replaced by bytes that are not UTF-8 or
    by a directory, is refused with its exit code, naming the file, before
    the command writes anything."""

    @pytest.mark.parametrize("form", ["not UTF-8", "a directory"])
    @pytest.mark.parametrize("source, codes", [
        ("run config", {"not UTF-8": 2, "a directory": 2}),
        ("data.csv", {"not UTF-8": 3, "a directory": 2}),
        ("artifact", {"not UTF-8": 3, "a directory": 2}),
        ("grid.csv", {"not UTF-8": 3, "a directory": 3}),
    ], ids=["run config", "data.csv", "artifact", "grid.csv"])
    def test_refused_with_its_exit_code(self, tmp_path, capsys, source, codes, form):
        out = tmp_path / "out"
        config = base_config(out)
        command, written = "train", out
        if source == "data.csv":
            target = tmp_path / "series.csv"
            save_csv(RawSeries(timestamps=np.arange(900),
                               values=np.full((900, 2), 0.5)), target)
            config["data"] = {"csv": str(target)}
        path = write_config(tmp_path, config)
        if source == "run config":
            target = path
        elif source == "artifact":
            assert main(["train", "--config", str(path)]) == 0
            command, target, written = "evaluate", out / "base_h1.json", out / "grid.csv"
        elif source == "grid.csv":
            out.mkdir()
            target = out / "grid.csv"
            target.write_text(f"{HEADER}\nimp-mean,1,0.2,0.5,0,16.0\n", encoding="utf-8")
            command, written = "report", out / "summary.csv"
        if form == "a directory":
            target.unlink()
            target.mkdir()
        else:  # one byte that no UTF-8 text holds, in the middle of the file
            data = target.read_bytes()
            cut = len(data) // 2
            target.write_bytes(data[:cut] + b"\xff" + data[cut:])
        capsys.readouterr()
        code = codes[form]
        assert main([command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error:" if code == 2 else "data error:")
        assert str(target) in err
        if form == "not UTF-8":
            assert f"{target}: not UTF-8 text" in err
        assert not written.exists()


class TestReport:
    # probabilities written as JSON integers print as the floats they are,
    # in grid.csv and summary.csv alike
    @pytest.mark.parametrize("p11", [[0.5], [0, 1]], ids=["floats", "integers"])
    def test_recomputes_summary_from_grid(self, tmp_path, p11):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": p11, "methods": ["imp-mean"], "runs": 2}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        summary_before = (out / "summary.csv").read_text()
        cells = {tuple(line.split(",")[2:4]) for line in summary_before.strip().split("\n")[1:]}
        assert cells == {("0.2", repr(float(p))) for p in p11}
        assert main(["report", "--config", str(path)]) == 0
        assert (out / "summary.csv").read_text() == summary_before

    def test_runs_reversed_within_each_cell_exit_3(self, tmp_path, capsys):
        # the rows and their values are all there, but not in the order
        # evaluate writes them, which the summary's sums depend on
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5, 0.9], "methods": ["imp-mean"], "runs": 3}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        header, *rows = (out / "grid.csv").read_text().strip().split("\n")
        cells = [rows[i:i + 3][::-1] for i in range(0, len(rows), 3)]
        (out / "grid.csv").write_text("\n".join([header, *sum(cells, [])]) + "\n")
        (out / "summary.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {out / 'grid.csv'} line 2: grid row {rows[2]!r} "
                              f"{AT}imp-mean,1,0.2,0.5,0")
        assert not (out / "summary.csv").exists()

    def test_without_grid_exits_3(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["report", "--config", str(path)]) == 3

    # each case is a grid.csv evaluate could not have written: by default
    # its header, one valid row and `row` on line 3
    @pytest.mark.parametrize("row, match, lines", [
        ("imp-mean,1,0.2,0.5,0", "line 3: malformed grid row 'imp-mean,1,0.2,0.5,0'", None),
        ("imp-mean,1,0.2,0.5,0.5,17.0",
         "line 3: malformed grid row 'imp-mean,1,0.2,0.5,0.5,17.0'", None),
        (None, "line 2: no grid row", [HEADER]),
        (None, "line 1: header 'a,b,c,d,e,f'", ["a,b,c,d,e,f", "imp-mean,1,0.2,0.5,1,16.0"]),
        (None, "line 1: header ''", ["", HEADER, "imp-mean,1,0.2,0.5,0,16.0"]),
        (None, "line 3: malformed grid row ''", [HEADER, "imp-mean,1,0.2,0.5,0,16.0", ""]),
        ("imp-mean,1,0.2,0.5,0,nan", "line 3: an nrmse that is not a finite number", None),
        ("imp-mean,1,0.2,0.5,0,inf", "line 3: an nrmse that is not a finite number", None),
        ("imp-mean,1,0.2,0.5,0,-1.0", "line 3: an nrmse that is not a finite number", None),
        ("imp-mean,1,7.0,0.5,0,16.0", "line 3: a probability outside [0, 1]", None),
        ("imp-mean,-3,0.2,0.5,0,16.0", "line 3: a horizon below 1", None),
        ("imp-mean,1,0.2,0.5,-1,16.0", f"line 2: grid row 'imp-mean,1,0.2,0.5,1,16.0' {AT}"
         "imp-mean,1,0.2,0.5,0", None),
        ("bogus,1,0.2,0.5,0,16.0", "line 3: an unknown method", None),
        ("imp-mean,1,0.2,0.5,1,17.0", f"line 2: grid row 'imp-mean,1,0.2,0.5,1,16.0' {AT}"
         "imp-mean,1,0.2,0.5,0", None),
        (None, f"line 4: grid row 'imp-mean,1,0.2,0.5,5,16.0' {AT}imp-mean,1,0.2,0.5,2",
         [HEADER, *(f"imp-mean,1,0.2,0.5,{run},16.0" for run in (0, 1, 5)),
          "imp-mean,1,0.2,0.9,0,16.0"]),
        (None, f"line 3: grid row 'imp-mean,1,0.05,0.9,0,16.0' {AT}imp-mean,1,0.2,0.9,0",
         [HEADER, "imp-mean,1,0.2,0.5,0,16.0", "imp-mean,1,0.05,0.9,0,16.0"]),
        (None, f"line 5: the end of the file {AT}imp-mean,1,0.2,0.9,1",
         [HEADER, "imp-mean,1,0.2,0.5,0,16.0", "imp-mean,1,0.2,0.5,1,16.0",
          "imp-mean,1,0.2,0.9,0,16.0"]),
        (None, "line 3: grid row 'imp-mean,1,0.2,0.5,0,17.0' where evaluate writes no more "
         "rows", [HEADER, "imp-mean,1,0.2,0.5,0,16.0", "imp-mean,1,0.2,0.5,0,17.0"]),
    ], ids=["a short row", "a run that is no integer", "no rows", "another header",
            "a blank first line", "a blank last line",
            "nrmse nan", "nrmse inf", "nrmse negative", "p01 above 1", "horizon -3", "run -1",
            "unknown method", "repeated run", "runs 0, 1 and 5 of a cell", "a cell missing",
            "a last run missing", "a row past the grid"])
    def test_malformed_grid_row_exits_3(self, tmp_path, capsys, row, match, lines):
        out = tmp_path / "out"
        out.mkdir()
        grid = out / "grid.csv"
        lines = lines or [HEADER, "imp-mean,1,0.2,0.5,1,16.0", row]
        grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path = write_config(tmp_path, base_config(out))
        capsys.readouterr()
        assert main(["report", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{grid} {match}" in err
        assert not (out / "summary.csv").exists()


class TestQSweepCli:
    def test_qsweep_artifacts_and_report(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(
            out,
            grid={"p01": [0.2], "p11": [0.8], "methods": ["arf-learned"], "runs": 2},
            q_sweep={"q_list": [1, 2], "p01": 0.2, "p11": 0.8},
        )
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 0
        assert (out / "arf-learned_q1_h1.json").exists()
        assert (out / "arf-learned_q2_h1.json").exists()
        assert main(["evaluate", "--config", str(path)]) == 0
        qsweep = (out / "qsweep.csv").read_text().strip().split("\n")
        assert qsweep[0] == "Q,mean_nrmse,max_relgap"
        assert len(qsweep) == 3

    @pytest.mark.parametrize("sweep_method", ["arf-learned", "rf-learned"])
    def test_one_growth_per_method_and_horizon(self, tmp_path, monkeypatch, sweep_method):
        # the grid tree (q_max 2) and every sweep point are cut from one
        # growth per (method, h), and each file is the direct growth's JSON
        out = tmp_path / "out"
        config = base_config(
            out,
            horizons=[1, 2],
            grid={"p01": [0.2], "p11": [0.8], "methods": ["arf-learned"], "runs": 1},
            q_sweep={"q_list": [3, 1, 2], "p01": 0.2, "p11": 0.8, "method": sweep_method},
        )
        grown = []

        def counting(train, val, budget, pcfg, *args):
            grown.append((args[-1].adaptive, train.horizon, pcfg.max_subsets))
            return learn_partition(train, val, budget, pcfg, *args)

        monkeypatch.setattr(cli, "learn_partition", counting)
        assert main(["train", "--config", str(write_config(tmp_path, config))]) == 0
        if sweep_method == "arf-learned":
            assert sorted(grown) == [(True, 1, 3), (True, 2, 3)]
        else:
            assert sorted(grown) == [(False, 1, 3), (False, 2, 3), (True, 1, 2), (True, 2, 2)]

        cfg = parse_run_config(config)
        hds = cli._horizon_data(cfg, cli._load_raw(cfg))
        expected = {f"arf-learned_h{h}.json": ("arf-learned", h, 2) for h in (1, 2)}
        expected.update({f"{sweep_method}_q{q}_h{h}.json": (sweep_method, h, q)
                         for q in (1, 2, 3) for h in (1, 2)})
        for name, (method, h, q) in expected.items():
            hd = hds[h]
            direct = learn_partition(
                hd.train, hd.val, cli._budget_for(cfg, hd), PartitionConfig(q, 0.0),
                replace(cfg.train, seed=derive_seed(cfg.seed, "train", method, h)),
                cli._arch_for(cfg, hd, method),
            )
            assert (out / name).read_text() == json.dumps(partition_to_json(direct)), name


def test_the_readme_library_example_runs_verbatim(capsys):
    text = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = text.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md library example", "exec"), {})
    assert np.isfinite(float(capsys.readouterr().out))


def test_python_m_robustcast_runs_the_cli():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-m", "robustcast", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: robustcast" in done.stdout
