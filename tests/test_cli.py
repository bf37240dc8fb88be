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
from robustcast.cli import main, parse_run_config
from robustcast.exceptions import ConfigError
from robustcast.dataio import load_csv, save_csv, RawSeries, SynthConfig
from robustcast.evaluation import METHODS
from robustcast.partition import (
    Partition, PartitionConfig, learn_partition, load_artifact, partition_to_json, rel_gap,
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
    ])
    def test_config_that_would_fail_after_training_exits_2(self, tmp_path, key, value, match):
        config = base_config(tmp_path / "out", **{key: value})
        with pytest.raises(ConfigError, match=match):
            parse_run_config(config)
        path = write_config(tmp_path, config)
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()


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

    def test_oversized_retrain_oracle_exits_4_before_training(self, tmp_path, capsys):
        # the lr-pipeline data shape: 4 plants at lags 0-2 give 12 maskable features
        out = tmp_path / "out"
        config = base_config(out, max_lag=2, grid={
            "p01": [0.2], "p11": [0.5], "methods": ["imp-mean", "retrain-oracle"], "runs": 1,
        })
        config["data"]["synth"]["n_plants"] = 4
        assert main(["train", "--config", str(write_config(tmp_path, config))]) == 4
        assert "retrain oracle limited to 10 maskable features" in capsys.readouterr().err
        assert not list(out.glob("base_h*.json"))

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
                                      "sweep point of another width"])
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
        else:
            narrow = base_config(tmp_path / "narrow", max_lag=0, q_sweep=config["q_sweep"])
            assert main(["train", "--config", str(write_config(tmp_path, narrow, "n.json"))]) == 0
            name, match = "arf-learned_q1_h1.json", "trained for p="
            source = tmp_path / "narrow" / name
        target = out / name
        target.write_bytes(source.read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(target) in err and match in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("case", ["w one float short of its shape",
                                      "w one shorter with a matching shape", "w deleted"])
    def test_malformed_parameter_block_exits_3(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "base_h1.json"
        obj = json.loads(artifact.read_text(encoding="utf-8"))
        arrays = obj["params"][obj["model"]]["arrays"]
        w = np.frombuffer(base64.b64decode(arrays["w"]["f8"]))
        if case == "w deleted":
            del arrays["w"]
        else:
            arrays["w"]["f8"] = base64.b64encode(w[:-1].tobytes()).decode("ascii")
            if case == "w one shorter with a matching shape":
                arrays["w"]["shape"] = [w.size - 1]
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

        def free_feature_missing(obj):
            subset = obj["subsets"]["1"]
            subset["opt_pattern"][subset["free"][0]] = 1

        edits = {
            "arf-learned_h1.json": [
                lambda obj: obj["subsets"]["0"].update(LB=float("nan")),
                lambda obj: obj["subsets"]["2"].update(relgap=obj["subsets"]["2"]["relgap"] / 2),
                lambda obj: obj["config"].update(max_subsets=1.5),
                free_feature_missing,
            ],
            "arf-fixed_h1.json": [
                lambda obj: obj.update(subsets=obj["subsets"][:-1]),
                lambda obj: obj["subsets"][1].update(count="x"),
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

    def test_learned_file_whose_inherited_copy_disagrees_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned"], "runs": 1}
        path = write_config(tmp_path, base_config(out, grid=grid))
        assert main(["train", "--config", str(path)]) == 0
        artifact = out / "arf-learned_h1.json"
        original = artifact.read_text(encoding="utf-8")
        # subset 2 is the first split's missing child: it keeps the root's UB
        for doubled in (True, False):
            obj = json.loads(original)
            subset = obj["subsets"]["2"]
            if doubled:
                subset["UB"] *= 2
                subset["relgap"] = rel_gap(subset["LB"], subset["UB"])
            else:
                subset["ub_inherited"] = False
            artifact.write_text(json.dumps(obj), encoding="utf-8")
            capsys.readouterr()
            assert main(["evaluate", "--config", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(artifact) in err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("case", ["another family", "another adaptivity"])
    def test_artifact_of_another_family_or_adaptivity_exits_2(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        grid = {"p01": [0.2], "p11": [0.5], "methods": ["arf-learned", "rf-learned"], "runs": 1}
        config = base_config(out, grid=grid)
        assert main(["train", "--config", str(write_config(tmp_path, config))]) == 0
        target = out / "arf-learned_h1.json"
        if case == "another family":
            config.update(family="nn", hidden=[3])
            match = "holds a 'lr' model, the run config's family is 'nn'"
        else:
            target.write_bytes((out / "rf-learned_h1.json").read_bytes())
            match = "adaptive=False, arf-learned needs adaptive=True"
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


class TestReport:
    def test_recomputes_summary_from_grid(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["evaluate", "--config", str(path)]) == 0
        summary_before = (out / "summary.csv").read_text()
        assert main(["report", "--config", str(path)]) == 0
        assert (out / "summary.csv").read_text() == summary_before

    def test_without_grid_exits_3(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["report", "--config", str(path)]) == 3


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

        def counting(train, val, uset, pcfg, *args):
            grown.append((args[-1], train.horizon, pcfg.max_subsets))
            return learn_partition(train, val, uset, pcfg, *args)

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
                hd.train, hd.val, cli._uset_for(cfg, hd), PartitionConfig(q, 0.0),
                replace(cfg.train, seed=derive_seed(cfg.seed, "train", method, h)),
                cli._arch_for(cfg, hd), "lr", method == "arf-learned",
            )
            assert (out / name).read_text() == json.dumps(partition_to_json(direct)), name


def test_python_m_robustcast_runs_the_cli():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-m", "robustcast", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: robustcast" in done.stdout
