"""Tests of the benchmark's own parts (not of robustcast).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORKLOAD_FILES = sorted((HERE / "workloads").glob("*.json"))


def test_every_workload_has_a_config_and_a_reference():
    assert sorted(p.stem for p in WORKLOAD_FILES) == sorted(run.WORKLOADS)
    for name in run.WORKLOADS:
        ref = json.loads((HERE / "reference" / f"{name}.json").read_text(encoding="utf-8"))
        assert ref["seed"] == run.REFERENCE_SEED
        assert ref["nrmse_rel_tol"] == checks.NRMSE_REL_TOL


def test_benchmark_json_declares_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("path", WORKLOAD_FILES, ids=lambda p: p.stem)
def test_every_config_key_reaches_the_run_config(path):
    config = json.loads(path.read_text(encoding="utf-8"))
    assert checks.config_problems(config) == []


def test_config_check_reports_keys_the_parser_ignores():
    config = json.loads(WORKLOAD_FILES[0].read_text(encoding="utf-8"))
    config["grid"]["bogus"] = 1
    config["data"]["synth"]["obs_noise_std"] = 0.3
    problems = checks.config_problems(config)
    assert any("grid.bogus" in p for p in problems)
    # parse_run_config drops obs_noise_std at this revision; once it is
    # honoured the key parses to 0.3 and only the bogus key is reported.
    assert all("grid.bogus" in p or "obs_noise_std" in p for p in problems)


def _write_outputs(out_dir: Path, nrmse: str) -> dict:
    config = {
        "horizons": [1],
        "partition": {"q_max": 2},
        "grid": {"p01": [0.1], "p11": [0.9], "methods": ["imp-mean", "arf-learned"], "runs": 2},
    }
    out_dir.mkdir()
    grid = ["method,h,p01,p11,run,nrmse"]
    summary = ["method,h,p01,p11,mean_nrmse,std_nrmse,runs"]
    for method in config["grid"]["methods"]:
        grid += [f"{method},1,0.1,0.9,{r},{nrmse}" for r in range(2)]
        summary.append(f"{method},1,0.1,0.9,{nrmse},0.0,2")
    (out_dir / "grid.csv").write_text("\n".join(grid) + "\n", encoding="utf-8")
    (out_dir / "summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    tree = {"config": {"max_subsets": 2}, "leaf_ids": [1, 2], "subsets": {
        "0": {"split_feature": 3, "LB": 1.0, "UB": 2.0},
        "1": {"split_feature": None, "LB": 1.0, "UB": 1.5},
        "2": {"split_feature": None, "LB": 1.2, "UB": 2.0},
    }}
    (out_dir / "arf-learned_h1.json").write_text(json.dumps(tree), encoding="utf-8")
    return config


def test_output_checks_accept_good_outputs_and_match_their_reference(tmp_path):
    config = _write_outputs(tmp_path / "out", "12.5")
    assert checks.output_problems(config, tmp_path / "out", None) == []
    ref = checks.reference_from_outputs(config, tmp_path / "out", 1)
    assert ref["trees"] == {"arf-learned_h1": {"leaves": 2, "split_features": {"0": 3}}}
    assert checks.output_problems(config, tmp_path / "out", ref) == []
    ref["grid"][0][-1] *= 1 + 10 * checks.NRMSE_REL_TOL
    assert len(checks.output_problems(config, tmp_path / "out", ref)) == 1


@pytest.mark.parametrize("max_subsets", [2, 3])
def test_output_checks_reject_growth_cut_short_by_an_inverted_bound(tmp_path, max_subsets):
    config = _write_outputs(tmp_path / "out", "12.5")
    path = tmp_path / "out" / "arf-learned_h1.json"
    tree = json.loads(path.read_text(encoding="utf-8"))
    tree["config"]["max_subsets"] = max_subsets
    tree["subsets"]["2"]["UB"] = 1.1
    path.write_text(json.dumps(tree), encoding="utf-8")
    config["partition"]["q_max"] = max_subsets
    [inversion] = checks.bound_inversions(config, tmp_path / "out")
    assert inversion["subset"] == 2
    problems = checks.output_problems(config, tmp_path / "out", None)
    if max_subsets == 2:
        # the tree reached its limit: the inversion is recorded, not a failure
        assert not inversion["ended_growth"] and problems == []
    else:
        assert inversion["ended_growth"] and len(problems) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-1.0", "0.0"])
def test_output_checks_reject_non_finite_or_non_positive_nrmse(tmp_path, bad):
    config = _write_outputs(tmp_path / "out", bad)
    assert checks.output_problems(config, tmp_path / "out", None)


def test_tracer_wraps_every_alias_and_counts_greedy_candidates():
    import robustcast.adversarial as adversarial
    import robustcast.models as models
    from robustcast.adversarial import AdvSearchScope
    from robustcast.missingness import MissingPattern
    from robustcast.models import Architecture, init_params

    original = models.mse_loss
    t = tracer.Tracer()
    replaced = tracer.install(t)
    try:
        # functions imported by name into other modules are wrapped there too
        assert adversarial.mse_loss is models.mse_loss is not original
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 7))
        X[:, -1] = 1.0
        y = rng.normal(size=40)
        params = init_params(Architecture(input_dim=7, bias_index=6), "lr", True, 0,
                             maskable=tuple(range(6)))
        for budget in (0, 2, 6):
            scope = AdvSearchScope(free=tuple(range(6)), budget=budget,
                                   base=MissingPattern.zeros(7))
            adversarial.find_adversarial(X, y, scope, params)
    finally:
        tracer.restore(replaced)
    assert models.mse_loss is original and adversarial.mse_loss is original

    table = t.table()
    searches = table["adversarial.find_adversarial"]["calls"]
    assert searches == 3
    # each search scores its start pattern once, then one loss per candidate
    assert t.counts["adversarial.find_adversarial.candidates"] == (
        table["models.mse_loss"]["calls"] - searches
    )
    row = table["adversarial.find_adversarial"]
    assert 0.0 <= row["self_s"] <= row["s"]
